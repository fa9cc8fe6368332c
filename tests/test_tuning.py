"""Selector constants and the two partition-size rules."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lspart import dgp
from lspart import tuning
from lspart.basis import BasisFamily, BasisSpec, SparseRows
from lspart.biascorrect import LeadingErrorModel
from lspart.errors import ConfigError, DegenerateData, UnsupportedDerivative
from lspart.fit import EstimatorKind, FitResult, fit_estimator
from lspart.inference import make_grid, quadratic_form, sigma_hat
from lspart.partition import KnotRule, TensorPartition
from lspart.tuning import (
    TuningReport,
    _eta_table,
    _one_cell_derivs,
    _pilot_kappa,
    dpi_select,
    eta_constant,
    imse_components,
    rot_select,
)
from oracles import exact_poly


class TestEta:
    def test_bspline_order2(self):
        # int (B_2(z)/2!)^2 dz = (1/180)/4
        got = eta_constant(BasisFamily.BSPLINE, 2, (2,), (2,))
        assert got == pytest.approx(1 / 720, abs=1e-12)

    def test_pp_order1(self):
        # int ((2z-1)/2)^2 dz = 1/12
        got = eta_constant(BasisFamily.PP, 1, (1,), (1,))
        assert got == pytest.approx(1 / 12, abs=1e-12)

    def test_bspline_order1_matches_pp(self):
        a = eta_constant(BasisFamily.BSPLINE, 1, (1,), (1,))
        b = eta_constant(BasisFamily.PP, 1, (1,), (1,))
        assert a == pytest.approx(b, abs=1e-14)
        assert a == pytest.approx(1 / 12, abs=1e-12)

    def test_bspline_order3(self):
        # int (B_3(z)/3!)^2 dz = (1/840)/36
        got = eta_constant(BasisFamily.BSPLINE, 3, (3,), (3,))
        assert got == pytest.approx(1 / 30240, abs=1e-14)

    def test_cross_terms_2d(self):
        # P_2 integrates to zero, so disjoint-axis indices are orthogonal
        got = eta_constant(BasisFamily.PP, 2, (2, 0), (0, 2))
        assert got == pytest.approx(0.0, abs=1e-14)
        diag = eta_constant(BasisFamily.PP, 2, (2, 0), (2, 0))
        assert diag == pytest.approx(1 / 720, abs=1e-12)
        mixed = eta_constant(BasisFamily.PP, 2, (1, 1), (1, 1))
        assert mixed == pytest.approx(1 / 144, abs=1e-12)

    def test_symmetry(self):
        a = eta_constant(BasisFamily.PP, 2, (2, 0), (1, 1))
        b = eta_constant(BasisFamily.PP, 2, (1, 1), (2, 0))
        assert a == pytest.approx(b, abs=1e-15)

    def test_derivative_target(self):
        # shape for q = 1 at order 2 is B_1(z) = z - 1/2
        got = eta_constant(BasisFamily.BSPLINE, 2, (2,), (2,), q=(1,))
        assert got == pytest.approx(1 / 12, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            eta_constant(BasisFamily.PP, 2, (2,), (2, 0))

    def test_derivative_target_exact_rationals(self):
        # at q = (1,) the order-3 PP factor is P_3'(2z - 1) * 2 / 120, against
        # B_2 / 2! for the B-spline
        assert _exact_eta(BasisFamily.PP, (3,), (3,), (1,)) == Fraction(1, 600)
        assert _exact_eta(BasisFamily.BSPLINE, (3,), (3,), (1,)) == Fraction(1, 720)
        assert eta_constant(BasisFamily.PP, 3, (3,), (3,), q=(1,)) == pytest.approx(
            1 / 600, rel=1e-13)
        assert eta_constant(BasisFamily.BSPLINE, 3, (3,), (3,), q=(1,)) == pytest.approx(
            1 / 720, rel=1e-13)

    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    @pytest.mark.parametrize("m", range(1, 8))
    def test_one_axis_exact_to_roundoff(self, family, m):
        # every order up to 7 and every q: in powers of z the B_7 integral
        # would lose 1.4e-12 of its value to cancellation
        for q in range(m):
            want = float(_exact_eta(family, (m,), (m,), (q,)))
            got = eta_constant(family, m, (m,), (m,), q=(q,))
            assert got == pytest.approx(want, rel=1e-14, abs=0), q

    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    def test_mixed_2d_table_at_q_exact(self, family):
        m, q = 3, (1, 0)
        lam = LeadingErrorModel(family, m, 2).lambda_set
        want = np.array([[float(_exact_eta(family, u1, u2, q)) for u2 in lam] for u1 in lam])
        assert_allclose(_eta_table(family, m, 2, q), want, rtol=0,
                        atol=1e-14 * np.max(np.abs(want)))
        if family is BasisFamily.PP:
            # axis 1: d/dz (2z - 1) / 2 = 1; axis 2: int (P_2(2z - 1) / 12)^2 = 1/720
            assert eta_constant(family, m, (1, 2), (1, 2), q) == pytest.approx(
                1 / 720, rel=1e-13)


def _exact_factor(family, a, b):
    """Ascending Fraction coefficients of the b-th derivative of the order-a
    one-axis shape factor: B_a(z) / a! or P_a(2z - 1) / (C(2a, a) a!)."""
    scale = math.factorial(a) * (1 if family is BasisFamily.BSPLINE else math.comb(2 * a, a))
    c = [x / scale for x in exact_poly(family, a)]
    for _ in range(b):
        c = [j * cj for j, cj in enumerate(c)][1:]
    return c


def _exact_eta(family, u1, u2, q):
    """Unit-cell integral of two shapes as an exact rational, axis by axis."""
    out = Fraction(1)
    for a1, a2, b in zip(u1, u2, q):
        if a1 < b or a2 < b:
            return Fraction(0)
        c1, c2 = _exact_factor(family, a1, b), _exact_factor(family, a2, b)
        out *= sum(x * y / (i + j + 1) for i, x in enumerate(c1) for j, y in enumerate(c2))
    return out


def _curve_sample(n, seed=0, noise=0.5):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 1))
    y = np.sin(2 * np.pi * X[:, 0]) + noise * rng.standard_normal(n)
    return X, y


class TestRot:
    def test_never_densifies(self, monkeypatch):
        # on one cell the design's values are its dense form, bit for bit
        X, y = _curve_sample(600)
        want = rot_select(X, y, BasisFamily.PP, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("rot_select called SparseRows.dense")

        monkeypatch.setattr(SparseRows, "dense", refuse)
        got = rot_select(X, y, BasisFamily.PP, 2)
        assert got == want

    def test_report_fields(self):
        X, y = _curve_sample(600)
        rep = rot_select(X, y, BasisFamily.BSPLINE, 2)
        assert isinstance(rep, TuningReport)
        assert rep.kappa_rot >= 1
        assert rep.kappa_dpi is None
        assert rep.selected() == rep.kappa_rot
        assert rep.bias_constant >= 0
        assert rep.variance_constant > 0
        assert [f.name for f in dataclasses.fields(rep)] == [
            "kappa_rot", "kappa_dpi", "bias_constant", "variance_constant",
            "rot_fallback"]

    def test_linear_truth_gives_one_cell(self):
        rng = np.random.default_rng(2)
        X = rng.random((400, 1))
        y = 1.0 + 2.0 * X[:, 0]
        rep = rot_select(X, y, BasisFamily.BSPLINE, 2)
        assert rep.kappa_rot == 1

    def test_sample_size_scaling(self):
        # kappa grows like n^(1/(2m+d)); a 32-fold n step should double it
        X1, y1 = _curve_sample(1000, seed=7)
        X2, y2 = _curve_sample(32000, seed=8)
        k1 = rot_select(X1, y1, BasisFamily.BSPLINE, 2).kappa_rot
        k2 = rot_select(X2, y2, BasisFamily.BSPLINE, 2).kappa_rot
        assert 1.5 <= k2 / k1 <= 2.7

    def test_response_scale_invariance(self):
        X, y = _curve_sample(800, seed=4)
        a = rot_select(X, y, BasisFamily.BSPLINE, 2)
        b = rot_select(X, 3.7 * y, BasisFamily.BSPLINE, 2)
        assert a.kappa_rot == b.kappa_rot

    def test_deterministic(self):
        X, y = _curve_sample(500, seed=9)
        a = rot_select(X, y, BasisFamily.PP, 2)
        b = rot_select(X, y, BasisFamily.PP, 2)
        assert a.kappa_rot == b.kappa_rot
        assert a.bias_constant == b.bias_constant

    def test_derivative_order_guard(self):
        X, y = _curve_sample(300)
        with pytest.raises(ConfigError):
            rot_select(X, y, BasisFamily.BSPLINE, 2, q=(2,))

    def test_degenerate_support(self):
        X = np.full((100, 1), 0.5)
        y = np.zeros(100)
        with pytest.raises(DegenerateData):
            rot_select(X, y, BasisFamily.BSPLINE, 2)

    def test_needs_enough_points(self):
        X, y = _curve_sample(6)
        with pytest.raises(ConfigError):
            rot_select(X, y, BasisFamily.BSPLINE, 2)


def _monomial_fit(X, y, degree, bounds):
    """The former preliminary fit, written out as the oracle: monomials of
    total degree <= ``degree`` in coordinates mapped to [-1, 1], columns
    scaled to unit root-mean-square, one ``lstsq``; returns u -> d^u fit."""
    d = X.shape[1]
    alphas = sorted(
        (a for a in itertools.product(range(degree + 1), repeat=d)
         if sum(a) <= degree),
        key=lambda a: (sum(a), a),
    )
    chain = 2.0 / (bounds[:, 1] - bounds[:, 0])
    S = (X - bounds[:, 0]) * chain - 1.0

    def columns(u):
        cols = np.zeros((X.shape[0], len(alphas)))
        for c, a in enumerate(alphas):
            if all(a[ell] >= u[ell] for ell in range(d)):
                col = np.ones(X.shape[0])
                for ell in range(d):
                    k = a[ell] - u[ell]
                    col *= math.factorial(a[ell]) // math.factorial(k) * S[:, ell] ** k
                cols[:, c] = col
        return cols * np.prod(chain ** np.asarray(u, dtype=float))

    design = columns((0,) * d)
    scale = np.sqrt(np.mean(design**2, axis=0))
    coef = np.linalg.lstsq(design / scale, y, rcond=None)[0] / scale
    return lambda u: columns(u) @ coef


class TestRotOracle:
    """rot_select's one-cell piecewise-polynomial fit against the monomial one."""

    @pytest.mark.parametrize("model", [2, 4, 6])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    def test_matches_monomial_fit(self, monkeypatch, family, model, m):
        X, y = dgp.dgp_sample(model, 1500, [model, m])
        d = X.shape[1]
        bounds = np.stack([X.min(axis=0), X.max(axis=0)], axis=1)
        # the selector's derivatives are the columns of its one derivative
        # product, in lambda_set order
        seen = []

        def spy(*args):
            out = _one_cell_derivs(*args)
            seen.append(out)
            return out

        monkeypatch.setattr(tuning, "_one_cell_derivs", spy)
        rep = rot_select(X, y, family, m)
        monkeypatch.undo()

        lam = LeadingErrorModel(family, m, d).lambda_set
        mu = _monomial_fit(X, y, m + 4, bounds)
        ref = {u: mu(u) for u in lam}
        assert len(seen) == 1 and seen[0].shape == (X.shape[0], len(lam))
        for u, got in zip(lam, seen[0].T):
            assert_allclose(got, ref[u], rtol=1e-8, atol=1e-8 * np.max(np.abs(ref[u])))

        q0 = (0,) * d
        bias = sum(
            eta_constant(family, m, u1, u2) * np.mean(ref[u1] * ref[u2])
            for u1, u2 in itertools.product(lam, lam)
        )
        sig2 = _monomial_fit(X, y**2, m + 4, bounds)(q0) - mu(q0) ** 2
        J = 1 if family is BasisFamily.BSPLINE else math.comb(d + m - 1, m - 1)
        var = np.mean(np.clip(sig2, 1e-8, None)) * J
        assert rep.bias_constant == pytest.approx(bias, rel=1e-8)
        assert rep.variance_constant == pytest.approx(var, rel=1e-8)


class TestRotFixedCost:
    """rot_select's derivative map, its eta table and its one evaluation."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    def test_derivative_map_matches_evaluated_derivatives(self, family, m, d):
        rng = np.random.default_rng([d, m])
        bounds = np.column_stack([-rng.random(d), 1.0 + 2.0 * rng.random(d)])
        X = bounds[:, 0] + rng.random((200, d)) * (bounds[:, 1] - bounds[:, 0])
        spec = BasisSpec(BasisFamily.PP, m + 5, TensorPartition.build("even", bounds, 1))
        coef = rng.standard_normal(spec.K)
        lam = LeadingErrorModel(family, m, d).lambda_set
        got = _one_cell_derivs(spec, spec.eval_many(X).values, coef, lam)
        assert got.shape == (X.shape[0], len(lam))
        for k, u in enumerate(lam):
            ref = spec.eval_many(X, u).row_dot(coef)
            assert_allclose(got[:, k], ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    def test_eta_table_is_the_constants_read_only(self, family, m, d):
        lam = LeadingErrorModel(family, m, d).lambda_set
        q0 = (0,) * d
        table = _eta_table(family, m, d, q0)
        assert table.shape == (len(lam), len(lam))
        for (i, u1), (k, u2) in itertools.product(enumerate(lam), repeat=2):
            assert table[i, k] == eta_constant(family, m, u1, u2)
        assert _eta_table(family, m, d, q0) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    def test_one_evaluation_per_call(self, monkeypatch, family):
        X, y = dgp.dgp_sample(4, 600, 5)
        calls = []
        eval_many = BasisSpec.eval_many

        def count(self, X, deriv=None, cells=None):
            calls.append(deriv)
            return eval_many(self, X, deriv, cells)

        monkeypatch.setattr(BasisSpec, "eval_many", count)
        rot_select(X, y, family, 3)
        assert calls == [None]


class TestDpi:
    def test_closed_form_from_reported_constants(self):
        X, y = _curve_sample(900, seed=11)
        m, d = 2, 1
        rep = dpi_select(X, y, BasisFamily.BSPLINE, m)
        # the reported constants are free of kappa, as in rot_select
        ratio = 2.0 * m * rep.bias_constant / (d * rep.variance_constant)
        n = X.shape[0]
        want = max(1, math.ceil((ratio * n) ** (1.0 / (2 * m + d))))
        assert rep.kappa_dpi == want
        assert rep.selected() == rep.kappa_dpi

    @pytest.mark.parametrize("m,d", [(1, 1), (2, 1), (3, 2), (4, 2), (2, 3)])
    def test_pilot_is_smallest_size_at_slower_rate(self, m, d):
        # kappa_p^(2m+d+2) >= kappa_rot^(2m+d), so kappa_p grows like
        # n^(1/(2m+d+2)); float powers round 32^(8/10) and 64^(10/12) up
        # one cell too many
        a, b = 2 * m + d, 2 * m + d + 2
        for kr in range(1, 300):
            kp = _pilot_kappa(kr, m, d)
            assert kp**b >= kr**a > (kp - 1) ** b

    def test_explicit_rot_matches_internal(self):
        X, y = _curve_sample(700, seed=13)
        rot = rot_select(X, y, BasisFamily.BSPLINE, 2)
        a = dpi_select(X, y, BasisFamily.BSPLINE, 2, rot=rot)
        b = dpi_select(X, y, BasisFamily.BSPLINE, 2)
        assert a.kappa_dpi == b.kappa_dpi
        assert a.bias_constant == b.bias_constant

    def test_fallback_on_rank_deficiency(self):
        # far more cells than points leaves empty cells; the preliminary
        # fit cannot factor and the rule falls back to kappa_rot
        X, y = _curve_sample(30, seed=5)
        fake = TuningReport(
            kappa_rot=50,
            kappa_dpi=None,
            bias_constant=1.0,
            variance_constant=1.0,
        )
        rep = dpi_select(X, y, BasisFamily.BSPLINE, 2, rot=fake)
        assert rep.rot_fallback is True
        assert rep.kappa_dpi == 50
        assert rep.selected() == 50

    def test_quantile_knots_accepted(self):
        X, y = _curve_sample(800, seed=17)
        rep = dpi_select(
            X, y, BasisFamily.BSPLINE, 2, knots=KnotRule.QUANTILE
        )
        assert rep.kappa_dpi >= 1
        assert rep.rot_fallback is False

    def test_derivative_target_runs(self):
        X, y = _curve_sample(900, seed=19)
        rep = dpi_select(X, y, BasisFamily.BSPLINE, 3, q=(1,))
        assert rep.kappa_dpi >= 1

    def test_haar(self):
        # the Haar pilot's companion is the order-2 piecewise polynomial
        X, y = _curve_sample(900, seed=31)
        rep = dpi_select(X, y, BasisFamily.HAAR, 1)
        assert rep.rot_fallback is False
        assert rep.kappa_dpi >= 1

    def test_no_dense_weights(self, monkeypatch):
        # V_hat comes from the trace route, never from gamma_many
        X, y = _curve_sample(900, seed=37)
        want = dpi_select(X, y, BasisFamily.BSPLINE, 2)

        def boom(*args, **kwargs):
            raise AssertionError("dpi_select called gamma_many")

        monkeypatch.setattr(FitResult, "gamma_many", boom)
        got = dpi_select(X, y, BasisFamily.BSPLINE, 2)
        assert got.kappa_dpi == want.kappa_dpi
        assert got.variance_constant == want.variance_constant

    def test_pilot_builds_lead_once(self, monkeypatch):
        # the pilot's B_hat reads the fit's cached lead at the sample: R_0 is
        # built once, and the constants match the explicit point-set route
        from lspart import biascorrect

        X, y = _curve_sample(900, seed=43)
        want = dpi_select(X, y, BasisFamily.BSPLINE, 2)
        seen = []
        build = biascorrect.lead_rows

        def counting(kind, pts, cells, q=None):
            seen.append(pts.shape)
            return build(kind, pts, cells, q)

        monkeypatch.setattr(biascorrect, "lead_rows", counting)
        got = dpi_select(X, y, BasisFamily.BSPLINE, 2)
        assert seen == [X.shape]
        assert got.bias_constant == want.bias_constant
        assert got.variance_constant == want.variance_constant


class TestImseComponents:
    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    def test_sample_route_equals_point_set_route(self, family):
        # grid=None at q = 0 reads the fit's own rows and lead; passing the
        # sample as a grid evaluates them afresh: the same numbers, bit for bit
        rng = np.random.default_rng(47)
        X = rng.random((600, 2))
        y = np.sin(3 * X.sum(axis=1)) + 0.3 * rng.standard_normal(600)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * 2, 3)
        fit = fit_estimator(EstimatorKind.default(family, 2, part), X, y)
        cached = imse_components(fit)
        assert imse_components(fit, q=(0, 0)) == cached
        assert imse_components(fit, grid=X.copy()) == cached

    def test_keys_and_signs(self):
        X, y = _curve_sample(500, seed=23)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 4)
        kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part)
        fit = fit_estimator(kind, X, y)
        out = imse_components(fit)
        assert set(out) == {"V_hat", "B_hat"}
        assert out["V_hat"] > 0
        assert out["B_hat"] >= 0

    def test_grid_mode(self):
        X, y = _curve_sample(500, seed=29)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 4)
        kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part)
        fit = fit_estimator(kind, X, y)
        grid = np.linspace(0.05, 0.95, 50)[:, None]
        out = imse_components(fit, grid=grid)
        assert out["V_hat"] > 0
        assert np.isfinite(out["B_hat"])

    @pytest.mark.parametrize("on_grid", [False, True])
    @pytest.mark.parametrize("deriv", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    def test_trace_matches_dense_oracle(self, family, d, deriv, on_grid):
        rng = np.random.default_rng(100 + d)
        X = rng.random((800, d))
        y = np.sin(3 * X.sum(axis=1)) + 0.3 * rng.standard_normal(800)
        bounds = [[0.0, 1.0]] * d
        part = TensorPartition.build(KnotRule.EVEN, bounds, 3 if d < 3 else 2)
        fit = fit_estimator(EstimatorKind.default(family, 2, part), X, y)
        var = sigma_hat(fit, 0)
        q = (1,) + (0,) * (d - 1) if deriv else None
        grid = make_grid(bounds, 7) if on_grid else None
        pts = X if grid is None else grid
        gamma = fit.gamma_many(pts, q, j=0)
        ref = np.mean(quadratic_form(gamma, var.sigma_mat))
        got = imse_components(fit, grid=grid, q=q)["V_hat"]
        assert got == pytest.approx(ref, rel=1e-10)


class TestDerivativeIndex:
    """A derivative index of the wrong length or with a negative entry is
    ``UnsupportedDerivative`` (exit 2) from every selector entry point."""

    def _sample(self):
        rng = np.random.default_rng(7)
        X = rng.random((400, 2))
        return X, np.sin(3 * X[:, 0]) + X[:, 1] + 0.1 * rng.standard_normal(400)

    @pytest.mark.parametrize("q", [(1,), (0, 0, 0), (-1, 0), (0, -1)])
    @pytest.mark.parametrize("select", [rot_select, dpi_select])
    def test_selectors_reject(self, select, q):
        X, y = self._sample()
        with pytest.raises(UnsupportedDerivative):
            select(X, y, BasisFamily.BSPLINE, 2, q=q)

    def test_eta_constant_rejects_short_q(self):
        with pytest.raises(UnsupportedDerivative):
            eta_constant("pp", 2, (1, 1), (2, 0), (0,))

    @pytest.mark.parametrize("u1,u2", [((2.5,), (2,)), ((2,), (2.5,))])
    def test_eta_constant_rejects_fractional_index(self, u1, u2):
        # not truncated to the value for (2,)
        with pytest.raises(UnsupportedDerivative):
            eta_constant("bspline", 2, u1, u2)
