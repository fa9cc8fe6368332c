"""Least-squares machinery and the four estimator variants.

The bias-corrected variants have closed-form reference implementations on
small instances (two-stage refit for j=2, explicit plug-in for j=3); the
tests compare the production paths against those.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lspart.fit as fit_module
import lspart.inference as inference_module
from lspart.basis import BasisFamily, BasisSpec, SparseRows
from lspart.cli import main
from lspart.dgp import dgp_sample
from lspart.errors import (
    ConfigError,
    DataError,
    DegenerateData,
    NumericalError,
    RankDeficient,
    UnsupportedDerivative,
    UnsupportedFamily,
)
from lspart.fit import (
    BandedCholesky,
    EstimatorKind,
    _stacked_ginv,
    cross_gram,
    fit_estimator,
    gram_banded,
    stack_designs,
)
from lspart.harness import RunConfig, run_fit
from lspart.inference import (
    HCKind,
    band_bootstrap,
    band_plugin,
    make_grid,
    pointwise_ci,
    sigma_hat,
)
from lspart.partition import KnotRule, TensorPartition
from lspart.tuning import dpi_select, rot_select


def _fit_1d(y_fn, n=300, kappa=4, m=2, m_tilde=None, family=BasisFamily.BSPLINE,
            seed=0, noise=0.0, rule=KnotRule.EVEN):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 1))
    y = y_fn(X[:, 0]) + noise * rng.standard_normal(n)
    part = TensorPartition.build(rule, [[0.0, 1.0]], kappa, data=X)
    kind = EstimatorKind.default(family, m, part, m_tilde)
    return fit_estimator(kind, X, y), X, y


class TestGram:
    def test_gram_matches_dense(self):
        fit, X, y = _fit_1d(np.sin, kappa=5, m=3)
        D = fit.design_main.dense()
        assert_allclose(fit.gram_main.Q, D.T @ D / fit.n, atol=1e-13)

    def test_cross_matches_dense(self):
        fit, X, y = _fit_1d(np.sin, kappa=5, m=2)
        Da = fit.design_main.dense()
        Db = fit.design_bc.dense()
        assert_allclose(fit._cross_for(2), Da.T @ Db / fit.n, atol=1e-13)

    def test_weighted_gram(self):
        fit, X, y = _fit_1d(np.cos, kappa=3, m=2)
        w = np.random.default_rng(1).random(fit.n)
        Q = gram_banded(fit.design_main, row_weights=w)
        D = fit.design_main.dense()
        assert_allclose(Q, D.T @ (w[:, None] * D) / fit.n, atol=1e-13)

    def test_solve_and_matvec(self):
        fit, _, _ = _fit_1d(np.sin, kappa=6, m=3)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(fit.gram_main.K)
        x = fit.gram_main.solve(b)
        assert_allclose(fit.gram_main.Q @ x, b, atol=1e-11)

    def test_rank_deficient_raises(self):
        # data concentrated in one cell leaves others empty
        X = np.full((30, 1), 0.11) + np.linspace(0, 0.01, 30)[:, None]
        y = np.ones(30)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 6)
        kind = EstimatorKind(BasisSpec(BasisFamily.BSPLINE, 2, part))
        with pytest.raises(RankDeficient):
            fit_estimator(kind, X, y)


def _rank_deficient_sample(d, route, n=3000, seed=0, shift=0.0):
    """Sample on [0, 1]^d whose centre cell of a kappa = 3 partition (or,
    with ``shift`` = -1/3 or 1/3, its first or last corner cell) is empty
    (``route="empty"``) or holds points whose first coordinate varies by only
    1e-6 (``route="near"``, 100 points) or 3e-5 (``route="sliver"``, 60
    points): the cell's order-2 piecewise-polynomial block is then zero,
    positive definite with one pivot below 1e-11 relative, or just above the
    pivot test (about 5e-10 relative at d = 3).
    """
    rng = np.random.default_rng([seed, d])
    X = rng.random((n, d))
    X = X[~np.all((X > 0.3 + shift) & (X < 0.7 + shift), axis=1)]
    if route != "empty":
        size, width = (100, 1e-6) if route == "near" else (60, 3e-5)
        cell = 0.36 + shift + 0.28 * rng.random((size, d))
        cell[:, 0] = 0.5 + shift + width * rng.random(size)
        X = np.vstack([X, cell])
    y = np.sin(3 * X[:, 0]) + 0.1 * rng.standard_normal(X.shape[0])
    return X, y


def _record_pivots(monkeypatch):
    """Spy on the Gram inverse: a list that collects, for each leaf it
    checks, the squared Cholesky pivots relative to the mean diagonal of the
    whole Gram, so that the pivot test reads ``< _PIVOT_REL_TOL``."""
    pivots = []
    spd_inverse = fit_module._spd_inverse

    def record(Q, floor):
        if Q.shape[0] <= fit_module._INV_LEAF:
            mean_diag = floor / fit_module._PIVOT_REL_TOL
            pivots.append(np.diagonal(np.linalg.cholesky(Q)) ** 2 / mean_diag)
        return spd_inverse(Q, floor)

    monkeypatch.setattr(fit_module, "_spd_inverse", record)
    return pivots


class TestRankDeficientRoutes:
    @staticmethod
    def _fit(d, route, seed=0, shift=0.0):
        X, y = _rank_deficient_sample(d, route, seed=seed, shift=shift)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * d, 3)
        return fit_estimator(EstimatorKind(BasisSpec(BasisFamily.PP, 2, part)), X, y)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_cell_maps_factor_error(self, d):
        with pytest.raises(RankDeficient, match="not positive definite") as info:
            self._fit(d, "empty")
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_near_empty_cell_fails_pivot_test(self, d, monkeypatch):
        pivots = _record_pivots(monkeypatch)
        with pytest.raises(RankDeficient, match="numerically rank deficient") as info:
            self._fit(d, "near")
        assert info.value.__cause__ is None
        assert 0.0 < np.min(np.concatenate(pivots)) < fit_module._PIVOT_REL_TOL

    @pytest.mark.parametrize("shift,leaves", [(-1 / 3, 1), (1 / 3, 2)],
                             ids=["first-half", "second-half"])
    def test_near_empty_cell_on_either_side_of_split(self, shift, leaves, monkeypatch):
        # d = 3, K = 108: the recursion splits at h = 54, and the first and
        # last corner cells (functions 0..3 and 104..107) lie in A and in S,
        # so the first or the second leaf fails the pivot test
        pivots = _record_pivots(monkeypatch)
        with pytest.raises(RankDeficient, match="numerically rank deficient") as info:
            self._fit(3, "near", shift=shift)
        assert info.value.__cause__ is None
        assert len(pivots) == leaves
        assert all(np.min(p) >= fit_module._PIVOT_REL_TOL for p in pivots[:-1])
        assert 0.0 < np.min(pivots[-1]) < fit_module._PIVOT_REL_TOL

    def test_sliver_cell_fits_to_roundoff(self, monkeypatch):
        # a Gram just above the pivot test: the inverse alone leaves a
        # normal-equation gap near 3e-9 here, over the 1e-10 check; the
        # refinement step in FitResult._solve brings it to roundoff
        pivots = _record_pivots(monkeypatch)
        fit = self._fit(3, "sliver", seed=1)
        assert fit_module._PIVOT_REL_TOL < np.min(np.concatenate(pivots)) < 1e-9
        gap = np.max(np.abs(fit.gram_main.Q @ fit.beta_main - fit.rhs_main))
        assert gap <= 1e-14

    @pytest.mark.parametrize("route", ["empty", "near"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cli_exits_4(self, d, route, tmp_path, capsys):
        X, y = _rank_deficient_sample(d, route)
        path = tmp_path / "data.csv"
        header = ",".join([f"x{k + 1}" for k in range(d)] + ["y"])
        np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g",
                   header=header, comments="")
        code = main(["fit", "--data", str(path), "--family", "pp", "--kappa", "3",
                     "--j", "0", "--hc", "hc2"])
        assert code == 4
        want = {"empty": "not positive definite", "near": "numerically rank deficient"}
        assert want[route] in capsys.readouterr().err


def _model6_fit(n=10_000, seed=0):
    # the d = 3 benchmark fit: B-spline m = 2 at kappa = 5, K_0 = 216, K_1 = 343
    X, y = dgp_sample(6, n, seed)
    part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * 3, 5)
    return fit_estimator(EstimatorKind.default(BasisFamily.BSPLINE, 2, part), X, y)


class TestGramInverse:
    @pytest.mark.parametrize("family,m,d,kappa", [
        (BasisFamily.BSPLINE, 2, 1, 10),   # K = 11
        (BasisFamily.BSPLINE, 2, 1, 95),   # K = 96, the largest leaf
        (BasisFamily.PP, 2, 1, 48),        # K = 96
        (BasisFamily.BSPLINE, 2, 2, 7),    # K = 64
        (BasisFamily.BSPLINE, 3, 2, 7),    # K = 81
        (BasisFamily.BSPLINE, 2, 3, 3),    # K = 64
    ])
    def test_leaf_keeps_lapack_inverse_bits(self, family, m, d, kappa):
        rng = np.random.default_rng([kappa, d])
        X = rng.random((4000, d))
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * d, kappa)
        Q = gram_banded(BasisSpec(family, m, part).eval_many(X))
        assert Q.shape[0] <= fit_module._INV_LEAF
        assert np.array_equal(BandedCholesky(Q).inv, np.linalg.inv(Q))

    def test_recursive_inverse_matches_lapack(self):
        fit = _model6_fit()
        fine = _fine_fit(BasisFamily.BSPLINE, 2, 3, 1, 150, 20000)
        for gram in (fit.gram_main, fit.gram_bc, fine.gram_main):
            assert gram.K > fit_module._INV_LEAF
            ref = np.linalg.inv(gram.Q)
            rel = np.max(np.abs(gram.inv - ref)) / np.max(np.abs(ref))
            residual = np.max(np.abs(gram.Q @ gram.inv - np.eye(gram.K)))
            assert rel <= 1e-12, (gram.K, rel)
            assert residual <= 1e-12, (gram.K, residual)
        assert (fit.gram_main.K, fit.gram_bc.K, fine.gram_main.K) == (216, 343, 151)

    def test_recursive_inverse_residual_on_ill_conditioned_gram(self):
        # the order-4 companion Gram at d = 3: K = 125, cond 3.3e4. T = A^-1 B
        # comes from an explicit inverse, so the largest entry of Q X - I,
        # 2.5e-12 here, grows with cond(A) cond(S), about 20 times LAPACK's
        gram = _fit_nd(3, BasisFamily.BSPLINE, m=3).gram_bc
        assert gram.K == 125 > fit_module._INV_LEAF
        residual = np.max(np.abs(gram.Q @ gram.inv - np.eye(gram.K)))
        assert residual <= 1e-11

    def test_lapack_inverse_no_larger_than_leaf(self, monkeypatch):
        # the d = 3 benchmark fit: LAPACK inverts only the recursion's leaves
        shapes = []
        inv = np.linalg.inv

        def record(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return inv(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", record)
        fit = _model6_fit(n=3000)
        for j in (0, 2):
            sigma_hat(fit, j, HCKind.HC2)
        leaf = fit_module._INV_LEAF
        assert shapes and all(a == b <= leaf for a, b in shapes)
        assert max(a for a, _ in shapes) > leaf // 2


class TestNormalEquations:
    def test_main_and_bc(self):
        fit, _, _ = _fit_1d(np.sin, noise=0.3, kappa=5, m=2)
        D = fit.design_main.dense()
        Q = D.T @ D / fit.n
        assert_allclose(Q @ fit.beta_main, fit.rhs_main, atol=1e-12)
        Db = fit.design_bc.dense()
        Qb = Db.T @ Db / fit.n
        assert_allclose(Qb @ fit.beta_bc, fit.rhs_bc, atol=1e-12)


class TestKindValidation:
    def test_m_tilde_must_exceed_m(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 3)
        with pytest.raises(ConfigError):
            EstimatorKind.default(BasisFamily.BSPLINE, 2, part, m_tilde=2)

    def test_j_needs_bc_basis(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 3)
        kind = EstimatorKind(BasisSpec(BasisFamily.BSPLINE, 2, part))
        with pytest.raises(ConfigError):
            kind.require_j(2)

    def test_haar_plugin_rejected(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 3)
        kind = EstimatorKind(BasisSpec(BasisFamily.HAAR, 1, part), 2)
        with pytest.raises(UnsupportedFamily):
            kind.require_j(3)


class TestTrivialFits:
    def test_constant_y_all_j(self):
        fit, _, _ = _fit_1d(lambda x: np.full_like(x, 3.25), kappa=3)
        pts = [[0.2], [0.5], [0.9]]
        for j in (0, 1, 2, 3):
            assert_allclose(fit.estimate_many(pts, j=j), 3.25, atol=1e-10)

    def test_haar_fits_cell_means(self):
        rng = np.random.default_rng(4)
        X = rng.random((200, 1))
        y = rng.standard_normal(200)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 4)
        kind = EstimatorKind(BasisSpec(BasisFamily.HAAR, 1, part))
        fit = fit_estimator(kind, X, y)
        for c in range(4):
            mask = (X[:, 0] >= c / 4) & (X[:, 0] < (c + 1) / 4)
            want = y[mask].mean()
            got = fit.estimate([[c / 4 + 0.1]], j=0)
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    def test_polynomial_reproduced(self, family):
        fit, X, _ = _fit_1d(lambda x: 1.0 - 2.0 * x, m=2, family=family)
        pts = np.linspace(0.03, 0.97, 9)[:, None]
        assert_allclose(fit.estimate_many(pts, j=0), 1.0 - 2.0 * pts[:, 0], atol=1e-11)
        assert_allclose(fit.estimate_many(pts, q=[1], j=0), -2.0, atol=1e-10)


class TestJ1:
    def test_equals_direct_higher_order_fit(self):
        fit, X, y = _fit_1d(np.sin, noise=0.2, kappa=4, m=2, m_tilde=4)
        direct_kind = EstimatorKind(
            BasisSpec(BasisFamily.BSPLINE, 4, fit.kind.main_spec.partition)
        )
        direct = fit_estimator(direct_kind, X, y)
        pts = np.linspace(0.05, 0.95, 7)[:, None]
        assert_allclose(
            fit.estimate_many(pts, j=1),
            direct.estimate_many(pts, j=0),
            atol=1e-12,
        )


class TestJ2:
    def _two_stage_oracle(self, fit, pts, q=None):
        # refit-and-correct form: gamma_0' E_n[p (y - mu1)] + d^q mu1
        resid1 = fit.y - fit.design_bc.row_dot(fit.beta_bc)
        t = fit.design_main.accumulate(resid1) / fit.n
        coef = fit.gram_main.solve(t)
        main_q = fit.kind.main_spec.eval_many(pts, q)
        bc_q = fit.kind.bc_spec.eval_many(pts, q)
        return main_q.row_dot(coef) + bc_q.row_dot(fit.beta_bc)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_two_stage(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(80, 200))
        kappa = int(rng.integers(2, 5))
        fit, _, _ = _fit_1d(np.sin, n=n, kappa=kappa, noise=0.5, seed=seed)
        pts = rng.random((15, 1))
        assert_allclose(
            fit.estimate_many(pts, j=2),
            self._two_stage_oracle(fit, pts),
            atol=1e-10,
        )

    def test_matches_two_stage_derivative(self):
        fit, _, _ = _fit_1d(np.sin, kappa=4, m=3, noise=0.3, seed=11)
        pts = np.random.default_rng(3).random((10, 1))
        assert_allclose(
            fit.estimate_many(pts, q=[1], j=2),
            self._two_stage_oracle(fit, pts, q=(1,)),
            atol=1e-9,
        )

    def test_pp_nested_equals_j1(self):
        # piecewise polynomials nest across orders on a shared partition,
        # so the projection correction vanishes identically
        for rule in (KnotRule.EVEN, KnotRule.QUANTILE):
            fit, _, _ = _fit_1d(
                np.sin, family=BasisFamily.PP, noise=0.4, rule=rule, seed=7
            )
            pts = np.linspace(0.02, 0.98, 21)[:, None]
            assert_allclose(
                fit.estimate_many(pts, j=2),
                fit.estimate_many(pts, j=1),
                atol=1e-8,
            )

    def test_bspline_not_nested(self):
        fit, _, _ = _fit_1d(np.sin, noise=0.4, seed=9)
        pts = np.linspace(0.02, 0.98, 21)[:, None]
        gap = np.max(np.abs(fit.estimate_many(pts, j=2) - fit.estimate_many(pts, j=1)))
        assert gap > 1e-6


_CUBIC = {  # total degree 3, as {exponents: coefficient}
    1: {(3,): 1.0, (2,): -0.5, (0,): 0.25},
    2: {(3, 0): 1.0, (2, 1): -2.0, (1, 2): 0.5, (0, 3): 0.75, (1, 1): 1.0, (0, 0): 0.25},
}


def _poly(coef, X, q):
    """d^q of the polynomial sum_a coef[a] x^a at the rows of X."""
    out = np.zeros(X.shape[0])
    for a, c in coef.items():
        scale = c * math.prod(map(math.perm, a, q))
        if scale:
            out += scale * np.prod(X ** np.subtract(a, q), axis=1)
    return out


def _derivs(d, m):
    """Every derivative order q with [q] < m."""
    return [q for q in itertools.product(range(m), repeat=d) if sum(q) < m]


class TestJ3:
    @pytest.mark.parametrize(
        "family,rule",
        [
            (BasisFamily.BSPLINE, KnotRule.EVEN),
            (BasisFamily.PP, KnotRule.EVEN),
            (BasisFamily.PP, KnotRule.QUANTILE),
        ],
    )
    def test_quadratic_recovered_exactly(self, family, rule):
        # with m=2 the plug-in correction removes the entire approximation
        # error of a noiseless quadratic (its Taylor expansion is exact and
        # the corrected function lies in the span)
        fit, _, _ = _fit_1d(lambda x: x**2, m=2, family=family, rule=rule, seed=5)
        pts = np.linspace(0.04, 0.96, 17)[:, None]
        assert_allclose(fit.estimate_many(pts, j=3), pts[:, 0] ** 2, atol=1e-10)
        assert_allclose(
            fit.estimate_many(pts, q=[1], j=3), 2.0 * pts[:, 0], atol=1e-9
        )

    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    @pytest.mark.parametrize("d", [1, 2])
    def test_cubic_reproduced_at_every_derivative(self, family, d):
        # a noise-free y of degree m = 3: the order-4 fit recovers it, and the
        # lead at q is the q-th derivative of the level's lead, so j = 3
        # returns d^q y exactly at every q with [q] < m
        coef = _CUBIC[d]
        rng = np.random.default_rng([d, 3])
        X = rng.random((900, d))
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * d, 3)
        kind = EstimatorKind.default(family, 3, part)
        fit = fit_estimator(kind, X, _poly(coef, X, (0,) * d))
        pts = rng.random((9, d))
        for q in _derivs(d, 3):
            assert_allclose(fit.estimate_many(pts, q, j=3), _poly(coef, pts, q),
                            rtol=0, atol=1e-8, err_msg=str(q))

    def test_uncorrected_quadratic_biased(self):
        fit, _, _ = _fit_1d(lambda x: x**2, m=2, kappa=4, seed=5)
        mid = fit.estimate([[0.125]], j=0)  # cell midpoint
        assert abs(mid - 0.125**2) > 1e-4

    def test_explicit_plugin_oracle(self):
        fit, _, _ = _fit_1d(np.sin, noise=0.3, kappa=4, seed=13)
        pts = np.random.default_rng(1).random((12, 1))
        from lspart.biascorrect import leading_bias_many, projected_bias_term_many

        ref = (
            fit.estimate_many(pts, j=0)
            - leading_bias_many(fit, pts)
            + projected_bias_term_many(fit, pts)
        )
        assert_allclose(fit.estimate_many(pts, j=3), ref, atol=1e-11)


class TestGammaIdentity:
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_estimate_equals_gamma_dot_rhs(self, j):
        fit, _, _ = _fit_1d(np.sin, noise=0.4, kappa=4, m=2, seed=17)
        pts = np.random.default_rng(2).random((9, 1))
        gamma = fit.gamma_many(pts, j=j)
        assert gamma.shape[1] == fit.design_for(j).K
        assert_allclose(
            gamma @ fit.rhs_for(j), fit.estimate_many(pts, j=j), atol=1e-10
        )

    @pytest.mark.parametrize("j", [0, 2, 3])
    def test_derivative_gamma_identity(self, j):
        fit, _, _ = _fit_1d(np.sin, noise=0.2, kappa=3, m=3, seed=19)
        pts = np.random.default_rng(4).random((6, 1))
        gamma = fit.gamma_many(pts, q=[1], j=j)
        assert_allclose(
            gamma @ fit.rhs_for(j),
            fit.estimate_many(pts, q=[1], j=j),
            atol=1e-9,
        )

    def test_fitted_matches_estimate_at_sample(self):
        fit, X, _ = _fit_1d(np.sin, noise=0.4, kappa=4, seed=23)
        for j in (0, 1, 2, 3):
            assert_allclose(
                fit.fitted(j), fit.estimate_many(X, j=j), atol=1e-10
            )


class TestStackAndLeverage:
    def test_stacked_design_layout(self):
        fit, _, _ = _fit_1d(np.sin, kappa=3)
        stacked = stack_designs(fit.design_main, fit.design_bc)
        D = stacked.dense()
        assert_allclose(D[:, : fit.design_main.K], fit.design_main.dense())
        assert_allclose(D[:, fit.design_main.K :], fit.design_bc.dense())

    def test_leverage_oracle_j0(self):
        fit, _, _ = _fit_1d(np.sin, n=120, kappa=3, seed=29)
        D = fit.design_main.dense()
        H = D @ np.linalg.solve(D.T @ D, D.T)
        assert_allclose(fit.leverage(0), np.diag(H), atol=1e-10)
        assert np.sum(fit.leverage(0)) == pytest.approx(fit.design_main.K, abs=1e-8)

    def test_leverage_oracle_stacked(self):
        fit, _, _ = _fit_1d(np.sin, n=120, kappa=3, seed=31)
        D = fit.design_for(2).dense()
        H = D @ np.linalg.pinv(D)
        assert_allclose(fit.leverage(2), np.diag(H), atol=1e-8)


def _fit_nd(d, family=BasisFamily.BSPLINE, rule=KnotRule.EVEN, seed=0, m=2):
    n, kappa = {1: (200, 4), 2: (700, 3), 3: (1500, 2)}[d]
    rng = np.random.default_rng([seed, d])
    X = rng.random((n, d))
    y = np.sin(3 * X[:, 0]) * np.cos(X[:, -1]) + 0.3 * rng.standard_normal(n)
    part = TensorPartition.build(rule, [[0.0, 1.0]] * d, kappa, data=X)
    kind = EstimatorKind.default(family, m, part)
    return fit_estimator(kind, X, y)


def _rank(fit, j):
    # rank of Pi_j: the stacked basis of j >= 2 loses kind.null_dim
    if j <= 1:
        return fit.design_for(j).K
    return fit.design_main.K + fit.design_bc.K - fit.kind.null_dim


def _hat_diagonal(D, rank):
    # diag of D (D'D)^+ D' from the leading ``rank`` left singular vectors
    U = np.linalg.svd(D, full_matrices=False)[0]
    return np.sum(U[:, :rank] ** 2, axis=1)


def _fine_fit(family, m, m_tilde, d, kappa, n):
    rng = np.random.default_rng([n, d])
    X = rng.random((n, d))
    y = np.sin(3 * X[:, 0]) + 0.3 * rng.standard_normal(n)
    part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * d, kappa)
    return fit_estimator(EstimatorKind.default(family, m, part, m_tilde), X, y)


class TestLeverageRoute:
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rule", [KnotRule.EVEN, KnotRule.QUANTILE])
    def test_matches_dense_hat_diagonal(self, j, family, d, rule):
        fit = _fit_nd(d, family, rule)
        oracle = _hat_diagonal(fit.design_for(j).dense(), _rank(fit, j))
        assert_allclose(fit.leverage(j), oracle, atol=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family,m", [
        (BasisFamily.BSPLINE, 2), (BasisFamily.BSPLINE, 3),
        (BasisFamily.PP, 2), (BasisFamily.HAAR, 1),
    ])
    def test_dropped_eigenvalues_are_structural(self, family, m, d):
        # B-splines: the spans meet in the polynomials of degree < m, m^d of
        # them; PP -> PP and Haar -> PP: the main span lies in the other
        fit = _fit_nd(d, family, m=m)
        r = _rank(fit, 2)
        assert np.sum(fit.leverage(2)) == pytest.approx(r, abs=1e-8)
        assert_allclose(fit.leverage(2), _hat_diagonal(fit.design_for(2).dense(), r),
                        atol=1e-9)

    @pytest.mark.parametrize("family,m,m_tilde,d,kappa,n", [
        (BasisFamily.BSPLINE, 2, 3, 1, 16, 1000),
        (BasisFamily.BSPLINE, 2, 3, 2, 10, 4000),
        (BasisFamily.BSPLINE, 2, 3, 3, 6, 8000),
        (BasisFamily.BSPLINE, 3, 4, 2, 6, 3000),
        (BasisFamily.PP, 2, 3, 1, 16, 1000),
        (BasisFamily.PP, 2, 3, 2, 6, 3000),
        (BasisFamily.HAAR, 1, 2, 1, 16, 1000),
        (BasisFamily.HAAR, 1, 2, 2, 10, 4000),
        # fine partitions: the smallest real eigenvalue of the Schur
        # complement falls like a power of kappa
        (BasisFamily.BSPLINE, 3, 4, 1, 40, 4000),
        (BasisFamily.BSPLINE, 3, 4, 1, 60, 6000),
        (BasisFamily.BSPLINE, 2, 3, 1, 150, 20000),
        (BasisFamily.BSPLINE, 3, 5, 1, 40, 4000),
    ])
    def test_dropped_count_pins_the_rank(self, family, m, m_tilde, d, kappa, n):
        # the leverage sums to the stacked rank and is the rank-r hat
        # diagonal, so the count of dropped directions is exactly null_dim
        fit = _fine_fit(family, m, m_tilde, d, kappa, n)
        r = _rank(fit, 2)
        lev = fit.leverage(2)
        assert np.sum(lev) == pytest.approx(r, abs=1e-5)
        assert_allclose(lev, _hat_diagonal(fit.design_for(2).dense(), r), atol=1e-7)

    @pytest.mark.parametrize("family", [BasisFamily.PP, BasisFamily.HAAR])
    @pytest.mark.parametrize("d", [1, 2])
    def test_nested_kinds_leverage_is_j1(self, family, d):
        # span(main) lies inside span(bc): j >= 2 read j = 1's design
        fit = _fit_nd(d, family, m=1 if family is BasisFamily.HAAR else 2)
        assert fit.kind.null_dim == fit.design_main.K
        assert_allclose(fit.leverage(2), fit.leverage(1), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_wrong_null_count_raises(self, shift):
        # one too few leaves a roundoff eigenvalue kept; one too many drops
        # a real one, which at coarse kappa is far above sqrt(eps)
        fit = _fit_nd(1, m=3)
        args = (fit.gram_main, fit.gram_bc, fit._cross_for(2))
        _stacked_ginv(*args, fit.kind.null_dim)
        with pytest.raises(NumericalError):
            _stacked_ginv(*args, fit.kind.null_dim + shift)

    def test_eigh_no_larger_than_main_basis(self, monkeypatch):
        fit = _fit_nd(2)
        shapes = []
        eigh = np.linalg.eigh

        def record(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", record)
        for j in (2, 3):
            fit.leverage(j)
        k0 = fit.design_main.K
        assert shapes and all(s == (k0, k0) for s in shapes)

    def test_stacked_inverse_built_once_per_fit(self, monkeypatch, tmp_path):
        # j = 2 and j = 3 share one stacked design and so one leverage
        calls = []

        def record(*args):
            calls.append(args)
            return _stacked_ginv(*args)

        monkeypatch.setattr(fit_module, "_stacked_ginv", record)
        path = tmp_path / "data.csv"
        np.savetxt(path, np.random.default_rng(5).random((400, 2)), delimiter=",",
                   fmt="%.17g", header="x1,y", comments="")
        run_fit(RunConfig(mode="fit", data_path=str(path), kappa=4,
                          j_set=(0, 1, 2, 3), hc_kind="hc2"))
        assert len(calls) == 1
        fit = _fit_nd(2)
        assert np.array_equal(fit.leverage(2), fit.leverage(3))
        assert len(calls) == 2

    def test_never_densifies(self, monkeypatch):
        fit = _fit_nd(2)

        def refuse(*args, **kwargs):
            raise AssertionError("dense route called")

        monkeypatch.setattr(SparseRows, "dense", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        for j in (0, 1, 2, 3):
            assert np.all(np.isfinite(fit.leverage(j)))
            for hc in (HCKind.HC2, HCKind.HC3):
                assert np.all(sigma_hat(fit, j, hc).weights > 1.0)

    def test_memory_stays_below_dense_design(self):
        rng = np.random.default_rng(7)
        n = 20_000
        X = rng.random((n, 2))
        y = np.sin(3 * X[:, 0]) * X[:, 1] + 0.3 * rng.standard_normal(n)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * 2, 10)
        fit = fit_estimator(EstimatorKind.default(BasisFamily.BSPLINE, 2, part), X, y)
        dense_bytes = n * fit.design_for(2).K * 8
        tracemalloc.start()
        try:
            fit.leverage(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4


def _nested_fit(family, d, m, m_tilde, seed=0):
    # PP and Haar nest on any partition, a B-spline on one cell only
    kappa = 1 if family is BasisFamily.BSPLINE else {1: 4, 2: 3}[d]
    n = {1: 300, 2: 900}[d]
    rng = np.random.default_rng([seed, d, m])
    X = rng.random((n, d))
    y = np.sin(3 * X[:, 0]) * np.cos(2 * X[:, -1]) + 0.3 * rng.standard_normal(n)
    part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * d, kappa)
    return fit_estimator(EstimatorKind.default(family, m, part, m_tilde), X, y)


_NESTED = [(BasisFamily.PP, 3), (BasisFamily.HAAR, 1), (BasisFamily.BSPLINE, 3)]


class TestNestedKinds:
    """PP, Haar and a one-cell B-spline: the main span lies inside the
    companion's, so every j >= 1 reads the companion design alone."""

    def test_nested_is_decided_by_the_spans(self):
        assert _nested_fit(BasisFamily.BSPLINE, 2, 2, 3).kind.nested
        assert not _fit_nd(1).kind.nested
        assert _fit_nd(1, BasisFamily.PP).kind.nested

    @pytest.mark.parametrize("family,m", _NESTED)
    @pytest.mark.parametrize("d", [1, 2])
    def test_j2_is_j1(self, family, m, d):
        fit = _nested_fit(family, d, m, m + 1)
        assert fit.kind.nested
        assert fit.design_for(2) is fit.design_bc
        assert np.array_equal(fit.rhs_for(2), fit.rhs_for(1))
        assert np.array_equal(fit.leverage(2), fit.leverage(1))
        var1, var2 = sigma_hat(fit, 1, HCKind.HC2), sigma_hat(fit, 2, HCKind.HC2)
        pts = np.random.default_rng(d).random((9, d))
        for q in _derivs(d, m):
            assert np.array_equal(fit.gamma_many(pts, q, 2), fit.gamma_many(pts, q, 1))
            assert_allclose(fit.estimate_many(pts, q, 2), fit.estimate_many(pts, q, 1),
                            rtol=1e-10, atol=1e-12)
            assert_allclose(var2.omega_many(pts, q), var1.omega_many(pts, q), rtol=1e-10)

    @pytest.mark.parametrize("family,d", [
        (BasisFamily.PP, 1), (BasisFamily.PP, 2), (BasisFamily.BSPLINE, 1),
    ])
    def test_j3_is_j1_one_order_up(self, family, d):
        # at mtilde = m + 1 the plug-in lead is the order-mtilde fit's whole
        # error, at every q. (A one-cell B-spline at d = 2 is left out: its
        # lead covers only the axis terms u = m e_l, not the mixed ones.)
        fit = _nested_fit(family, d, 3, 4)
        assert fit.design_for(3) is fit.design_bc
        assert np.array_equal(fit.leverage(3), fit.leverage(1))
        var1, var3 = sigma_hat(fit, 1, HCKind.HC2), sigma_hat(fit, 3, HCKind.HC2)
        pts = np.random.default_rng(d).random((9, d))
        for q in _derivs(d, 3):
            gamma1 = fit.gamma_many(pts, q, 1)
            assert_allclose(fit.gamma_many(pts, q, 3), gamma1, rtol=0,
                            atol=1e-10 * np.max(np.abs(gamma1)), err_msg=str(q))
            assert_allclose(fit.estimate_many(pts, q, 3), fit.estimate_many(pts, q, 1),
                            rtol=1e-10, atol=1e-12, err_msg=str(q))
            assert_allclose(var3.omega_many(pts, q), var1.omega_many(pts, q), rtol=1e-9)

    @pytest.mark.parametrize("family", [BasisFamily.PP, BasisFamily.BSPLINE])
    @pytest.mark.parametrize("d", [1, 2])
    def test_j3_weights_match_stacked_oracle(self, family, d):
        # at mtilde = m + 2, j = 3 is an estimator of its own; its weights on
        # the companion design are the stacked weights on [p, ptilde]
        m = 2
        fit = _nested_fit(family, d, m, m + 2)
        Dm, Db = fit.design_main.dense(), fit.design_bc.dense()
        C3 = Dm.T @ fit.at(fit.X).lead.dense() / fit.n
        pts = np.random.default_rng(d).random((9, d))
        for q in _derivs(d, m):
            gamma0 = np.linalg.solve(fit.gram_main.Q, fit.at(pts, q).main.dense().T).T
            rhs = fit.at(pts, q).lead.dense().T - C3.T @ gamma0.T
            gamma_b = np.linalg.solve(fit.gram_bc.Q, rhs).T
            assert_allclose(fit.gamma_many(pts, q, 3) @ Db.T, gamma0 @ Dm.T + gamma_b @ Db.T,
                            rtol=1e-9, atol=1e-9, err_msg=str(q))
        gap = fit.estimate_many(pts, None, 3) - fit.estimate_many(pts, None, 1)
        assert np.max(np.abs(gap)) > 1e-4

    @pytest.mark.parametrize("family,m,d", [
        (BasisFamily.PP, 2, 2), (BasisFamily.HAAR, 1, 2), (BasisFamily.BSPLINE, 2, 1),
    ])
    def test_never_stacks(self, monkeypatch, family, m, d):
        def refuse(*args, **kwargs):
            raise AssertionError("stacked route called")

        widths = []
        exact = inference_module._exact_product

        def record(Z, R):
            widths.append((Z.shape[1], R.shape[1]))
            return exact(Z, R)

        monkeypatch.setattr(fit_module, "stack_designs", refuse)
        monkeypatch.setattr(fit_module, "_stacked_ginv", refuse)
        monkeypatch.setattr(inference_module, "_exact_product", record)
        fit = _nested_fit(family, d, m, m + 1)
        K = fit.design_bc.K
        grid = make_grid([[0.0, 1.0]] * d, 8)
        for j in (2,) if family is BasisFamily.HAAR else (2, 3):
            assert fit.gamma_many(grid, None, j).shape == (grid.shape[0], K)
            assert np.array_equal(sigma_hat(fit, j, HCKind.HC1).weights,
                                  sigma_hat(fit, 1, HCKind.HC1).weights)
            for hc in HCKind:
                var = sigma_hat(fit, j, hc)
                assert var.sigma_mat.shape == (K, K)
                pointwise_ci(fit, var, grid[:3])
                band_plugin(fit, var, grid, draws=100)
                band_bootstrap(fit, var, grid, draws=100)
        assert widths and set(widths) == {(K, K)}


class TestAccumulatorOracles:
    @pytest.mark.parametrize("d", [2, 3])
    def test_weighted_products_match_dense(self, d):
        fit = _fit_nd(d, seed=3)
        w = np.random.default_rng(d).random(fit.n)
        Da = fit.design_main.dense()
        Db = fit.design_bc.dense()
        assert_allclose(
            cross_gram(fit.design_main, fit.design_bc, row_weights=w),
            Da.T @ (w[:, None] * Db) / fit.n,
            atol=1e-13,
        )
        assert_allclose(
            gram_banded(fit.design_bc, row_weights=w),
            Db.T @ (w[:, None] * Db) / fit.n,
            atol=1e-13,
        )
        for j in (0, 2):
            var = sigma_hat(fit, j, HCKind.HC2)
            D = fit.design_for(j).dense()
            ref = D.T @ (var.wre2[:, None] * D) / fit.n
            assert_allclose(var.sigma_mat, ref, atol=1e-13 * np.max(np.abs(ref)))

    @staticmethod
    def _order3_gram_peak():
        rng = np.random.default_rng(11)
        X = rng.random((20_000, 3))
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * 3, 5)
        design = BasisSpec(BasisFamily.BSPLINE, 3, part).eval_many(X)
        tracemalloc.start()
        try:
            gram_banded(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, design

    def test_gram_memory_per_cell(self):
        # per-cell blocks: scratch is O(n * width + C * width^2), not n * width^2
        peak, _ = self._order3_gram_peak()
        assert peak < 16e6

    def test_gram_gathers_sorted_values_once(self):
        # two sorted (n, width) copies of the values peaked at 12.2 MB
        peak, design = self._order3_gram_peak()
        assert peak <= 12.2e6 - design.n * design.width * 8


class TestCrossGramFunction:
    def test_mismatched_samples(self):
        fit, _, _ = _fit_1d(np.sin, n=50, kappa=2)
        other, _, _ = _fit_1d(np.sin, n=60, kappa=2)
        with pytest.raises(ConfigError):
            cross_gram(fit.design_main, other.design_main)


class TestRowBundle:
    """One row bundle per (fit, point set, q): each basis evaluated once."""

    def test_run_locates_and_evaluates_each_set_once(self, monkeypatch, tmp_path):
        # a d = 2 dpi fit with a plug-in band reads the sample (selector,
        # pilot, final fit), the evaluation points and the grid: every
        # (partition, point set) is located once and every (basis, point
        # set, derivative) evaluated once. The rows live on each fit, so the
        # data are chosen with a pilot size (4) unlike the final one (5).
        from lspart.partition import TensorPartition as Part

        locate, eval_many = Part.locate, BasisSpec.eval_many
        located, evaluated = [], []

        def part_key(part):
            return tuple(k.tobytes() for k in part.knots)

        def count_locate(self, X):
            located.append((part_key(self), np.asarray(X, dtype=float).tobytes()))
            return locate(self, X)

        def count_eval(self, X, deriv=None, cells=None):
            rows = eval_many(self, X, deriv, cells)
            evaluated.append((self.family, self.m, part_key(self.partition),
                              np.atleast_2d(np.asarray(X, dtype=float)).tobytes(),
                              self._check_deriv(deriv)))
            return rows

        monkeypatch.setattr(Part, "locate", count_locate)
        monkeypatch.setattr(BasisSpec, "eval_many", count_eval)
        rng = np.random.default_rng(61)
        X = rng.random((1200, 2))
        y = np.sin(6 * X[:, 0]) * np.cos(4 * X[:, 1]) + 0.3 * rng.standard_normal(1200)
        path = tmp_path / "data.csv"
        np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g",
                   header="x1,x2,y", comments="")
        report = run_fit(RunConfig(mode="fit", data_path=str(path), kappa="dpi",
                                   band_method="plugin", B=200, grid_size=12))
        assert report["selection"]["kappa"] == 5
        assert len(located) == len(set(located)) == 5
        # rot: the sample only (its derivatives are a coefficient map on that
        # design); pilot and final fit: main, bc and 2 lead derivatives at
        # the sample; the final fit: main, bc and 2 lead derivatives at the
        # points and at the grid
        assert len(evaluated) == len(set(evaluated)) == 1 + 4 + 4 + 4 + 4

    def test_mutated_points_get_fresh_rows(self):
        fit = _fit_nd(2)
        pts = np.random.default_rng(3).random((7, 2))
        first = fit.estimate_many(pts, j=3)
        pts[2] = [0.9, 0.1]
        got = fit.estimate_many(pts, j=3)
        assert np.array_equal(got, fit.estimate_many(pts.copy(), j=3))
        fresh = _fit_nd(2)
        assert np.array_equal(got, fresh.estimate_many(pts, j=3))
        assert got[2] != first[2]
        assert np.array_equal(fit.gamma_many(pts, j=2), fresh.gamma_many(pts, j=2))

    def test_cache_is_bounded(self):
        fit = _fit_nd(1)
        rng = np.random.default_rng(9)
        for _ in range(50):
            fit.estimate_many(rng.random((5, 1)), j=2)
        assert 0 < len(fit._bundles) <= fit_module._BUNDLE_CAPACITY

    def test_sample_bundle_is_the_fit_design(self):
        fit = _fit_nd(2)
        bundle = fit.at(fit.X.copy())
        assert bundle is fit.at(fit.X, q=(0, 0))
        assert bundle.main is fit.design_main
        assert bundle.bc is fit.design_bc
        assert np.array_equal(fit.estimate_many(fit.X, j=3), fit.fitted(3))

    def test_gamma_is_a_fresh_array(self):
        fit = _fit_nd(1)
        pts = np.random.default_rng(6).random((4, 1))
        gamma = fit.gamma_many(pts, j=0)
        gamma[:] = 0.0
        assert_allclose(fit.gamma_many(pts, j=0) @ fit.rhs_for(0),
                        fit.estimate_many(pts, j=0), atol=1e-10)


class TestOwnSample:
    def test_caller_arrays_changed_after_the_fit(self):
        # the fit keeps read-only copies: changing X and y in place moves
        # neither its residuals nor anything built from them later
        rng = np.random.default_rng(12)
        X = rng.random((400, 2))
        y = np.sin(3 * X[:, 0]) * X[:, 1] + 0.3 * rng.standard_normal(400)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * 2, 3)
        kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part)
        fit = fit_estimator(kind, X, y)
        ref = fit_estimator(kind, X.copy(), y.copy())
        X[:] = X[::-1]
        y += 1.0
        pts = np.array([[0.3, 0.6], [0.7, 0.2]])
        for j in (0, 2, 3):
            var, var_ref = sigma_hat(fit, j), sigma_hat(ref, j)
            assert np.array_equal(fit.residuals(j), ref.residuals(j))
            assert np.array_equal(var.sigma_mat, var_ref.sigma_mat)
            assert np.array_equal(fit.estimate_many(pts, j=j), ref.estimate_many(pts, j=j))
            got, want = pointwise_ci(fit, var, pts), pointwise_ci(ref, var_ref, pts)
            assert np.array_equal(got.estimates, want.estimates)
            assert np.array_equal(got.se, want.se)
        assert not (fit.X.flags.writeable or fit.y.flags.writeable)


class TestNonFiniteResponse:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["fit", "rot", "dpi"])
    def test_typed_error_names_the_row(self, entry, bad):
        rng = np.random.default_rng(8)
        X = rng.random((400, 1))
        y = np.sin(4 * X[:, 0]) + 0.2 * rng.standard_normal(400)
        y[[17, 40]] = bad
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 3)
        call = {
            "fit": lambda: fit_estimator(
                EstimatorKind.default(BasisFamily.BSPLINE, 2, part), X, y),
            "rot": lambda: rot_select(X, y, BasisFamily.BSPLINE, 2),
            "dpi": lambda: dpi_select(X, y, BasisFamily.BSPLINE, 2),
        }[entry]
        with pytest.raises(DataError, match="row 17"):
            call()


class TestConstantCovariate:
    """A covariate constant inside explicit bounds is named, not blamed on kappa."""

    @pytest.mark.parametrize("kappa", [1, 2, 4])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    def test_named(self, family, m, kappa):
        rng = np.random.default_rng(11)
        X = np.column_stack([rng.random(300), np.full(300, 0.4)])
        y = np.sin(3 * X[:, 0]) + 0.3 * rng.standard_normal(300)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * 2, kappa)
        main = EstimatorKind(BasisSpec(family, m, part))
        if m == 1 and kappa == 1:
            # one constant function along the axis: the fit is well posed
            fit_estimator(main, X, y)
        else:
            with pytest.raises(DegenerateData, match="covariate 2 is constant"):
                fit_estimator(main, X, y)
        # the order-(m + 1) companion always varies along the axis
        with pytest.raises(DegenerateData, match="covariate 2 is constant"):
            fit_estimator(EstimatorKind.default(family, m, part), X, y)


class TestDerivativeIndexAt:
    @pytest.mark.parametrize("q", [(1, 0), (-1,)])
    def test_rejected(self, q):
        fit, _, _ = _fit_1d(lambda x: x, m=2)
        with pytest.raises(UnsupportedDerivative):
            fit.at([[0.5]], q)
        with pytest.raises(UnsupportedDerivative):
            fit.estimate_many([[0.5]], q=q)


class TestEmptySampleLead:
    def test_j3_at_zero_sample_weights(self):
        # every sample point sits where B_3 vanishes (z = 0, 1/2, 1), so the
        # sample's lead rows are empty; the j = 3 pieces still come out finite
        rng = np.random.default_rng(1)
        X = rng.integers(0, 5, size=(10, 1)) / 4
        y = np.sin(3 * X[:, 0]) + 0.3 * rng.standard_normal(10)
        part = TensorPartition.build(KnotRule.QUANTILE, [[0.0, 1.0]], 2, data=X)
        fit = fit_estimator(EstimatorKind.default(BasisFamily.BSPLINE, 3, part), X, y)
        assert fit._sample.lead.width == 0
        cross = cross_gram(fit.design_main, fit._sample.lead)
        assert cross.dtype == float and not np.any(cross)
        res = pointwise_ci(fit, sigma_hat(fit, 3, HCKind.HC0), [[0.25], [0.5], [0.9]])
        assert np.all(np.isfinite(res.estimates)) and np.all(res.se > 0)
