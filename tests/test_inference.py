"""Sandwich variances, pointwise intervals, and uniform bands."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import lspart.inference as inference_module
from lspart.basis import BasisFamily
from lspart.cli import main
from lspart.dgp import dgp_sample
from lspart.errors import (
    ConfigError,
    InvalidGrid,
    LeverageOverflow,
    NonPositiveVariance,
    UnsupportedDerivative,
)
from lspart.fit import EstimatorKind, fit_estimator
from lspart.inference import (
    _DRAW_CHUNK,
    HCKind,
    _exact_product,
    _exact_rows,
    _sup_quantile,
    band_bootstrap,
    band_plugin,
    make_grid,
    normal_quantile,
    pointwise_ci,
    sigma_hat,
)
from lspart.partition import KnotRule, TensorPartition
from oracles import bit_sums_strided, quadratic_forms_whole, symmetrized, weighted_cross_whole


@pytest.fixture(scope="module")
def fit_1d():
    rng = np.random.default_rng(42)
    X = rng.random((300, 1))
    y = np.sin(3 * X[:, 0]) + 0.3 * rng.standard_normal(300)
    part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 5)
    kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part)
    return fit_estimator(kind, X, y)


def _dense_sigma(fit, j, weights):
    D = fit.design_for(j).dense()
    r = fit.residuals(j)
    return (D * (weights * r**2)[:, None]).T @ D / fit.n


class TestNormalQuantile:
    def test_known_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.9599639845400545)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
        assert normal_quantile(0.95) == pytest.approx(1.6448536269514722)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, float("nan"), "abc", None])
    def test_outside_unit_interval_is_config_error(self, p):
        with pytest.raises(ConfigError, match="normal quantile"):
            normal_quantile(p)


class TestSigma:
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_dense_oracle_hc0(self, fit_1d, j):
        var = sigma_hat(fit_1d, j)
        ref = _dense_sigma(fit_1d, j, np.ones(fit_1d.n))
        scale = np.max(np.abs(ref))
        assert_allclose(var.sigma_mat, ref, atol=1e-13 * scale)

    def test_hc1_is_scaled_hc0(self, fit_1d):
        v0 = sigma_hat(fit_1d, 0, HCKind.HC0)
        v1 = sigma_hat(fit_1d, 0, HCKind.HC1)
        K = fit_1d.design_for(0).K
        factor = fit_1d.n / (fit_1d.n - K)
        assert_allclose(v1.sigma_mat, factor * v0.sigma_mat, rtol=1e-12)

    @pytest.mark.parametrize("j", [2, 3])
    def test_hc1_counts_the_stacked_rank(self, fit_1d, j):
        # the stacked B-spline design loses null_dim = m^d of its columns;
        # HC1's degrees of freedom are its rank, the sum of its leverages
        rank = fit_1d.design_main.K + fit_1d.design_bc.K - fit_1d.kind.null_dim
        assert rank == pytest.approx(np.sum(fit_1d.leverage(j)), abs=1e-9)
        v0 = sigma_hat(fit_1d, j, HCKind.HC0)
        v1 = sigma_hat(fit_1d, j, HCKind.HC1)
        factor = fit_1d.n / (fit_1d.n - rank)
        assert np.all(v1.weights == factor)
        assert_allclose(v1.sigma_mat, factor * v0.sigma_mat, rtol=1e-12)

    def test_hc2_hc3_weights(self, fit_1d):
        lev = fit_1d.leverage(0)
        v2 = sigma_hat(fit_1d, 0, HCKind.HC2)
        v3 = sigma_hat(fit_1d, 0, "hc3")
        assert_allclose(v2.weights, 1 / (1 - lev), rtol=1e-12)
        assert_allclose(v3.weights, 1 / (1 - lev) ** 2, rtol=1e-12)

    @pytest.mark.parametrize("j", [0, 2])
    def test_omega_matches_dense_quadratic_form(self, fit_1d, j):
        # the dense per-observation oracle: (1/n) sum_i wre2_i (gamma' Pi_i)^2
        var = sigma_hat(fit_1d, j)
        pts = np.linspace(0.05, 0.95, 9)[:, None]
        scores = fit_1d.gamma_many(pts, None, j) @ var.design.dense().T
        ref = (scores**2) @ var.wre2 / fit_1d.n
        assert_allclose(var.omega_many(pts), ref, rtol=1e-11)

    def test_single_point_omega(self, fit_1d):
        var = sigma_hat(fit_1d, 0)
        got = var.omega_many([[0.5]])[0]
        assert got > 0
        assert got == pytest.approx(var.omega_many([[0.2], [0.5]])[1], rel=1e-12)

    def test_leverage_overflow(self):
        # a lone observation in its own indicator cell has leverage one
        X = np.concatenate([np.linspace(0.01, 0.45, 30), [0.9]])[:, None]
        y = np.sin(X[:, 0])
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 2)
        from lspart.basis import BasisSpec

        kind = EstimatorKind(BasisSpec(BasisFamily.HAAR, 1, part))
        fit = fit_estimator(kind, X, y)
        with pytest.raises(LeverageOverflow):
            sigma_hat(fit, 0, HCKind.HC2)

    @pytest.mark.parametrize("call", ["pointwise", "plugin", "bootstrap"])
    @pytest.mark.parametrize("j", [0, 2])
    def test_zero_residuals_give_nonpositive_variance(self, j, call):
        rng = np.random.default_rng(3)
        X = rng.random((80, 1))
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 3)
        kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part)
        fit = fit_estimator(kind, X, np.zeros(80))
        var = sigma_hat(fit, j)
        grid = make_grid([[0.0, 1.0]], 9)
        run = {
            "pointwise": lambda: pointwise_ci(fit, var, [[0.5]]),
            "plugin": lambda: band_plugin(fit, var, grid, draws=150),
            "bootstrap": lambda: band_bootstrap(fit, var, grid, draws=150),
        }[call]
        with pytest.raises(NonPositiveVariance):
            run()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
def test_sigma_keeps_the_whole_array_bits(d, family):
    # Sigma_j is symmetrized in place: the bits of 0.5 * (S + S') over the
    # whole-array accumulation, at every j and HC kind
    n, kappa = {1: (300, 5), 2: (800, 3), 3: (1500, 2)}[d]
    fit = _fit_nd(d, family, n=n, kappa=kappa)
    for j in (0, 1, 2, 3):
        for hc in HCKind:
            var = sigma_hat(fit, j, hc)
            ref = symmetrized(weighted_cross_whole(var.design, var.design, var.wre2))
            assert np.array_equal(var.sigma_mat, ref)


@pytest.fixture(scope="module")
def hc2_fit_3d():
    # the large-sample d = 3 fit: model 6, kappa 5, HC2 on the stacked
    # design of j = 2 (K = 216 + 343 = 559, width 8 + 27, 125 cells)
    X, y = dgp_sample(6, 10_000, 1)
    part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * 3, 5)
    fit = fit_estimator(EstimatorKind.default(BasisFamily.BSPLINE, 2, part), X, y)
    var = sigma_hat(fit, 2, HCKind.HC2)
    assert var.design.K == 559
    return fit, var


def _traced_peak(f):
    """(f(), the tracemalloc peak in bytes above the allocation at the call)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - start


class TestKernelMemory:
    """The group kernels write into their one output: no whole-design copy
    (the whole-array forms in ``oracles`` peak at about 7 MB here)."""

    def test_quadratic_forms(self, hc2_fit_3d):
        fit, var = hc2_fit_3d
        D = var.design
        mat = np.random.default_rng(0).standard_normal((D.K, D.K))
        D.quadratic_forms(mat)  # group runs cached, as in a fit
        out, peak = _traced_peak(lambda: D.quadratic_forms(mat))
        assert np.array_equal(out, quadratic_forms_whole(D, mat))
        assert peak < 1e6

    def test_weighted_cross(self, hc2_fit_3d):
        fit, var = hc2_fit_3d
        D = var.design
        out, peak = _traced_peak(lambda: D.weighted_cross(D, var.wre2))
        assert np.array_equal(out, weighted_cross_whole(D, D, var.wre2))
        assert peak < D.K * D.K * 8 + 1e6

    def test_sigma_mat(self, hc2_fit_3d):
        fit, var = hc2_fit_3d
        fresh = sigma_hat(fit, 2, HCKind.HC2)
        out, peak = _traced_peak(lambda: fresh.sigma_mat)
        assert np.array_equal(out, var.sigma_mat)
        assert peak < out.nbytes + 1e6

    def test_bit_sums(self, hc2_fit_3d):
        # one block of draws: the (K, c) sums, the (n / 8, c) byte copy and
        # one cell's blocks; no (c, n) or (n, width) array
        fit, var = hc2_fit_3d
        D, c = var.design, _DRAW_CHUNK
        octets = np.random.default_rng(1).integers(0, 256, size=(c, D.n // 8 + 8),
                                                   dtype=np.uint8)
        sums = D.bit_sums()
        out, peak = _traced_peak(lambda: sums(octets))
        assert np.array_equal(out, bit_sums_strided(D)(octets))
        assert peak < D.K * c * 8 + D.n * c / 8 + 5e5


def test_hc1_needs_n_above_k():
    from lspart.basis import BasisSpec

    rng = np.random.default_rng(1)
    X = (np.arange(8) / 8 + 1 / 16)[:, None]
    y = rng.standard_normal(8)
    part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 8)
    kind = EstimatorKind(BasisSpec(BasisFamily.HAAR, 1, part))
    fit = fit_estimator(kind, X, y)  # one observation per cell, n == K
    with pytest.raises(ConfigError):
        sigma_hat(fit, 0, HCKind.HC1)


class TestPointwise:
    def test_interval_geometry(self, fit_1d):
        var = sigma_hat(fit_1d, 0)
        res = pointwise_ci(fit_1d, var, np.linspace(0.1, 0.9, 5)[:, None])
        z = normal_quantile(0.975)
        assert_allclose(res.ci_hi - res.ci_lo, 2 * z * res.se, rtol=1e-12)
        assert_allclose(
            (res.ci_hi + res.ci_lo) / 2, res.estimates, rtol=1e-10, atol=1e-12
        )
        assert np.all(res.se > 0)

    def test_se_is_sqrt_omega_over_n(self, fit_1d):
        var = sigma_hat(fit_1d, 2)
        pts = np.array([[0.3], [0.7]])
        res = pointwise_ci(fit_1d, var, pts)
        assert_allclose(res.se, np.sqrt(var.omega_many(pts) / fit_1d.n))

    def test_memory_stays_below_score_matrix(self):
        # Omega from Sigma_j, which the call forms: no (G, n) score array
        fit = _fit_nd(2, n=20_000, seed=5)
        var = sigma_hat(fit, 2)
        grid = make_grid([[0.0, 1.0]] * 2, 20)
        dense_bytes = grid.shape[0] * fit.n * 8
        tracemalloc.start()
        try:
            pointwise_ci(fit, var, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 8

    def test_alpha_validation(self, fit_1d):
        var = sigma_hat(fit_1d, 0)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                pointwise_ci(fit_1d, var, [[0.5]], alpha=bad)


class TestForeignVariance:
    """A variance estimate is read only with the fit it was estimated from."""

    @pytest.mark.parametrize("call", ["pointwise", "plugin", "bootstrap"])
    @pytest.mark.parametrize("kappa", [5, 8], ids=["same-K", "other-K"])
    def test_rejected(self, fit_1d, kappa, call):
        rng = np.random.default_rng(43)
        X = rng.random((300, 1))
        y = np.cos(2 * X[:, 0]) + 0.3 * rng.standard_normal(300)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], kappa)
        other = fit_estimator(EstimatorKind.default(BasisFamily.BSPLINE, 2, part), X, y)
        var = sigma_hat(other, 0)
        grid = make_grid([[0.0, 1.0]], 20)
        run = {
            "pointwise": lambda: pointwise_ci(fit_1d, var, [[0.5]]),
            "plugin": lambda: band_plugin(fit_1d, var, grid, draws=150),
            "bootstrap": lambda: band_bootstrap(fit_1d, var, grid, draws=150),
        }[call]
        with pytest.raises(ConfigError, match="another fit"):
            run()


class TestMakeGrid:
    def test_1d_default(self):
        g = make_grid([[0.0, 2.0]])
        assert g.shape == (100, 1)
        assert g[0, 0] == 0.0 and g[-1, 0] == 2.0

    def test_2d_product(self):
        g = make_grid([[0, 1], [0, 1]], points_per_dim=4)
        assert g.shape == (16, 2)
        assert_allclose(np.unique(g[:, 0]), [0, 1 / 3, 2 / 3, 1], atol=1e-15)

    def test_too_few_points(self):
        with pytest.raises(InvalidGrid):
            make_grid([[0, 1]], points_per_dim=1)


class TestBands:
    def test_plugin_deterministic_in_seed(self, fit_1d):
        var = sigma_hat(fit_1d, 0)
        grid = make_grid([[0.0, 1.0]], 40)
        a = band_plugin(fit_1d, var, grid, seed=11, draws=300)
        b = band_plugin(fit_1d, var, grid, seed=11, draws=300)
        c = band_plugin(fit_1d, var, grid, seed=12, draws=300)
        assert a.quantile == b.quantile
        assert_allclose(a.half_widths, b.half_widths)
        assert a.quantile != c.quantile

    def test_sequence_seed(self, fit_1d):
        # (master, rep) keys give their own stream, list or tuple alike
        var = sigma_hat(fit_1d, 0)
        grid = make_grid([[0.0, 1.0]], 25)
        a = band_plugin(fit_1d, var, grid, seed=(5, 2), draws=200)
        b = band_plugin(fit_1d, var, grid, seed=[5, 2], draws=200)
        c = band_plugin(fit_1d, var, grid, seed=5, draws=200)
        assert a.quantile == b.quantile
        assert a.quantile != c.quantile

    def test_quantile_monotone_in_alpha(self, fit_1d):
        var = sigma_hat(fit_1d, 0)
        grid = make_grid([[0.0, 1.0]], 30)
        tight = band_plugin(fit_1d, var, grid, alpha=0.01, seed=0, draws=500)
        loose = band_plugin(fit_1d, var, grid, alpha=0.20, seed=0, draws=500)
        assert tight.quantile > loose.quantile

    def test_band_at_least_pointwise(self, fit_1d):
        var = sigma_hat(fit_1d, 0)
        grid = make_grid([[0.0, 1.0]], 50)
        band = band_plugin(fit_1d, var, grid, alpha=0.05, seed=4, draws=2000)
        res = pointwise_ci(fit_1d, var, grid, alpha=0.05)
        assert band.quantile > normal_quantile(0.975)
        assert np.all(band.half_widths >= res.ci_hi - res.estimates)

    def test_single_point_grid_recovers_normal_quantile(self, fit_1d):
        # sup over one point is |N(0,1)|, so the band quantile estimates z
        var = sigma_hat(fit_1d, 0)
        band = band_plugin(fit_1d, var, np.array([[0.5]]), seed=8, draws=5000)
        assert band.quantile == pytest.approx(normal_quantile(0.975), abs=0.08)

    @pytest.mark.parametrize("j", [2, 3])
    def test_stacked_sigma_runs(self, fit_1d, j):
        # Sigma for j >= 2 is singular along the stacked design's known null
        # space; the root deflates it there
        var = sigma_hat(fit_1d, j)
        grid = make_grid([[0.0, 1.0]], 20)
        band = band_plugin(fit_1d, var, grid, seed=1, draws=200)
        assert band.quantile > 0
        assert np.all(band.half_widths > 0)

    def test_bootstrap_deterministic(self, fit_1d):
        var = sigma_hat(fit_1d, 0)
        grid = make_grid([[0.0, 1.0]], 30)
        a = band_bootstrap(fit_1d, var, grid, seed=2, draws=300)
        b = band_bootstrap(fit_1d, var, grid, seed=2, draws=300)
        assert a.quantile == b.quantile
        assert a.method == "bootstrap"

    def test_bootstrap_unit_weights_collapse(self, monkeypatch, fit_1d):
        # all signs +1 rebuild the original residuals; LS orthogonality then
        # zeroes every numerator and the band degenerates
        var = sigma_hat(fit_1d, 0)
        grid = make_grid([[0.0, 1.0]], 30)
        monkeypatch.setattr(
            "lspart.inference._sign_bytes",
            lambda rng, c, n: np.full((c, 8 * -(-n // 64)), 255, dtype=np.uint8),
        )
        band = band_bootstrap(fit_1d, var, grid, seed=0, draws=150)
        assert band.quantile < 1e-8

    def test_plugin_vs_bootstrap_agree_roughly(self, fit_1d):
        var = sigma_hat(fit_1d, 0)
        grid = make_grid([[0.0, 1.0]], 40)
        a = band_plugin(fit_1d, var, grid, seed=3, draws=1500)
        b = band_bootstrap(fit_1d, var, grid, seed=3, draws=1500)
        assert b.quantile == pytest.approx(a.quantile, rel=0.15)

    def test_band_result_accessors(self, fit_1d):
        var = sigma_hat(fit_1d, 0)
        grid = make_grid([[0.0, 1.0]], 20)
        band = band_plugin(fit_1d, var, grid, seed=0, draws=150)
        assert_allclose(band.lo, band.estimates - band.half_widths)
        assert_allclose(band.hi, band.estimates + band.half_widths)
        inside = band.covers(band.estimates)
        assert inside.all()
        outside = band.covers(band.hi + 1.0)
        assert not outside.any()

    def test_grid_validation(self, fit_1d):
        var = sigma_hat(fit_1d, 0)
        with pytest.raises(InvalidGrid):
            band_plugin(fit_1d, var, np.array([[1.5]]), draws=150)
        with pytest.raises(InvalidGrid):
            band_plugin(fit_1d, var, np.empty((0, 1)), draws=150)
        with pytest.raises(ConfigError):
            band_plugin(fit_1d, var, np.array([[0.5]]), draws=50)

    @pytest.mark.parametrize("band", [band_plugin, band_bootstrap])
    @pytest.mark.parametrize(
        "name, value",
        [
            ("draws", float("nan")),
            ("draws", "x"),
            ("draws", 1000.7),
            ("draws", None),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", (3, -1)),
            ("seed", [2, 0.5]),
            ("seed", "7.5"),
        ],
    )
    def test_bad_draws_or_seed(self, fit_1d, band, name, value):
        var = sigma_hat(fit_1d, 0)
        with pytest.raises(ConfigError):
            band(fit_1d, var, make_grid([[0.0, 1.0]], 10), **{name: value})

    def test_integral_draws_and_array_seed(self, fit_1d):
        # an integral float counts its draws; an int array seeds like a tuple,
        # and a whole-valued key (3.0, "3") like the int it equals
        var = sigma_hat(fit_1d, 0)
        grid = make_grid([[0.0, 1.0]], 30)
        a = band_bootstrap(fit_1d, var, grid, draws=150.0, seed=np.array([3, 1]))
        b = band_bootstrap(fit_1d, var, grid, draws=150, seed=(3, 1))
        c = band_bootstrap(fit_1d, var, grid, draws=150, seed=["3", 1.0])
        assert a.draws == 150 and a.quantile == b.quantile == c.quantile
        d = band_plugin(fit_1d, var, grid, draws=150, seed=3)
        assert band_plugin(fit_1d, var, grid, draws=150, seed="3").quantile == d.quantile

    def test_coarse_grid_warns(self):
        rng = np.random.default_rng(5)
        X = rng.random((400, 1))
        y = rng.standard_normal(400)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 40)
        kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part)
        fit = fit_estimator(kind, X, y)
        var = sigma_hat(fit, 0)
        with pytest.warns(RuntimeWarning, match="spacing"):
            band_plugin(fit, var, make_grid([[0.0, 1.0]], 5), draws=150)

    @pytest.mark.parametrize("band", [band_plugin, band_bootstrap])
    def test_coarse_grid_warning_names_the_caller(self, band):
        rng = np.random.default_rng(5)
        X = rng.random((400, 1))
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 40)
        kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part)
        fit = fit_estimator(kind, X, rng.standard_normal(400))
        with pytest.warns(RuntimeWarning, match="spacing") as rec:
            band(fit, sigma_hat(fit, 0), make_grid([[0.0, 1.0]], 5), draws=150)
        assert rec[0].filename == __file__

    @pytest.mark.parametrize("band", [band_plugin, band_bootstrap])
    @pytest.mark.parametrize("q", [(0, 0), (2,), (3,)])
    def test_bad_q_is_unsupported_derivative(self, fit_1d, band, q):
        # a q of the wrong length or of order >= m is no InvalidGrid
        var = sigma_hat(fit_1d, 0)
        with pytest.raises(UnsupportedDerivative):
            band(fit_1d, var, make_grid([[0.0, 1.0]], 30), q=q, draws=150)


def _fit_nd(d, family=BasisFamily.BSPLINE, n=None, kappa=None, seed=0):
    n = n or {1: 300, 2: 800}[d]
    kappa = kappa or {1: 5, 2: 3}[d]
    rng = np.random.default_rng([seed, d])
    X = rng.random((n, d))
    y = np.sin(3 * X[:, 0]) * np.cos(X[:, -1]) + 0.3 * rng.standard_normal(n)
    part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * d, kappa)
    return fit_estimator(EstimatorKind.default(family, 2, part), X, y)


def _zero_cell_sample():
    # noise on [0, 1] with a response of exactly zero in [1/3, 2/3)
    rng = np.random.default_rng(3)
    X = np.concatenate([[0.0, 1.0], rng.random(298)])[:, None]
    y = rng.standard_normal(300)
    y[(X[:, 0] >= 1 / 3) & (X[:, 0] < 2 / 3)] = 0.0
    return X, y


class TestPluginRoute:
    """Both bands take Omega from rowsum((Gamma Sigma) * Gamma); only the
    plug-in band takes a root of Sigma, for its draws."""

    def test_never_builds_scores(self):
        fit = _fit_nd(2)
        grid = make_grid([[0.0, 1.0]] * 2, 8)
        for j in (0, 1, 2, 3):
            band = band_plugin(fit, sigma_hat(fit, j), grid, seed=1, draws=200)
            assert np.all(band.half_widths > 0)

    @pytest.mark.parametrize("band_fn", [band_plugin, band_bootstrap],
                             ids=["plugin", "bootstrap"])
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    def test_half_widths_match_dense_omega(self, family, d, j, band_fn):
        # the dense per-observation oracle: Omega = (Gamma D')^2 wre2 / n
        fit = _fit_nd(d, family)
        var = sigma_hat(fit, j)
        grid = make_grid([[0.0, 1.0]] * d, 30 if d == 1 else 8)
        band = band_fn(fit, var, grid, seed=2, draws=200)
        scores = fit.gamma_many(grid, None, j) @ var.design.dense().T
        ref = band.quantile * np.sqrt((scores**2) @ var.wre2 / fit.n / fit.n)
        assert_allclose(band.half_widths, ref, rtol=1e-10)

    def test_bootstrap_takes_no_eigendecomposition(self, monkeypatch):
        fit = _fit_nd(2)
        grid = make_grid([[0.0, 1.0]] * 2, 8)
        variances = [sigma_hat(fit, j) for j in (0, 1, 2, 3)]

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for var in variances:
            band = band_bootstrap(fit, var, grid, seed=1, draws=200)
            assert np.all(band.half_widths > 0)

    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    def test_plugin_takes_no_eigendecomposition(self, monkeypatch, family):
        # the null spaces are known, so the stacked leverage and every plug-in
        # root are a checked inverse and a Cholesky factor
        fit = _fit_nd(2, family)
        grid = make_grid([[0.0, 1.0]] * 2, 8)

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert np.all(np.isfinite(fit.leverage(2)))
        for j in (0, 1, 2, 3):
            band = band_plugin(fit, sigma_hat(fit, j, HCKind.HC2), grid, seed=1, draws=200)
            assert np.all(band.half_widths > 0)

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_plugin_root_reproduces_sigma(self, monkeypatch, j):
        # independent of the root's formula: the draws' rows A / sqrt(Omega)
        # have covariance Gamma Sigma_j Gamma' / sqrt(Omega Omega'), with
        # Sigma_j and Omega from the dense design (d = 2, m = 3: K_2 = 145)
        X, y = dgp_sample(4, 3001, 0)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * 2, 6)
        fit = fit_estimator(EstimatorKind.default(BasisFamily.BSPLINE, 3, part), X, y)
        var = sigma_hat(fit, j)
        grid = make_grid([[0.0, 1.0]] * 2, 13)
        rows = []
        exact_rows = inference_module._exact_rows
        monkeypatch.setattr(inference_module, "_exact_rows",
                            lambda R: rows.append(R.copy()) or exact_rows(R))
        band_plugin(fit, var, grid, seed=1, draws=100)
        M = fit.gamma_many(grid, None, j)
        M = M / np.sqrt(np.sum((M @ _dense_sigma(fit, j, var.weights)) * M, axis=1))[:, None]
        assert_allclose(rows[0] @ rows[0].T, M @ _dense_sigma(fit, j, var.weights) @ M.T,
                        rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:grid spacing")
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_singular_sigma_is_nonpositive_variance(self, j):
        # PP fits the zero response of the middle cell exactly, so its block
        # of Sigma_j is zero; Omega is positive on a grid that skips the cell,
        # but Sigma_j has no Cholesky factor and is never clipped
        X, y = _zero_cell_sample()
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 3)
        fit = fit_estimator(EstimatorKind.default(BasisFamily.PP, 2, part), X, y)
        var = sigma_hat(fit, j)
        assert np.all(var.omega_many([[0.1], [0.9]]) > 0)
        with pytest.raises(NonPositiveVariance, match="singular"):
            band_plugin(fit, var, [[0.1], [0.9]], draws=200)

    @pytest.mark.filterwarnings("ignore:grid spacing")
    def test_singular_sigma_cli_exits_4(self, tmp_path, capsys):
        X, y = _zero_cell_sample()
        path = tmp_path / "data.csv"
        np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g",
                   header="x1,y", comments="")
        code = main(["fit", "--data", str(path), "--family", "pp", "--kappa", "3",
                     "--band", "plugin", "--grid", "2", "--eval-points", "0.1;0.9"])
        assert code == 4
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize("j", [0, 2])
    def test_memory_stays_below_score_matrix(self, j):
        fit = _fit_nd(2, n=20_000, kappa=8, seed=7)
        var = sigma_hat(fit, j)
        var.sigma_mat  # built outside the measured span
        grid = make_grid([[0.0, 1.0]] * 2, 20)
        dense_bytes = grid.shape[0] * fit.n * 8
        tracemalloc.start()
        try:
            band_plugin(fit, var, grid, seed=0, draws=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4

    def test_memory_bounded_in_draws(self):
        # draws in blocks: O(chunk (G + K_j) + B), not O(B (G + K_j))
        fit = _fit_nd(2, n=2000, kappa=8, seed=6)
        var = sigma_hat(fit, 0)
        var.sigma_mat  # built outside the measured span
        grid = make_grid([[0.0, 1.0]] * 2, 20)
        draws = 20_000
        dense_bytes = grid.shape[0] * draws * 8
        tracemalloc.start()
        try:
            band_plugin(fit, var, grid, seed=0, draws=draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4


def _root(fit, var, gamma):
    # A = Gamma P L with P = I - N N' for the design's orthonormal null basis
    # N and L the Cholesky factor of P Sigma P + c N N', c = tr(Sigma) / K_j,
    # all dense; N has no columns unless the design stacks [p, ptilde].
    # Omega = rowsum((Gamma Sigma) * Gamma)
    sigma, N = var.sigma_mat, fit.null_basis(var.j)
    P = np.eye(N.shape[0]) - N @ N.T
    c = np.trace(sigma) / sigma.shape[0]
    A = gamma @ P @ np.linalg.cholesky(P @ sigma @ P + c * N @ N.T)
    return A, np.sum((gamma @ sigma) * gamma, axis=1)


def _round_left(L):
    # the left factor on the grid 2^-23, clipped to |L| <= 63
    return np.round(np.clip(L, -63.0, 63.0) * 2.0**23) * 2.0**-23


def _round_right(R):
    # each row to 24 significant bits of its L1 norm: unit 2^(e - 24), sum |R_g| < 2^e
    unit = 2.0 ** (np.frexp(np.sum(np.abs(R), axis=1))[1] - 24)[:, None]
    return np.round(R / unit) * unit


def _rounding_bound(L, R, stat_scale):
    # |l'r' - lr| <= |l' - l| |r'| + |l| |r' - r|, with |l' - l| <= 2^-24 and
    # |r' - r| <= 2^-24 ||r||_1 entrywise, so ||r'||_1 <= (1 + K 2^-24) ||r||_1;
    # 1e-12 of the statistic covers the float64 roundoff of the unrounded route
    K = R.shape[1]
    l1 = np.max(np.sum(np.abs(L), axis=1))
    r1 = np.max(np.sum(np.abs(R), axis=1))
    return 2.0**-24 * r1 * (1.0 + K * 2.0**-24 + l1) + 1e-12 * stat_scale


def _unchunked_sign_sups(fit, var, grid, seed, draws):
    # the Rademacher statistic with all draws' signs in one (B, n) stream:
    # (rounded sups, unrounded sups, the rounding's bound on their gap, Omega)
    n = fit.n
    gamma = fit.gamma_many(grid, None, var.j)
    _, omega = _root(fit, var, gamma)
    M = gamma / np.sqrt(omega)[:, None]
    # P_i = Pi_j(x_i) eps_i / sqrt(n); column k on the grid 2^(e_k - 52)
    P = var.design.dense() * (fit.residuals(var.j) / np.sqrt(n))[:, None]
    e = np.frexp(np.sum(np.abs(P), axis=0))[1]
    unit = 2.0 ** (e - 52)
    P = np.round(P / unit) * unit
    # draw b's signs: the first n bits of its ceil(n / 64) words, LSB first
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2**64, size=(draws, -(-n // 64)), dtype=np.uint64)
    i = np.arange(n)
    bits = (words[:, i // 64] >> (i % 64).astype(np.uint64)) & np.uint64(1)
    W = 2.0 * bits - 1.0
    T = W @ P  # every signed sum of a rounded column is exact
    L, R = T * 2.0 ** (5 - e), M * 2.0 ** (e - 5)
    exact = np.max(np.abs(_round_left(L) @ _round_right(R).T), axis=1)
    # the unrounded formula: scores studentized by their own Omega
    scores = gamma @ var.design.dense().T
    S = scores * (fit.residuals(var.j) / np.sqrt(n))
    S /= np.sqrt((scores**2) @ var.wre2 / n)[:, None]
    plain = np.max(np.abs(W @ S.T), axis=1)
    return exact, plain, _rounding_bound(L, R, np.max(plain)), omega


def _unchunked_plugin_sups(fit, var, grid, seed, draws):
    # the plug-in statistic with all draws' normals in one (B, K_j) stream:
    # (rounded sups, unrounded sups, the rounding's bound on their gap, Omega)
    A, omega = _root(fit, var, fit.gamma_many(grid, None, var.j))
    M = A / np.sqrt(omega)[:, None]
    Z = np.random.default_rng(seed).standard_normal((draws, M.shape[1]))
    exact = np.max(np.abs(_round_left(Z) @ _round_right(M).T), axis=1)
    plain = np.array([np.max(np.abs(M @ z)) for z in Z])
    return exact, plain, _rounding_bound(Z, M, np.max(plain)), omega


class TestDrawStream:
    """One generator per band call; the band does not depend on the block."""

    @pytest.mark.parametrize("j", [0, 2])
    def test_plugin_matches_unchunked_formula(self, fit_1d, j):
        draws = 300
        var = sigma_hat(fit_1d, j)
        grid = make_grid([[0.0, 1.0]], 30)
        band = band_plugin(fit_1d, var, grid, seed=(9, 1), draws=draws)
        sups, plain, bound, omega = _unchunked_plugin_sups(
            fit_1d, var, grid, (9, 1), draws
        )
        qhat = _sup_quantile(sups, 0.05)
        assert band.quantile == qhat
        assert np.array_equal(band.half_widths, qhat * np.sqrt(omega / fit_1d.n))
        # the rounding moves each supremum, so the quantile, by at most the bound
        assert abs(band.quantile - _sup_quantile(plain, 0.05)) <= bound

    @pytest.mark.parametrize("j", [2, 3])
    def test_nested_plugin_draws_the_full_root(self, j):
        # a nested kind's Sigma_j is the companion design's, of full rank:
        # nothing is zeroed and the draws take K_1 normals
        fit = _fit_nd(1, BasisFamily.PP)
        var = sigma_hat(fit, j)
        assert var.sigma_mat.shape == (fit.design_bc.K,) * 2
        grid = make_grid([[0.0, 1.0]], 30)
        band = band_plugin(fit, var, grid, seed=(9, j), draws=300)
        sups, _, _, omega = _unchunked_plugin_sups(fit, var, grid, (9, j), 300)
        assert band.quantile == _sup_quantile(sups, 0.05)
        assert np.array_equal(band.half_widths, band.quantile * np.sqrt(omega / fit.n))

    @pytest.mark.parametrize("j", [0, 2])
    def test_one_generator_per_call(self, monkeypatch, fit_1d, j):
        var = sigma_hat(fit_1d, j)
        grid = make_grid([[0.0, 1.0]], 20)
        made = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        band_bootstrap(fit_1d, var, grid, seed=(4, j), draws=300)
        assert made == [((4, j),)]
        band_plugin(fit_1d, var, grid, seed=5, draws=300)
        assert made == [((4, j),), (5,)]

    @pytest.mark.parametrize("chunk", [7, 10_000])
    @pytest.mark.parametrize("method", ["rademacher", "plugin"])
    def test_band_does_not_depend_on_block_size(self, monkeypatch, method, chunk):
        # n odd puts the rows of a block at every alignment; at this size a
        # plain GEMM rounds a 7-row block's rows unlike a full block's
        fit = _fit_nd(2, n=801, kappa=4, seed=3)
        var = sigma_hat(fit, 2)
        grid = make_grid([[0.0, 1.0]] * 2, 9)
        draws = 250

        def band():
            if method == "plugin":
                return band_plugin(fit, var, grid, seed=(2, 8), draws=draws)
            return band_bootstrap(fit, var, grid, seed=(2, 8), draws=draws)

        base = band()
        monkeypatch.setattr("lspart.inference._DRAW_CHUNK", chunk)
        other = band()
        assert other.quantile == base.quantile
        assert np.array_equal(other.half_widths, base.half_widths)


class TestBootstrapChunks:
    @pytest.mark.parametrize("weights", ["rademacher"])  # the only weights
    def test_matches_unchunked_formula(self, fit_1d, weights):
        draws = 300
        assert draws % _DRAW_CHUNK != 0
        var = sigma_hat(fit_1d, 0)
        grid = make_grid([[0.0, 1.0]], 30)
        band = band_bootstrap(fit_1d, var, grid, seed=9, draws=draws)
        sups, plain, bound, omega = _unchunked_sign_sups(fit_1d, var, grid, 9, draws)
        assert abs(band.quantile - _sup_quantile(plain, 0.05)) <= bound
        qhat = _sup_quantile(sups, 0.05)
        assert band.quantile == qhat
        assert np.array_equal(band.half_widths, qhat * np.sqrt(omega / fit_1d.n))

    def test_memory_stays_below_weight_matrix(self):
        fit = _fit_nd(1, n=20_000, kappa=10, seed=5)
        var = sigma_hat(fit, 0)
        grid = make_grid([[0.0, 1.0]], 100)
        draws = 1000
        dense_bytes = fit.n * draws * 8
        tracemalloc.start()
        try:
            band_bootstrap(fit, var, grid, seed=0, draws=draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 2

    def test_default_route_never_builds_scores(self):
        fit = _fit_nd(2)
        grid = make_grid([[0.0, 1.0]] * 2, 8)
        for j in (0, 1, 2, 3):
            band = band_bootstrap(fit, sigma_hat(fit, j), grid, seed=1, draws=200)
            assert np.all(band.half_widths > 0)

    def test_memory_stays_below_score_matrix(self):
        # numerators in coefficient space: no (G, n) array, and signs as bits
        fit = _fit_nd(1, n=20_000, kappa=10, seed=5)
        var = sigma_hat(fit, 0)
        var.sigma_mat  # built outside the measured span
        grid = make_grid([[0.0, 1.0]], 100)
        dense_bytes = grid.shape[0] * fit.n * 8
        tracemalloc.start()
        try:
            band_bootstrap(fit, var, grid, seed=0, draws=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes


class TestBootstrapHC:
    """The bootstrap numerator reads the HC weights its Omega studentizes by."""

    @pytest.mark.parametrize("hc", list(HCKind))
    @pytest.mark.parametrize("j", [0, 2])
    def test_redrawn_variance_is_omega(self, monkeypatch, fit_1d, j, hc):
        # P_i = Pi_j(x_i) epshat_i sqrt(w_i / n), so sum_i (m_g' P_i)^2 = 1 at
        # every grid point for m_g = gamma_g / sqrt(Omega_g), Omega dense
        var = sigma_hat(fit_1d, j, hc)
        grid = make_grid([[0.0, 1.0]], 30)
        rows = []
        sign_sums = inference_module._exact_sign_sums
        monkeypatch.setattr(inference_module, "_exact_sign_sums",
                            lambda P: rows.append(P.dense()) or sign_sums(P))
        band_bootstrap(fit_1d, var, grid, seed=0, draws=100)
        gamma = fit_1d.gamma_many(grid, None, j)
        scores = gamma @ var.design.dense().T
        M = gamma / np.sqrt((scores**2) @ var.wre2 / fit_1d.n)[:, None]
        assert_allclose(np.sum((M @ rows[0].T) ** 2, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_hc3_widens_like_plugin(self):
        # PP d = 2, kappa = 5, j = 2: HC3 widens the plug-in band by about 11%,
        # and the bootstrap band, whose redrawn variance is the same Omega,
        # by as much (common seed, so only the weights differ)
        X, y = dgp_sample(4, 2000, 11)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * 2, 5)
        fit = fit_estimator(EstimatorKind.default(BasisFamily.PP, 2, part), X, y)
        grid = make_grid([[0.0, 1.0]] * 2, 20)
        ratio = {}
        for band in (band_plugin, band_bootstrap):
            hw = [np.median(band(fit, sigma_hat(fit, 2, hc), grid, draws=1000,
                                 seed=5).half_widths) for hc in (HCKind.HC0, HCKind.HC3)]
            ratio[band] = hw[1] / hw[0]
        assert ratio[band_plugin] > 1.05
        assert ratio[band_bootstrap] == pytest.approx(ratio[band_plugin], rel=0.02)


def _right_rows(G, K):
    # rows at scales 1e-300 .. 1e300, with zero entries and whole zero rows
    mag = hnp.arrays(float, (G, K), elements=st.floats(0.5, 1.0))
    sign = hnp.arrays(float, (G, K), elements=st.sampled_from([-1.0, 0.0, 1.0]))
    scale = hnp.arrays(
        float,
        (G,),
        elements=st.sampled_from([0.0, 1e-300, 1e300])
        | st.integers(-300, 300).map(lambda p: 10.0**p),
    )
    return st.tuples(mag, sign, scale).map(lambda t: t[0] * t[1] * t[2][:, None])


def _left_rows(B, K):
    # normals-like values, the grid's extremes +-63 and values it clips
    return hnp.arrays(
        float,
        (B, K),
        elements=st.floats(-70.0, 70.0)
        | st.sampled_from([-63.0, 63.0, 63.0 - 2.0**-23, -(2.0**-24), 2.0**-23]),
    )


@st.composite
def _factors(draw):
    K = draw(st.integers(1, 24))
    return draw(_left_rows(draw(st.integers(1, 40)), K)), draw(
        _right_rows(draw(st.integers(1, 8)), K)
    )


@settings(max_examples=60, deadline=None)
@given(_factors())
def test_exact_product_is_exact_and_blocking_invariant(factors):
    Z, R = factors
    right = _exact_rows(R)
    Zr = Z.copy()
    got = _exact_product(Zr, right)  # rounds Zr in place
    scaled = Zr * 2.0**23
    assert np.all(np.abs(Zr) <= 63.0) and np.array_equal(np.round(scaled), scaled)
    for b in range(Zr.shape[0]):
        for g in range(right.shape[0]):
            prods = Zr[b] * right[g]
            # every product is exact, and the GEMM is their exactly rounded sum
            assert all(
                Fraction(p) == Fraction(x) * Fraction(y)
                for p, x, y in zip(prods, Zr[b], right[g])
            )
            assert got[b, g] == math.fsum(prods)
    blocks = [
        _exact_product(Z[s : s + 7].copy(), right) for s in range(0, Z.shape[0], 7)
    ]
    assert np.array_equal(np.concatenate(blocks), got)


_THREAD_CHILD = """
import numpy as np
from lspart.basis import BasisFamily
from lspart.dgp import dgp_sample
from lspart.fit import EstimatorKind, fit_estimator
from lspart.inference import band_bootstrap, band_plugin, make_grid, pointwise_ci, sigma_hat
from lspart.partition import KnotRule, TensorPartition

X, y = dgp_sample(4, 3001, 0)
part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * 2, 6)
fit = fit_estimator(EstimatorKind.default(BasisFamily.BSPLINE, 3, part), X, y)
grid = make_grid([[0.0, 1.0]] * 2, 20)
for j in range(4):
    var = sigma_hat(fit, j)
    for band in (band_plugin, band_bootstrap):
        b = band(fit, var, grid, draws=100, seed=(1, j))
        print(j, band.__name__, b.quantile.hex(), b.half_widths.tobytes().hex())
    se = pointwise_ci(fit, var, [[0.2, 0.3], [0.5, 0.5], [0.8, 0.1]]).se
    print(j, "se", se.tobytes().hex())
"""


def test_bands_do_not_depend_on_blas_threads():
    # d = 2, B-spline m = 3, kappa = 6: K_2 = 145. Omega is one GEMM and the
    # draws are exact products, so both bands keep their bits for every j
    # (above K = 96 the Gram inverse's matrix products can vary upstream)
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _THREAD_CHILD], capture_output=True,
                              text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.splitlines())
    assert len(out[0]) == 12
    for one, two in zip(*out):
        assert one == two, one.split()[:2]


def test_pp_plugin_quantiles_do_not_depend_on_blas_threads(tmp_path):
    # d = 2, PP m = 2, kappa = 5: K_1 = 150. The Gram inverse, so Gamma and
    # Sigma, comes from threaded matrix products at this size and may differ
    # in its last bits between the thread counts (LAPACK's inverse did), and
    # the Cholesky factor of the draws does differ in its last bits, so the
    # quantiles meet a bound, not bit equality: the draws' 24-bit rounding
    # moves a supremum by at most 2^-24 ||r||_1 (1 + ||z||_1), about 2e-5 of
    # a quantile near 3.7 (||r||_1 <= sqrt(K), ||z||_1 ~ 0.8 K). A Cholesky
    # factor is unique and continuous in Sigma_j, so roundoff in it moves
    # the draws' right factor by roundoff only; its rounded rows were
    # identical at both settings on these data
    src = str(Path(__file__).resolve().parents[1] / "src")
    X, y = dgp_sample(4, 3001, 0)
    data = tmp_path / "m4.csv"
    np.savetxt(data, np.column_stack([X, y]), delimiter=",", header="x1,x2,y",
               comments="", fmt="%.17g")
    quantiles = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"r{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "lspart.cli", "fit", "--data", str(data), "--family",
             "pp", "--kappa", "5", "--band", "plugin", "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        band = json.loads(out.read_text())["band"]
        quantiles.append({j: band[j]["quantile"] for j in ("j0", "j1", "j2", "j3")})
    for j, q in quantiles[0].items():
        assert quantiles[1][j] == pytest.approx(q, rel=1e-4, abs=0), j
