"""Polynomial shapes and plug-in leading-error estimates.

The quadratic-target checks pin the classical values: an order-2 fit of
x^2 on even cells of width b overshoots by b^2/12 at cell midpoints and
undershoots by b^2/6 at the knots.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from lspart.basis import BasisFamily, BasisSpec
from lspart.biascorrect import (
    LeadingErrorModel,
    bernoulli_poly,
    lead_rows,
    leading_bias_many,
    projected_bias_term_many,
    shifted_legendre,
)
from lspart.errors import ConfigError, UnsupportedDerivative, UnsupportedFamily
from lspart.fit import EstimatorKind, fit_estimator
from lspart.partition import KnotRule, TensorPartition


class TestBernoulli:
    def test_low_orders_closed_form(self):
        z = np.linspace(0, 1, 11)
        assert_allclose(bernoulli_poly(0, z), 1.0)
        assert_allclose(bernoulli_poly(1, z), z - 0.5, atol=1e-15)
        assert_allclose(bernoulli_poly(2, z), z**2 - z + 1 / 6, atol=1e-14)
        assert_allclose(
            bernoulli_poly(3, z), z**3 - 1.5 * z**2 + 0.5 * z, atol=1e-14
        )
        assert_allclose(
            bernoulli_poly(4, z), z**4 - 2 * z**3 + z**2 - 1 / 30, atol=1e-14
        )

    def test_bernoulli_numbers_at_zero(self):
        assert bernoulli_poly(2, 0.0) == pytest.approx(1 / 6)
        assert bernoulli_poly(4, 0.0) == pytest.approx(-1 / 30)
        assert bernoulli_poly(6, 0.0) == pytest.approx(1 / 42)
        assert bernoulli_poly(3, 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_zero_mean(self, k):
        val, _ = quad(lambda z: bernoulli_poly(k, z), 0, 1)
        assert val == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_derivative_recurrence(self, k):
        z = np.linspace(0.05, 0.95, 7)
        h = 1e-6
        num = (bernoulli_poly(k, z + h) - bernoulli_poly(k, z - h)) / (2 * h)
        assert_allclose(num, k * bernoulli_poly(k - 1, z), rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("k", range(9))
    def test_reflection(self, k):
        z = np.linspace(0, 1, 9)
        assert_allclose(
            bernoulli_poly(k, 1 - z),
            (-1) ** k * bernoulli_poly(k, z),
            atol=1e-13,
        )

    @pytest.mark.parametrize(
        "a,b",
        [(1, 1), (2, 2), (1, 2), (2, 3), (3, 3), (2, 4)],
    )
    def test_product_integral_identity(self, a, b):
        # int_0^1 B_a B_b = (-1)^(a-1) a! b! / (a+b)! * B_{a+b}(0);
        # vanishes exactly when a + b is odd
        val, _ = quad(lambda z: bernoulli_poly(a, z) * bernoulli_poly(b, z), 0, 1)
        want = (
            (-1) ** (a - 1)
            * math.factorial(a)
            * math.factorial(b)
            / math.factorial(a + b)
            * bernoulli_poly(a + b, 0.0)
        )
        assert val == pytest.approx(want, abs=1e-12)

    def test_order_cap(self):
        with pytest.raises(ConfigError):
            bernoulli_poly(13, 0.5)


class TestShiftedLegendre:
    def test_low_orders(self):
        z = np.linspace(0, 1, 11)
        assert_allclose(shifted_legendre(0, z), 1.0)
        assert_allclose(shifted_legendre(1, z), 2 * z - 1, atol=1e-14)
        assert_allclose(shifted_legendre(2, z), 6 * z**2 - 6 * z + 1, atol=1e-13)

    @pytest.mark.parametrize("k", range(8))
    def test_endpoints(self, k):
        assert shifted_legendre(k, 1.0) == pytest.approx(1.0)
        assert shifted_legendre(k, 0.0) == pytest.approx((-1.0) ** k)

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 2), (2, 3), (2, 2), (3, 3)])
    def test_orthogonality(self, a, b):
        val, _ = quad(
            lambda z: shifted_legendre(a, z) * shifted_legendre(b, z), 0, 1
        )
        want = 1.0 / (2 * a + 1) if a == b else 0.0
        assert val == pytest.approx(want, abs=1e-12)


class TestShapes:
    def test_bspline_m2_midpoint(self):
        model = LeadingErrorModel(BasisFamily.BSPLINE, 2, 1)
        got = model.shape_values((2,), (0,), [[0.5]])
        assert_allclose(got, [-1 / 24], rtol=1e-12)

    def test_bspline_equals_scaled_bernoulli(self):
        model = LeadingErrorModel(BasisFamily.BSPLINE, 3, 1)
        z = np.linspace(0, 1, 9)[:, None]
        assert_allclose(
            model.shape_values((3,), (1,), z),
            bernoulli_poly(2, z[:, 0]) / 2.0,
            atol=1e-14,
        )

    def test_pp_scaling(self):
        model = LeadingErrorModel(BasisFamily.PP, 2, 1)
        z = np.linspace(0, 1, 9)[:, None]
        assert_allclose(
            model.shape_values((2,), (0,), z),
            shifted_legendre(2, z[:, 0]) / (math.comb(4, 2) * 2),
            atol=1e-14,
        )

    def test_pp_m2_equals_bspline_m2_shape(self):
        # P_2(2z-1)/(6 * 2!) == B_2(z)/2!: the two families share the m=2 shape
        pp = LeadingErrorModel(BasisFamily.PP, 2, 1)
        bs = LeadingErrorModel(BasisFamily.BSPLINE, 2, 1)
        z = np.linspace(0, 1, 17)[:, None]
        assert_allclose(
            pp.shape_values((2,), (0,), z),
            bs.shape_values((2,), (0,), z),
            atol=1e-13,
        )

    def test_negative_index_convention(self):
        model = LeadingErrorModel(BasisFamily.BSPLINE, 2, 2)
        z = np.array([[0.3, 0.7]])
        out = model.weight_values((0, 2), (1, 0), z, np.array([[0.5, 0.5]]))
        assert_allclose(out, 0.0)

    def test_tensor_product_form(self):
        model = LeadingErrorModel(BasisFamily.PP, 3, 2)
        z = np.array([[0.2, 0.8]])
        got = model.shape_values((1, 2), (0, 0), z)
        want = (shifted_legendre(1, 0.2) / 2) * (
            shifted_legendre(2, 0.8) / (math.comb(4, 2) * 2)
        )
        assert_allclose(got, [want], rtol=1e-12)

    def test_lambda_sets(self):
        bs = LeadingErrorModel(BasisFamily.BSPLINE, 3, 2)
        assert bs.lambda_set == [(3, 0), (0, 3)]
        pp = LeadingErrorModel(BasisFamily.PP, 3, 2)
        assert sorted(pp.lambda_set) == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_haar_no_derivatives(self):
        model = LeadingErrorModel(BasisFamily.HAAR, 1, 1)
        with pytest.raises(UnsupportedFamily):
            model.shape_values((1,), (1,), np.array([[0.5]]))

    def test_haar_matches_pp_order1(self):
        haar = LeadingErrorModel(BasisFamily.HAAR, 1, 1)
        pp = LeadingErrorModel(BasisFamily.PP, 1, 1)
        z = np.linspace(0, 1, 7)[:, None]
        assert_allclose(
            haar.shape_values((1,), (0,), z),
            pp.shape_values((1,), (0,), z),
            atol=1e-15,
        )

    def test_bad_total_order(self):
        model = LeadingErrorModel(BasisFamily.BSPLINE, 2, 1)
        with pytest.raises(ConfigError):
            model.shape_values((1,), (0,), np.array([[0.5]]))

    def test_weight_width_powers(self):
        model = LeadingErrorModel(BasisFamily.BSPLINE, 2, 1)
        z = np.array([[0.25]])
        w = np.array([[0.5]])
        got = model.weight_values((2,), (1,), z, w)
        want = 0.5 * bernoulli_poly(1, 0.25)
        assert_allclose(got, want, atol=1e-14)


def _quadratic_fit(kappa=4, family=BasisFamily.BSPLINE, sign=1.0):
    rng = np.random.default_rng(0)
    X = rng.random((400, 1))
    y = sign * X[:, 0] ** 2
    part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], kappa)
    kind = EstimatorKind.default(family, 2, part)
    return fit_estimator(kind, X, y)


class TestLeadingBias:
    def test_quadratic_midpoint_value(self):
        # order-2 fit of x^2: leading error +b^2/12 at cell midpoints
        kappa = 4
        b = 1.0 / kappa
        fit = _quadratic_fit(kappa)
        mids = np.array([[0.125], [0.375], [0.625]])
        assert_allclose(leading_bias_many(fit, mids), b**2 / 12, atol=1e-10)

    def test_quadratic_knot_value(self):
        kappa = 4
        b = 1.0 / kappa
        fit = _quadratic_fit(kappa)
        got = leading_bias_many(fit, [[0.25]])
        assert_allclose(got, [-(b**2) / 6], atol=1e-10)

    def test_sign_flips_with_target(self):
        fit = _quadratic_fit(4, sign=-1.0)
        assert_allclose(leading_bias_many(fit, [[0.125]]), [-1 / 192], atol=1e-10)

    def test_derivative_of_leading_error(self):
        # d/dx of -b^2 B_2(z) is -b(2z - 1)
        kappa, b = 4, 0.25
        fit = _quadratic_fit(kappa)
        z = 0.3
        got = leading_bias_many(fit, [[z * b]], q=(1,))[0]
        assert got == pytest.approx(-b * (2 * z - 1), abs=1e-9)

    def test_projected_term_brute_force(self):
        rng = np.random.default_rng(9)
        X = rng.random((250, 1))
        y = np.sin(4 * X[:, 0]) + 0.2 * rng.standard_normal(250)
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 5)
        kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part)
        fit = fit_estimator(kind, X, y)

        lead0 = leading_bias_many(fit, X, q=(0,))
        D = fit.design_main.dense()
        target = D.T @ lead0 / fit.n
        pts = rng.random((8, 1))
        P = fit.kind.main_spec.eval_many(pts).dense()
        ref = P @ np.linalg.solve(D.T @ D / fit.n, target)
        assert_allclose(projected_bias_term_many(fit, pts), ref, atol=1e-10)

    def test_plugin_matches_sample_cache(self):
        fit = _quadratic_fit(3)
        cells = fit.kind.main_spec.partition.locate(fit.X)
        fresh = lead_rows(fit.kind, fit.X, cells)
        assert_allclose(
            -fresh.row_dot(fit.beta_bc),
            leading_bias_many(fit, fit.X),
            atol=1e-12,
        )


def _lead_fit(family, d, m=2, seed=0):
    n, kappa = {1: (300, 4), 2: (900, 3)}[d]
    rng = np.random.default_rng([seed, d, m])
    X = rng.random((n, d))
    y = np.sin(3 * X[:, 0]) * np.cos(2 * X[:, -1]) + 0.2 * rng.standard_normal(n)
    part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * d, kappa)
    return fit_estimator(EstimatorKind.default(family, m, part), X, y)


def _per_u_terms(fit, pts, q):
    """[(w_u, dense d^u ptilde rows)] for u in Lambda_m, one loop per u."""
    main = fit.kind.main_spec
    model = LeadingErrorModel(main.family, main.m, main.dim)
    part = main.partition
    lower, width = part.geometry(part.locate(pts))
    z = (pts - lower) / width
    return [
        (model.weight_values(u, q, z, width), fit.kind.bc_spec.eval_many(pts, u).dense())
        for u in model.lambda_set
    ]


def _per_u_gamma3(fit, pts, q):
    """gamma_{q,3} as the per-u sum: [gamma_0, Q1^-1 sum_u (D_u' w_u - C_u' gamma_0')]."""
    q0 = (0,) * fit.X.shape[1]
    P = fit.kind.main_spec.eval_many(pts, q).dense()
    gamma0 = np.linalg.solve(fit.gram_main.Q, P.T).T
    D = fit.design_main.dense()
    rhs = np.zeros((fit.gram_bc.K, pts.shape[0]))
    for (w_u, Du), (w0, Du0) in zip(_per_u_terms(fit, pts, q), _per_u_terms(fit, fit.X, q0)):
        C_u = D.T @ (w0[:, None] * Du0) / fit.n
        rhs += Du.T * w_u - C_u.T @ gamma0.T
    return np.hstack([gamma0, np.linalg.solve(fit.gram_bc.Q, rhs).T])


class TestLeadDesign:
    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("q_first", [0, 1])
    def test_matches_per_u_loop(self, family, d, q_first):
        # q = 0, or q = e_1: at d = 2 one B-spline u (0, 2) has no u >= q
        fit = _lead_fit(family, d)
        q = tuple([q_first] + [0] * (d - 1))
        pts = np.random.default_rng(d).random((11, d))
        terms = _per_u_terms(fit, pts, q)
        lead = -sum(w_u * (Du @ fit.beta_bc) for w_u, Du in terms)
        R = sum(w_u[:, None] * Du for w_u, Du in terms)
        assert_allclose(fit.at(pts, q).lead.dense(), R, atol=1e-12)
        assert_allclose(leading_bias_many(fit, pts, q), lead, rtol=1e-12, atol=1e-13)
        gamma3 = _per_u_gamma3(fit, pts, q)
        if fit.kind.nested:
            # a nested kind (PP) folds the stacked weights onto the companion
            # design; the per-observation weights Gamma Pi_3(x_i)' do not
            # depend on the representation
            stacked = np.hstack([fit.design_main.dense(), fit.design_bc.dense()])
            assert_allclose(fit.gamma_many(pts, q, j=3) @ fit.design_for(3).dense().T,
                            gamma3 @ stacked.T, rtol=1e-9, atol=1e-9)
        else:
            assert_allclose(fit.gamma_many(pts, q, j=3), gamma3, rtol=1e-9, atol=1e-9)
        sample = _per_u_terms(fit, fit.X, (0,) * d)
        assert_allclose(leading_bias_many(fit, fit.X),
                        -sum(w * (Du @ fit.beta_bc) for w, Du in sample),
                        rtol=1e-12, atol=1e-13)

    def test_all_weights_zero(self):
        # B-splines of order 3 at d = 2: Lambda = {(3, 0), (0, 3)}, and
        # neither is >= q = (1, 1), so the lead vanishes identically
        fit = _lead_fit(BasisFamily.BSPLINE, 2, m=3)
        q = (1, 1)
        pts = np.random.default_rng(5).random((9, 2))
        assert fit.at(pts, q).lead.width == 0
        assert np.array_equal(leading_bias_many(fit, pts, q), np.zeros(9))
        assert_allclose(fit.gamma_many(pts, q, j=3) @ fit.rhs_for(3),
                        fit.estimate_many(pts, q, j=3), atol=1e-10)
        assert_allclose(fit.gamma_many(pts, q, j=3), _per_u_gamma3(fit, pts, q),
                        rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("d,g", [(1, 4000), (2, 200)])
def test_pp_derivative_lead_is_the_true_error(d, g):
    # y of degree m = 3 on a midpoint sample of g points per axis: the
    # sample projection of order m is the L2 one up to O(g^-2), so the j = 0
    # error of d^q y is the q-th derivative of the level's lead, and the
    # order-4 fit reads d^u y exactly
    coef = {1: {(3,): 1.0, (2,): -0.5},
            2: {(3, 0): 1.0, (2, 1): -2.0, (1, 2): 0.5, (0, 3): 0.75}}[d]

    def poly(X, q):
        return sum(c * math.prod(map(math.perm, a, q)) * np.prod(X ** np.subtract(a, q), axis=1)
                   for a, c in coef.items() if all(x >= y for x, y in zip(a, q)))

    axis = (np.arange(g) + 0.5) / g
    X = np.stack([c.ravel() for c in np.meshgrid(*[axis] * d, indexing="ij")], axis=1)
    part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * d, {1: 4, 2: 2}[d])
    fit = fit_estimator(EstimatorKind.default(BasisFamily.PP, 3, part), X, poly(X, (0,) * d))
    pts = np.random.default_rng(d).random((9, d))
    for q in itertools.product(range(3), repeat=d):
        if sum(q) < 3:
            error = fit.estimate_many(pts, q, j=0) - poly(pts, q)
            assert_allclose(leading_bias_many(fit, pts, q), error, rtol=0,
                            atol=1.0 / g**2, err_msg=str(q))


class TestDerivativeIndex:
    @pytest.mark.parametrize("u,q", [((1, 1), (0,)), ((1, 1), (0, 0, 0)),
                                     ((1, 1), (-1, 0)), ((2,), (0, 0))])
    def test_shapes_and_weights_reject(self, u, q):
        model = LeadingErrorModel(BasisFamily.PP, 2, 2)
        z = np.full((3, 2), 0.25)
        with pytest.raises(UnsupportedDerivative):
            model.shape_values(u, q, z)
        with pytest.raises(UnsupportedDerivative):
            model.weight_values(u, q, z, np.ones((3, 2)))
