"""Basis evaluation against independent oracles.

B-spline values and derivatives are cross-checked against
scipy.interpolate.BSpline, which implements the same recursions from an
unrelated code path.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.interpolate import BSpline

from lspart.basis import (
    BasisFamily,
    BasisSpec,
    SparseRows,
    _runs,
    alpha_list,
    check_deriv,
)
from lspart.errors import ConfigError, UnsupportedDerivative
from lspart.fit import stack_designs
from lspart.partition import KnotRule, TensorPartition
from oracles import OrderingMap, polynomial_reproduction_check


def _part(knots_per_axis):
    return TensorPartition(knots=tuple(np.asarray(k, float) for k in knots_per_axis))


def _scipy_design(spec, x, nu=0):
    """Dense 1d design (and derivatives) via scipy basis elements."""
    m = spec.m
    knots = spec.partition.knots[0]
    t = np.concatenate([np.full(m - 1, knots[0]), knots, np.full(m - 1, knots[-1])])
    K = len(t) - m
    cols = []
    for k in range(K):
        c = np.zeros(K)
        c[k] = 1.0
        f = BSpline(t, c, m - 1, extrapolate=False)
        if nu:
            f = f.derivative(nu)
        cols.append(f(x))
    return np.stack(cols, axis=1)


class TestAlphaList:
    def test_d2_m3_order(self):
        assert alpha_list(2, 3) == [
            (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
        ]

    def test_counts(self):
        # total degree < m in d variables: C(d + m - 1, d)
        for d, m in itertools.product((1, 2, 3), (1, 2, 3, 4)):
            assert len(alpha_list(d, m)) == math.comb(d + m - 1, d)


class TestSparseRows:
    def test_ops_match_dense(self):
        rng = np.random.default_rng(5)
        n, w, K = 40, 3, 11
        idx = np.stack([rng.choice(K, size=w, replace=False) for _ in range(n)])
        val = rng.standard_normal((n, w))
        rows = SparseRows(idx, val, K, groups=np.arange(n))
        D = rows.dense()
        coef = rng.standard_normal(K)
        assert_allclose(rows.row_dot(coef), D @ coef, atol=1e-14)
        weights = rng.standard_normal(n)
        assert_allclose(rows.accumulate(weights), D.T @ weights, atol=1e-13)
        assert_allclose(
            rows.weighted_cross(rows, weights), D.T @ (weights[:, None] * D) / n,
            atol=1e-14,
        )
        S = rng.standard_normal((K, K))
        assert_allclose(
            rows.quadratic_forms(S), np.einsum("ik,kl,il->i", D, S, D), atol=1e-13
        )


def _cell_sample(rule, d, kappa, n, seed):
    """Random points plus points on interior knots and the right endpoint."""
    rng = np.random.default_rng([seed, d])
    X = rng.random((n, d))
    part = TensorPartition.build(rule, [[0.0, 1.0]] * d, kappa, data=X)
    on_knots = []
    for ell, k in enumerate(part.knots):
        for t in k[1:]:
            x = rng.random((3, d))
            x[:, ell] = t
            on_knots.append(x)
    on_knots.append(np.ones((1, d)))
    return part, np.vstack([X, *on_knots])


def _assert_groups_valid(rows):
    # every row carries the indices of the first row of its group
    _, first, inv = np.unique(rows.groups, return_index=True, return_inverse=True)
    assert rows.groups.shape == (rows.n,)
    assert np.array_equal(rows.indices, rows.indices[first][inv.ravel()])


_KERNEL_CASES = list(itertools.product(
    [BasisFamily.BSPLINE, BasisFamily.PP, BasisFamily.HAAR],
    [1, 2, 3],
    [KnotRule.EVEN, KnotRule.QUANTILE],
))


class TestCellKernels:
    """The per-group kernels against the dense design, family by family."""

    def _designs(self, family, d, rule):
        kappa = {1: 5, 2: 3, 3: 2}[d]
        part, X = _cell_sample(rule, d, kappa, 150 * d, seed=3)
        main = BasisSpec(family, 1 if family is BasisFamily.HAAR else 2, part)
        bc_family = BasisFamily.PP if family is BasisFamily.HAAR else family
        a = main.eval_many(X)
        b = BasisSpec(bc_family, 3, part).eval_many(X)
        return X, {"main": a, "bc": b, "stacked": stack_designs(a, b)}

    @pytest.mark.parametrize("family,d,rule", _KERNEL_CASES)
    def test_weighted_cross_matches_dense(self, family, d, rule):
        X, rows = self._designs(family, d, rule)
        rng = np.random.default_rng(d)
        n = X.shape[0]
        for w in (None, rng.random(n) + 0.5, rng.standard_normal(n)):
            wd = np.ones(n) if w is None else w
            for ka, kb in [("main", "main"), ("bc", "bc"), ("main", "bc"),
                           ("stacked", "stacked")]:
                Da, Db = rows[ka].dense(), rows[kb].dense()
                ref = Da.T @ (wd[:, None] * Db) / n
                got = rows[ka].weighted_cross(rows[kb], w)
                assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("family", list(BasisFamily))
    def test_two_partitions_rejected(self, family):
        # designs on another partition group their rows by other cells
        X, rows = self._designs(family, 2, KnotRule.QUANTILE)
        other = TensorPartition.build(KnotRule.QUANTILE, [[0.0, 1.0]] * 2, 4, data=X)
        bc_family = BasisFamily.PP if family is BasisFamily.HAAR else family
        c = BasisSpec(bc_family, 3, other).eval_many(X)
        with pytest.raises(ConfigError):
            rows["main"].weighted_cross(c)
        with pytest.raises(ConfigError):
            stack_designs(rows["main"], c)

    @pytest.mark.parametrize("family,d,rule", _KERNEL_CASES)
    def test_quadratic_forms_match_dense(self, family, d, rule):
        X, rows = self._designs(family, d, rule)
        rng = np.random.default_rng(d + 10)
        for r in rows.values():
            D = r.dense()
            S = rng.standard_normal((r.K, r.K))
            S = S + S.T
            ref = np.einsum("ik,kl,il->i", D, S, D)
            assert_allclose(r.quadratic_forms(S), ref, rtol=0,
                            atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("family,d,rule", _KERNEL_CASES)
    def test_bit_sums_match_dense(self, family, d, rule):
        # 0/1 weights packed as bits, as the bootstrap's sign blocks are
        X, rows = self._designs(family, d, rule)
        rng = np.random.default_rng(d + 20)
        for r in rows.values():
            D = r.dense()
            W = rng.integers(0, 2, size=(7, r.n), dtype=np.uint8)
            ref = W @ D
            got = r.bit_sums()(np.packbits(W, axis=1, bitorder="little"))
            assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("family,d,rule", _KERNEL_CASES)
    def test_groups_share_indices(self, family, d, rule):
        X, rows = self._designs(family, d, rule)
        for r in rows.values():
            _assert_groups_valid(r)
        spec = BasisSpec(family, 1 if family is BasisFamily.HAAR else 3,
                         TensorPartition.build(rule, [[0.0, 1.0]] * d, 3, data=X))
        for deriv in itertools.product(range(spec.m), repeat=d):
            _assert_groups_valid(spec.eval_many(X, deriv))
        # one group per occupied cell
        cells = spec.partition.locate(X)
        n_cells = np.unique(np.ravel_multi_index(cells.T, spec.partition.kappa)).size
        assert np.unique(spec.eval_many(X).groups).size == n_cells


_RUNS_CASES = {
    "49 cells": np.random.default_rng(1).integers(0, 49, 5000),
    "full uint16 range": np.random.default_rng(2).integers(0, 1 << 16, 3000),
    "one group": np.full(40, 7),
    "ids from 2^16": np.random.default_rng(3).integers(1 << 16, 1 << 20, 3000),
    "mixed and negative": np.array([5, 70000, 5, -1, 3, 70000, -1]),
    "empty": np.zeros(0, dtype=np.intp),
}


@pytest.mark.parametrize("groups", _RUNS_CASES.values(), ids=_RUNS_CASES.keys())
def test_runs_match_int64_stable_argsort(groups):
    # ids in [0, 2^16) take the uint16 radix sort, the rest the int64 one
    order, lead, spans = _runs(groups)
    ref = np.argsort(groups.astype(np.int64), kind="stable")
    assert np.array_equal(order, ref)
    _, starts, counts = np.unique(groups[ref], return_index=True, return_counts=True)
    assert np.array_equal(lead, ref[starts])
    assert spans == list(zip(starts.tolist(), (starts + counts).tolist()))


# uneven by hand, and quantile-rule knots of a skewed sample
_KNOTS_1D = {
    "uneven": np.array([0.0, 0.2, 0.55, 0.7, 1.0]),
    "quantile": TensorPartition.build(
        KnotRule.QUANTILE, [[0.0, 1.0]], 6,
        data=np.random.default_rng(0).beta(2.0, 5.0, (400, 1)),
    ).knots[0],
}


class TestBSpline1d:
    @pytest.mark.parametrize("knots", sorted(_KNOTS_1D))
    @pytest.mark.parametrize("m", range(1, 8))
    def test_values_match_scipy(self, m, knots):
        spec = BasisSpec(BasisFamily.BSPLINE, m, _part([_KNOTS_1D[knots]]))
        x = np.random.default_rng(m).uniform(0.0, 1.0, 300)
        mine = spec.eval_many(x[:, None]).dense()
        ref = _scipy_design(spec, x)
        assert mine.shape == ref.shape
        assert_allclose(mine, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("knots", sorted(_KNOTS_1D))
    @pytest.mark.parametrize("m", range(1, 8))
    def test_values_on_knots_match_scipy(self, m, knots):
        # interior knots take the right limit, the right endpoint the left one
        t = _KNOTS_1D[knots]
        spec = BasisSpec(BasisFamily.BSPLINE, m, _part([t]))
        mine = spec.eval_many(t[1:, None]).dense()
        ref = _scipy_design(spec, t[1:])
        assert_allclose(mine, ref, rtol=0, atol=1e-12)
        assert_allclose(mine[-1], np.eye(spec.K)[-1], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("knots", sorted(_KNOTS_1D))
    @pytest.mark.parametrize("m,nu", [(m, nu) for m in range(2, 8) for nu in range(1, m)])
    def test_derivatives_match_scipy(self, m, nu, knots):
        t = _KNOTS_1D[knots]
        spec = BasisSpec(BasisFamily.BSPLINE, m, _part([t]))
        rng = np.random.default_rng(10 * m + nu)
        # keep strictly interior: scipy derivatives are ambiguous at knots
        x = rng.uniform(0.01, 0.99, 200)
        x = x[np.all(np.abs(x[:, None] - t[1:-1]) > 1e-3, axis=1)]
        mine = spec.eval_many(x[:, None], deriv=(nu,)).dense()
        ref = _scipy_design(spec, x, nu)
        assert_allclose(mine, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))

    def test_partition_of_unity(self):
        for m in (1, 2, 3, 4):
            part = _part([[0.0, 0.25, 0.5, 0.75, 1.0]])
            spec = BasisSpec(BasisFamily.BSPLINE, m, part)
            x = np.linspace(0, 1, 501)[:, None]
            sums = spec.eval_many(x).values.sum(axis=1)
            assert_allclose(sums, 1.0, atol=1e-13)

    def test_right_endpoint_left_limit(self):
        part = _part([[0.0, 0.5, 1.0]])
        spec = BasisSpec(BasisFamily.BSPLINE, 2, part)
        ev = spec.eval_many([[1.0]])
        assert_allclose(sorted(ev.values[0]), [0.0, 1.0], atol=1e-15)

    def test_nonnegative_and_local(self):
        part = _part([np.linspace(0, 1, 7)])
        spec = BasisSpec(BasisFamily.BSPLINE, 3, part)
        rows = spec.eval_many(np.random.default_rng(2).random((100, 1)))
        assert np.all(rows.values >= -1e-15)
        assert rows.width == 3


class TestBSplineTensor:
    def test_product_structure(self):
        partx = [[0.0, 0.4, 1.0], [0.0, 0.3, 0.6, 1.0]]
        spec = BasisSpec(BasisFamily.BSPLINE, 3, _part(partx))
        s1 = BasisSpec(BasisFamily.BSPLINE, 3, _part(partx[:1]))
        s2 = BasisSpec(BasisFamily.BSPLINE, 3, _part(partx[1:]))
        rng = np.random.default_rng(3)
        X = rng.random((50, 2))
        D = spec.eval_many(X).dense()
        D1 = s1.eval_many(X[:, :1]).dense()
        D2 = s2.eval_many(X[:, 1:]).dense()
        # C-order flattening: last axis fastest
        ref = np.einsum("na,nb->nab", D1, D2).reshape(50, -1)
        assert_allclose(D, ref, atol=1e-13)

    def test_mixed_derivative_product(self):
        partx = [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]]
        spec = BasisSpec(BasisFamily.BSPLINE, 3, _part(partx))
        s1 = BasisSpec(BasisFamily.BSPLINE, 3, _part(partx[:1]))
        s2 = BasisSpec(BasisFamily.BSPLINE, 3, _part(partx[1:]))
        X = np.random.default_rng(4).random((30, 2))
        D = spec.eval_many(X, deriv=(1, 2)).dense()
        ref = np.einsum(
            "na,nb->nab",
            s1.eval_many(X[:, :1], deriv=(1,)).dense(),
            s2.eval_many(X[:, 1:], deriv=(2,)).dense(),
        ).reshape(30, -1)
        assert_allclose(D, ref, atol=1e-10)

    def test_k_formula(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1], [0, 1]], [3, 5])
        spec = BasisSpec(BasisFamily.BSPLINE, 4, part)
        assert spec.K == (3 + 3) * (5 + 3)
        assert spec.eval_many([[0.3, 0.6]]).width == 4**2 == 16


class TestPiecewisePoly:
    def test_values_are_local_monomials(self):
        part = _part([[0.0, 0.5, 1.0]])
        spec = BasisSpec(BasisFamily.PP, 3, part)
        ev = spec.eval_many([[0.7]])
        z = (0.7 - 0.5) / 0.5
        assert_allclose(ev.values[0], [1.0, z, z**2], atol=1e-14)
        assert list(ev.indices[0]) == [3, 4, 5]  # second cell block

    def test_derivative_factor(self):
        part = _part([[0.0, 0.5, 1.0]])
        spec = BasisSpec(BasisFamily.PP, 3, part)
        ev = spec.eval_many([[0.7]], deriv=(1,))
        z, w = 0.4, 0.5
        # d/dx z^a = a z^(a-1) / w
        assert_allclose(ev.values[0], [0.0, 1.0 / w, 2.0 * z / w], atol=1e-14)

    def test_discontinuous_across_cells(self):
        part = _part([[0.0, 0.5, 1.0]])
        spec = BasisSpec(BasisFamily.PP, 2, part)
        left, right = spec.eval_many([[0.5 - 1e-9], [0.5]]).indices
        assert set(left) != set(right)

    def test_k_and_width(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1], [0, 1]], 3)
        spec = BasisSpec(BasisFamily.PP, 2, part)
        assert spec.K == 9 * 3
        assert spec.eval_many([[0.3, 0.6]]).width == len(alpha_list(2, 2)) == 3

    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_power_table_matches_pow_formula(self, m, d):
        # running products against c * z**k / width**nu, monomial by monomial
        rng = np.random.default_rng(10 * m + d)
        part = TensorPartition.build(KnotRule.QUANTILE, [[0.0, 1.0]] * d, 3,
                                     data=rng.random((50, d)))
        spec = BasisSpec(BasisFamily.PP, m, part)
        X = rng.random((200, d))
        cells = part.locate(X)
        lower, width = part.geometry(cells)
        z = (X - lower) / width
        derivs = {(0,) * d, (m - 1,) + (0,) * (d - 1), tuple(min(1, m - 1) for _ in range(d)),
                  tuple(int(v) for v in rng.integers(0, m, d))}
        for deriv in derivs:
            ref = np.zeros((X.shape[0], len(alpha_list(d, m))))
            for rank, a in enumerate(alpha_list(d, m)):
                if any(a[ell] < deriv[ell] for ell in range(d)):
                    continue
                col = np.ones(X.shape[0])
                for ell in range(d):
                    k = a[ell] - deriv[ell]
                    c = math.factorial(a[ell]) // math.factorial(k)
                    col *= c * z[:, ell] ** k / width[:, ell] ** deriv[ell]
                ref[:, rank] = col
            assert_allclose(spec.eval_many(X, deriv).values, ref, rtol=1e-13, atol=0)


class TestHaar:
    def test_indicator(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 4)
        spec = BasisSpec(BasisFamily.HAAR, 1, part)
        ev = spec.eval_many([[0.3]])
        assert list(ev.indices[0]) == [1]
        assert_allclose(ev.values[0], [1.0])

    def test_order_fixed(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 4)
        with pytest.raises(ConfigError):
            BasisSpec(BasisFamily.HAAR, 2, part)

    def test_no_derivatives(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 4)
        spec = BasisSpec(BasisFamily.HAAR, 1, part)
        with pytest.raises(UnsupportedDerivative):
            spec.eval_many([[0.3]], deriv=(1,))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_are_order1_pp_rows(self, d):
        part, X = _cell_sample(KnotRule.QUANTILE, d, 3, 100 * d, seed=d)
        haar = BasisSpec(BasisFamily.HAAR, 1, part)
        pp = BasisSpec(BasisFamily.PP, 1, part)
        a, b = haar.eval_many(X), pp.eval_many(X)
        assert (haar.K, a.width) == (pp.K, b.width) == (3**d, len(alpha_list(d, 1)))
        assert a.K == b.K
        for name in ("indices", "values", "groups"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert getattr(a, name).dtype == getattr(b, name).dtype, name


class TestDerivChecks:
    def test_order_too_high(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 4)
        spec = BasisSpec(BasisFamily.BSPLINE, 2, part)
        with pytest.raises(UnsupportedDerivative):
            spec.eval_many([[0.3]], deriv=(2,))

    def test_wrong_length(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1], [0, 1]], 2)
        spec = BasisSpec(BasisFamily.BSPLINE, 2, part)
        with pytest.raises(UnsupportedDerivative):
            spec.eval_many([[0.3, 0.3]], deriv=(1,))

    def test_negative_entry(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1], [0, 1]], 2)
        spec = BasisSpec(BasisFamily.PP, 2, part)
        with pytest.raises(UnsupportedDerivative):
            spec.eval_many([[0.3, 0.3]], deriv=(-1, 0))

    def test_check_deriv(self):
        assert check_deriv(None, 3) == (0, 0, 0)
        assert check_deriv(np.array([2, 0]), 2) == (2, 0)
        assert check_deriv(1, 1) == (1,)
        assert check_deriv((1.0, 0), 2) == (1, 0)
        for bad in ((1,), (0, 0, 0), (0, -1), (0.5, 0)):
            with pytest.raises(UnsupportedDerivative):
                check_deriv(bad, 2)


class TestOrderingMap:
    @pytest.mark.parametrize(
        "family,m",
        [(BasisFamily.BSPLINE, 3), (BasisFamily.PP, 2), (BasisFamily.HAAR, 1)],
    )
    def test_round_trip(self, family, m):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1], [0, 2]], [2, 3])
        spec = BasisSpec(family, m, part)
        omap = OrderingMap(spec)
        for k in range(spec.K):
            assert omap.to_flat(omap.from_flat(k)) == k

    def test_pp_block_layout(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 3)
        spec = BasisSpec(BasisFamily.PP, 2, part)
        omap = OrderingMap(spec)
        assert omap.to_flat(((1,), (0,))) == 2
        assert omap.to_flat(((1,), (1,))) == 3


class TestReproduction:
    @pytest.mark.parametrize("family", [BasisFamily.BSPLINE, BasisFamily.PP])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_poly_reproduction_1d(self, family, m):
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 4)
        spec = BasisSpec(family, m, part)
        assert polynomial_reproduction_check(spec, m - 1) < 1e-8

    def test_poly_reproduction_2d(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1], [0, 1]], 3)
        spec = BasisSpec(BasisFamily.BSPLINE, 2, part)
        assert polynomial_reproduction_check(spec, 1) < 1e-8

    def test_degree_beyond_span_fails(self):
        # degree m is NOT reproduced: the residual stays far from roundoff
        part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], 4)
        spec = BasisSpec(BasisFamily.BSPLINE, 2, part)
        assert polynomial_reproduction_check(spec, 2) > 1e-4


class TestDerivativeConsistency:
    def test_matches_central_difference(self):
        part = _part([[0.0, 0.37, 0.6, 1.0]])
        spec = BasisSpec(BasisFamily.BSPLINE, 4, part)
        rng = np.random.default_rng(8)
        coef = rng.standard_normal(spec.K)
        x = np.array([0.15, 0.45, 0.81])
        h = 1e-6
        f = lambda t: spec.eval_many(t[:, None]).row_dot(coef)
        num = (f(x + h) - f(x - h)) / (2 * h)
        ana = spec.eval_many(x[:, None], deriv=(1,)).row_dot(coef)
        assert_allclose(ana, num, rtol=1e-7, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    kappa=st.integers(min_value=1, max_value=8),
    fracs=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
)
def test_unity_property(m, kappa, fracs):
    part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]], kappa)
    spec = BasisSpec(BasisFamily.BSPLINE, m, part)
    X = np.asarray(fracs)[:, None]
    rows = spec.eval_many(X)
    assert np.all(rows.values >= -1e-12)
    assert_allclose(rows.values.sum(axis=1), 1.0, atol=1e-12)
