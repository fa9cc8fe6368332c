"""Property tests: awkward samples end in a typed error or finite intervals.

Each case runs the production route from a sample to pointwise intervals,
``TensorPartition.build`` -> ``fit_estimator`` -> ``sigma_hat`` ->
``pointwise_ci`` for every estimator kind j = 0..3, and accepts finite
estimates and standard errors or an :class:`LspartError`, nothing else.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lspart.basis import BasisFamily
from lspart.errors import LspartError
from lspart.fit import EstimatorKind, fit_estimator
from lspart.inference import HCKind, pointwise_ci, sigma_hat
from lspart.partition import KnotRule, TensorPartition, data_bounds

_HC = st.sampled_from(list(HCKind))
_FAMILY = st.sampled_from([BasisFamily.BSPLINE, BasisFamily.PP])


def _typed_or_finite(rule, bounds, kappa, X, y, family, m, hc):
    try:
        bounds = data_bounds(X) if bounds is None else np.asarray(bounds, dtype=float)
        part = TensorPartition.build(rule, bounds, kappa, data=X)
        fit = fit_estimator(EstimatorKind.default(family, m, part), X, y)
        pts = bounds[:, 0] + np.array([[0.25], [0.5], [0.9]]) * (bounds[:, 1] - bounds[:, 0])
        for j in range(4):
            res = pointwise_ci(fit, sigma_hat(fit, j, hc), pts)
            assert np.all(np.isfinite(res.estimates)), j
            assert np.all(np.isfinite(res.se)) and np.all(res.se > 0), j
    except LspartError:
        pass


def _response(X, seed):
    rng = np.random.default_rng(seed)
    return np.sin(3 * X[:, 0]) + 0.3 * rng.standard_normal(X.shape[0])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(10, 300),
    levels=st.integers(2, 12),
    kappa=st.integers(2, 8),
    m=st.integers(1, 3),
    family=_FAMILY,
    hc=_HC,
    seed=st.integers(0, 2**16),
)
def test_tied_quantile_knots(n, levels, kappa, m, family, hc, seed):
    # few distinct values: quantile knots tie, or cells hold one value each
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, 1)) / (levels - 1)
    _typed_or_finite(KnotRule.QUANTILE, None, kappa, X, _response(X, seed), family, m, hc)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(30, 400),
    stray=st.integers(0, 4),
    d=st.integers(1, 2),
    kappa=st.integers(2, 6),
    m=st.integers(1, 3),
    family=_FAMILY,
    hc=_HC,
    seed=st.integers(0, 2**16),
)
def test_near_empty_cells(n, stray, d, kappa, m, family, hc, seed):
    # the sample fills the lower half of the first axis; ``stray`` points
    # (maybe none) reach the upper half, so its cells are near empty
    rng = np.random.default_rng(seed)
    X = rng.random((n + stray, d))
    X[:n, 0] *= 0.5
    X[n:, 0] = 0.5 + 0.5 * X[n:, 0]
    bounds = [[0.0, 1.0]] * d
    _typed_or_finite(KnotRule.EVEN, bounds, kappa, X, _response(X, seed), family, m, hc)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(30, 300),
    level=st.floats(0.0, 1.0),
    explicit=st.booleans(),
    rule=st.sampled_from(list(KnotRule)),
    kappa=st.integers(1, 4),
    m=st.integers(1, 3),
    family=_FAMILY,
    hc=_HC,
    seed=st.integers(0, 2**16),
)
def test_constant_column(n, level, explicit, rule, kappa, m, family, hc, seed):
    # the second covariate never varies: inside given bounds, or as bounds
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.random(n), np.full(n, level)])
    bounds = [[0.0, 1.0]] * 2 if explicit else None
    _typed_or_finite(rule, bounds, kappa, X, _response(X, seed), family, m, hc)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(100, 1200),
    family=_FAMILY,
    hc=_HC,
    seed=st.integers(0, 2**16),
)
def test_three_dims_at_the_kappa_cap(n, family, hc, seed):
    # d = 3 at the default cap of 5 cells per axis, from too few points up
    rng = np.random.default_rng(seed)
    X = rng.random((n, 3))
    _typed_or_finite(KnotRule.EVEN, [[0.0, 1.0]] * 3, 5, X, _response(X, seed), family, 2, hc)
