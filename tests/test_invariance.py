"""Metamorphic relations of a fit and its inference at a fixed kappa.

Each relation changes a sample in a way whose effect on every output is
known without a truth or a coverage window:

- y -> 3 - 2.5 y: estimates map the same way, standard errors scale by 2.5
  and the plug-in band's quantile keeps its bits;
- a permutation of the rows: estimates and standard errors agree, the
  leverage is permuted and the plug-in quantile keeps its bits;
- x -> s + D x with D > 0 per axis: the even partition maps onto itself,
  so a q-th derivative and its standard error scale by prod D^-q and the
  leverage is unchanged.

The corners are d = 1 and 2; B-splines and piecewise polynomials of order 2
and Haar; every j = 0..3; HC0 and HC3. The seeds and the relative tolerance
were fixed before the first run. The selectors' relations are not here:
the selected kappa depends on the units of x.
"""

import functools

import numpy as np
import pytest

from lspart.fit import EstimatorKind, fit_estimator
from lspart.inference import HCKind, band_plugin, make_grid, pointwise_ci, sigma_hat
from lspart.partition import KnotRule, TensorPartition, data_bounds

SEED = 20261022
TOL = 1e-9  # relative to the largest entry of the expected array
DRAWS = 200
FAMILIES = (("bspline", 2), ("pp", 2), ("haar", 1))
# n, kappa and grid points per axis; grid steps 1/25 and 1/9 never meet a
# knot inside the support, where a piecewise polynomial may jump
SIZES = {1: (600, 6, 26), 2: (1500, 4, 10)}
SHIFT = {1: (-4.0,), 2: (-4.0, 0.5)}
SLOPE = {1: (7.0,), 2: (7.0, 0.125)}

CORNERS = [
    pytest.param(family, m, d, hc, id=f"{family}-d{d}-{hc.value}")
    for family, m in FAMILIES for d in (1, 2) for hc in (HCKind.HC0, HCKind.HC3)
]


def _sample(d):
    rng = np.random.default_rng([SEED, d])
    n = SIZES[d][0]
    X = rng.random((n, d))
    noise = (0.2 + 0.3 * X[:, 0]) * rng.standard_normal(n)
    return X, np.sin(3.0 * X[:, 0]) + X[:, -1] ** 2 + noise


def _grid(X):
    return make_grid(data_bounds(X), SIZES[X.shape[1]][2])


def _outputs(family, m, X, y, hc, q, grid):
    """Per j: (estimates, se) on ``grid`` at ``q``, the leverage and, at
    q = 0, the plug-in band's quantile."""
    part = TensorPartition.build(KnotRule.EVEN, data_bounds(X), SIZES[X.shape[1]][1])
    fit = fit_estimator(EstimatorKind.default(family, m, part), X, y)
    out = {}
    for j in range(4):
        var = sigma_hat(fit, j, hc)
        pw = pointwise_ci(fit, var, grid, q)
        quantile = None
        if not any(q):
            quantile = band_plugin(fit, var, grid, q, draws=DRAWS, seed=7).quantile
        out[j] = (pw.estimates, pw.se, fit.leverage(j), quantile)
    return out


@functools.lru_cache(maxsize=None)
def _base(family, m, d, hc, q):
    X, y = _sample(d)
    return _outputs(family, m, X, y, hc, q, _grid(X))


def _assert_close(got, want, what):
    gap = np.max(np.abs(got - want))
    assert gap <= TOL * np.max(np.abs(want)), f"{what}: gap {gap:.3g}"


@pytest.mark.parametrize("family, m, d, hc", CORNERS)
def test_affine_response(family, m, d, hc):
    X, y = _sample(d)
    q = (0,) * d
    moved = _outputs(family, m, X, 3.0 - 2.5 * y, hc, q, _grid(X))
    for j, (est, se, _, quantile) in _base(family, m, d, hc, q).items():
        _assert_close(moved[j][0], 3.0 - 2.5 * est, f"j{j} estimates")
        _assert_close(moved[j][1], 2.5 * se, f"j{j} se")
        assert moved[j][3] == quantile, j


@pytest.mark.parametrize("family, m, d, hc", CORNERS)
def test_row_permutation(family, m, d, hc):
    X, y = _sample(d)
    q = (0,) * d
    perm = np.random.default_rng([SEED, d, 1]).permutation(X.shape[0])
    moved = _outputs(family, m, X[perm], y[perm], hc, q, _grid(X))
    for j, (est, se, lev, quantile) in _base(family, m, d, hc, q).items():
        _assert_close(moved[j][0], est, f"j{j} estimates")
        _assert_close(moved[j][1], se, f"j{j} se")
        _assert_close(moved[j][2], lev[perm], f"j{j} leverage")
        assert moved[j][3] == quantile, j


@pytest.mark.parametrize("family, m, d, hc, deriv", [
    pytest.param(*c.values, deriv, id=f"{c.id}-q{deriv}")
    for c in CORNERS for deriv in range(min(c.values[1], 2))  # Haar: q = 0 only
])
def test_affine_covariates(family, m, d, hc, deriv):
    X, y = _sample(d)
    q = (deriv,) + (0,) * (d - 1)
    shift, slope = np.array(SHIFT[d]), np.array(SLOPE[d])
    moved = _outputs(family, m, shift + slope * X, y, hc, q, shift + slope * _grid(X))
    factor = np.prod(slope ** -np.array(q, dtype=float))
    for j, (est, se, lev, _) in _base(family, m, d, hc, q).items():
        _assert_close(moved[j][0], factor * est, f"j{j} estimates")
        _assert_close(moved[j][1], factor * se, f"j{j} se")
        _assert_close(moved[j][2], lev, f"j{j} leverage")
