"""Partition-size selection: rule-of-thumb and direct plug-in.

Both selectors minimize the estimated leading IMSE over the number of cells
per axis (the same count on every axis), trading the variance term, which
grows like kappa^(d+2[q])/n, against the squared bias term, which shrinks
like kappa^(-2(m-[q])). The rule of thumb replaces the unknowns with global
polynomial fits; the direct plug-in refits the constants with a pilot series
fit of kappa_rot^((2m+d)/(2m+d+2)) cells per axis, rounded up. The pilot grows
like n^(1/(2m+d+2)), the rate at which its bias constant is consistent; the
paper fixes that rate but leaves the pilot's constant open. Both selectors
report their constants free of kappa and share one closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import biascorrect, inference
from .basis import BasisFamily, BasisSpec, alpha_list
from .errors import (
    ConfigError,
    DegenerateData,
    NegativeVarianceEstimate,
    RankDeficient,
)
from .fit import EstimatorKind, fit_estimator
from .partition import KnotRule, TensorPartition, data_bounds

_QUAD_NODES = 20
_VAR_FLOOR = 1e-8


@dataclass(frozen=True)
class TuningReport:
    """Outcome of a selector run."""

    kappa_rot: int
    kappa_dpi: int | None
    bias_constant: float
    variance_constant: float
    eta_table: dict
    prelim_degree: int
    n: int
    rot_fallback: bool = False

    def selected(self):
        return self.kappa_dpi if self.kappa_dpi is not None else self.kappa_rot


@lru_cache(maxsize=None)
def _gauss_nodes(d):
    x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
    z = (x + 1.0) / 2.0  # map to [0, 1]
    w = w / 2.0
    grids = np.meshgrid(*([z] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.prod(
        np.stack([g.ravel() for g in np.meshgrid(*([w] * d), indexing="ij")], axis=1),
        axis=1,
    )
    return pts, wts


def eta_constant(family, m, u1, u2, q=None):
    """Unit-cell integral of the product of two leading-error shapes.

    20-node Gauss-Legendre per axis; the integrands are polynomials of
    degree at most 2m per axis, so the value is exact for every admissible
    order.
    """
    u1 = tuple(int(v) for v in np.atleast_1d(u1))
    u2 = tuple(int(v) for v in np.atleast_1d(u2))
    d = len(u1)
    if len(u2) != d:
        raise ConfigError("index tuples disagree in length")
    q = (0,) * d if q is None else tuple(int(v) for v in np.atleast_1d(q))
    model = biascorrect.LeadingErrorModel(BasisFamily(family), int(m), d)
    pts, wts = _gauss_nodes(d)
    vals = model.shape_values(u1, q, pts) * model.shape_values(u2, q, pts)
    return float(np.sum(wts * vals))


def _eta_table(family, m, d, q):
    model = biascorrect.LeadingErrorModel(BasisFamily(family), int(m), d)
    lam = model.lambda_set
    table = {}
    for u1, u2 in itertools.product(lam, lam):
        table[(u1, u2, tuple(q))] = eta_constant(family, m, u1, u2, q)
    return table


class _GlobalPolyFit:
    """Least-squares global polynomial of a given total degree.

    Coordinates are affinely mapped to [-1, 1] per axis and columns scaled
    to unit root-mean-square before the solve, for conditioning; requested
    derivatives are taken analytically with the chain factors restored.
    """

    def __init__(self, X, y, degree, bounds):
        self.X = X
        self.degree = int(degree)
        self.bounds = bounds
        d = X.shape[1]
        self.alphas = [
            a
            for a in itertools.product(range(self.degree + 1), repeat=d)
            if sum(a) <= self.degree
        ]
        self.alphas.sort(key=lambda a: (sum(a), a))
        if X.shape[0] <= len(self.alphas):
            raise ConfigError(
                f"global degree-{self.degree} fit needs n > {len(self.alphas)}"
            )
        self.chain = 2.0 / (bounds[:, 1] - bounds[:, 0])
        S = self._scaled(X)
        design = self._columns(S, (0,) * d)
        self.col_scale = np.sqrt(np.mean(design**2, axis=0))
        self.col_scale[self.col_scale == 0] = 1.0
        coef, *_ = np.linalg.lstsq(design / self.col_scale, y, rcond=None)
        self.coef = coef / self.col_scale

    def _scaled(self, X):
        lo = self.bounds[:, 0]
        return (X - lo) * self.chain - 1.0

    def _columns(self, S, u):
        n, d = S.shape
        cols = np.empty((n, len(self.alphas)))
        for c, a in enumerate(self.alphas):
            if any(a[ell] < u[ell] for ell in range(d)):
                cols[:, c] = 0.0
                continue
            col = np.ones(n)
            for ell in range(d):
                k = a[ell] - u[ell]
                fac = math.factorial(a[ell]) // math.factorial(k)
                col *= fac * S[:, ell] ** k
            cols[:, c] = col
        return cols

    def deriv(self, X, u=None):
        d = X.shape[1]
        u = (0,) * d if u is None else tuple(int(v) for v in np.atleast_1d(u))
        S = self._scaled(X)
        vals = self._columns(S, u) @ self.coef
        return vals * float(np.prod(self.chain ** np.asarray(u)))


def _kappa_ceil(base):
    if not np.isfinite(base):
        raise NegativeVarianceEstimate("selector produced a nonfinite size")
    return max(1, math.ceil(base))


def _imse_kappa(bias_constant, variance_constant, m, d, qo, n):
    """Rounded-up minimizer of kappa^(-2(m-[q])) B + kappa^(d+2[q]) V / n."""
    ratio = max(bias_constant, 0.0) * 2.0 * (m - qo)
    ratio /= (d + 2.0 * qo) * variance_constant
    return _kappa_ceil(ratio ** (1.0 / (2 * m + d)) * n ** (1.0 / (2 * m + d)))


def _pilot_kappa(kappa_rot, m, d):
    """Smallest integer k with k^(2m+d+2) >= kappa_rot^(2m+d).

    kappa_rot grows like n^(1/(2m+d)), so the pilot grows like
    n^(1/(2m+d+2)). Integer powers make the rounding exact.
    """
    a, b = 2 * m + d, 2 * m + d + 2
    k = math.ceil(kappa_rot ** (a / b))
    while k > 1 and (k - 1) ** b >= kappa_rot**a:
        k -= 1
    while k**b < kappa_rot**a:
        k += 1
    return k


def rot_select(X, y, family, m, q=None, bounds=None):
    """Rule-of-thumb number of cells per axis.

    Two global polynomial fits of degree m + 4 (levels, then squares)
    estimate the bias constant through the eta integrals and the average
    conditional variance; the closed-form IMSE minimizer is then rounded
    up. J counts the within-cell functions of the family.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    family = BasisFamily(family)
    m = int(m)
    q = (0,) * d if q is None else tuple(int(v) for v in np.atleast_1d(q))
    if sum(q) > m - 1:
        raise ConfigError(f"derivative {q} too high for order {m}")
    bounds = data_bounds(X) if bounds is None else np.asarray(bounds, dtype=float)

    degree = m + 4
    fit_mu = _GlobalPolyFit(X, y, degree, bounds)
    fit_y2 = _GlobalPolyFit(X, y**2, degree, bounds)

    model = biascorrect.LeadingErrorModel(family, m, d)
    lam = model.lambda_set
    q0 = (0,) * d
    eta = _eta_table(family, m, d, q0)
    derivs = {u: fit_mu.deriv(X, u) for u in lam}
    bias_sum = 0.0
    for u1, u2 in itertools.product(lam, lam):
        bias_sum += eta[(u1, u2, q0)] * float(np.mean(derivs[u1] * derivs[u2]))

    sig2 = fit_y2.deriv(X) - fit_mu.deriv(X) ** 2
    sig2 = np.clip(sig2, _VAR_FLOOR, None)
    J = 1 if family is BasisFamily.BSPLINE else math.comb(d + m - 1, m - 1)
    v_hat = float(np.mean(sig2)) * J
    if v_hat <= 0:
        raise NegativeVarianceEstimate("average conditional variance not positive")

    kappa = _imse_kappa(bias_sum, v_hat, m, d, sum(q), n)
    return TuningReport(
        kappa_rot=kappa,
        kappa_dpi=None,
        bias_constant=float(bias_sum),
        variance_constant=v_hat,
        eta_table=eta,
        prelim_degree=degree,
        n=n,
    )


def dpi_select(X, y, family, m, q=None, rot=None, knots=KnotRule.EVEN, bounds=None):
    """Direct plug-in refinement of the rule-of-thumb size.

    A pilot series fit (orders m and m + 1 on the same partition, same knot
    rule as the final fit) re-estimates the squared-bias and variance
    constants pre-asymptotically; the rounded closed form shared with
    rot_select follows. The pilot has kappa_p = ceil(kappa_rot^((2m+d)/(2m+d+2)))
    cells per axis, so it grows like n^(1/(2m+d+2)). At kappa_rot itself the
    sampling variance of the plug-in bias is of the same order as the squared
    bias, and the bias constant would not be consistent. The paper fixes the
    pilot's rate, not its constant. The reported constants are free of kappa:
    kappa_p^(2(m-[q])) B_hat and kappa_p^(-(d+2[q])) V_hat. Falls back to
    kappa_rot, flagged, if the pilot fit is rank deficient.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    family = BasisFamily(family)
    m = int(m)
    q = (0,) * d if q is None else tuple(int(v) for v in np.atleast_1d(q))
    bounds = data_bounds(X) if bounds is None else np.asarray(bounds, dtype=float)
    if rot is None:
        rot = rot_select(X, y, family, m, q, bounds=bounds)
    kr = int(rot.kappa_rot)
    kp = _pilot_kappa(kr, m, d)

    try:
        part = TensorPartition.build(knots, bounds, kp, data=X)
        kind = EstimatorKind.default(family, m, part)
        pre = fit_estimator(kind, X, y)
    except (RankDeficient, DegenerateData):
        return TuningReport(
            kappa_rot=kr,
            kappa_dpi=kr,
            bias_constant=rot.bias_constant,
            variance_constant=rot.variance_constant,
            eta_table=rot.eta_table,
            prelim_degree=m + 1,
            n=n,
            rot_fallback=True,
        )

    bias_pts = biascorrect.leading_bias_many(pre, X, q)
    bias_pts -= biascorrect.projected_bias_term_many(pre, X, q)
    b_hat = float(np.mean(bias_pts**2))

    var = inference.sigma_hat(pre, j=0, hc=inference.HCKind.HC0)
    gamma0 = pre.gamma_many(X, q, j=0)
    v_hat = float(np.mean(inference.quadratic_form(gamma0, var.sigma_mat)))
    if v_hat <= 0:
        raise NegativeVarianceEstimate("plug-in variance constant not positive")

    qo = sum(q)
    bias_constant = kp ** (2.0 * (m - qo)) * b_hat
    variance_constant = kp ** (-(d + 2.0 * qo)) * v_hat
    return TuningReport(
        kappa_rot=kr,
        kappa_dpi=_imse_kappa(bias_constant, variance_constant, m, d, qo, n),
        bias_constant=bias_constant,
        variance_constant=variance_constant,
        eta_table=rot.eta_table,
        prelim_degree=m + 1,
        n=n,
    )


def imse_components(fit, var, grid=None, q=None):
    """Pre-asymptotic IMSE pieces {V_hat, B_hat} for the j = 0 estimator.

    With no grid, both components average over the sample points (the
    empirical-density weighting used by the selectors); a grid argument
    switches to uniform weighting over the given points.
    """
    pts = fit.X if grid is None else np.atleast_2d(np.asarray(grid, dtype=float))
    gamma0 = fit.gamma_many(pts, q, j=0)
    v_hat = float(np.mean(inference.quadratic_form(gamma0, var.sigma_mat)))
    bias_pts = biascorrect.leading_bias_many(fit, pts, q)
    bias_pts -= biascorrect.projected_bias_term_many(fit, pts, q)
    return {"V_hat": v_hat, "B_hat": float(np.mean(bias_pts**2))}
