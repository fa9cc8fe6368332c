"""Partition-size selection: rule-of-thumb and direct plug-in.

Both selectors minimize the estimated leading IMSE over the number of cells
per axis (the same count on every axis), trading the variance term, which
grows like kappa^(d+2[q])/n, against the squared bias term, which shrinks
like kappa^(-2(m-[q])). The rule of thumb replaces the unknowns with a
global polynomial fit of degree m + 4, which is the piecewise-polynomial
basis of order m + 5 on a one-cell partition. The direct plug-in refits the
constants with a pilot series fit of kappa_rot^((2m+d)/(2m+d+2)) cells per
axis, rounded up, through :func:`imse_components`: the variance term is the
trace tr(Q^-1 Sigma Q^-1 Q_q), the squared bias the plug-in leading error
minus its projection. The pilot grows like n^(1/(2m+d+2)), the rate at which
its bias constant is consistent; the paper fixes that rate but leaves the
pilot's constant open. Both selectors report their constants free of kappa
and share one closed form.

The rule of thumb evaluates its design once: the derivatives of its global
fit are a coefficient map on that design, and its eta integrals a read-only
table cached per (family, m, d, q).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import biascorrect, inference
from .basis import BasisFamily, BasisSpec, alpha_list, check_deriv
from .errors import (
    ConfigError,
    DegenerateData,
    NegativeVarianceEstimate,
    RankDeficient,
    check_choice,
    check_floats,
    check_whole,
)
from .fit import EstimatorKind, check_response, fit_estimator
from .partition import KnotRule, TensorPartition, data_bounds

_QUAD_NODES = 20
_VAR_FLOOR = 1e-8


@dataclass(frozen=True)
class TuningReport:
    """Outcome of a selector run: both sizes and the kappa-free constants of
    the closed form that chose the selected one."""

    kappa_rot: int
    kappa_dpi: int | None
    bias_constant: float
    variance_constant: float
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
    d = len(np.atleast_1d(u1))
    u1 = check_deriv(u1, d)
    u2 = check_deriv(u2, d)
    q = check_deriv(q, d)
    family, m = check_choice(BasisFamily, family), check_whole(m, "order", 1)
    model = biascorrect.LeadingErrorModel(family, m, d)
    pts, wts = _gauss_nodes(d)
    vals = model.shape_values(u1, q, pts) * model.shape_values(u2, q, pts)
    return float(np.sum(wts * vals))


@lru_cache(maxsize=None)
def _eta_table(family, m, d, q):
    """Read-only (|Lambda_m|, |Lambda_m|) table of :func:`eta_constant` over
    the lambda set in its order, computed once per (family, m, d, q)."""
    lam = biascorrect.LeadingErrorModel(family, m, d).lambda_set
    table = np.array([[eta_constant(family, m, u1, u2, q) for u2 in lam] for u1 in lam])
    table.flags.writeable = False
    return table


def _one_cell_derivs(spec, design, coef, lam):
    """Derivatives of the one-cell fit ``design @ coef`` for every u in ``lam``,
    as an (n, |lam|) array: one product ``design @ dcoef``.

    On one cell of widths w, column a of the piecewise-polynomial design is
    z^a, and d^u z^a = perm(a, u) z^(a-u) / w^u is column a - u of the same
    design, so column k of ``dcoef`` maps each coefficient there.
    """
    alphas = alpha_list(spec.dim, spec.m)
    col = {a: r for r, a in enumerate(alphas)}
    width = [k[1] - k[0] for k in spec.partition.knots]
    dcoef = np.zeros((len(alphas), len(lam)))
    for k, u in enumerate(lam):
        scale = math.prod(w**e for w, e in zip(width, u))
        for r, a in enumerate(alphas):
            c = math.prod(map(math.perm, a, u))
            if c:
                dcoef[col[tuple(x - y for x, y in zip(a, u))], k] = c * coef[r] / scale
    return design @ dcoef


def _selector_inputs(X, y, family, m, q, bounds):
    """The checked inputs both selectors share: (X, y, family, m, q, bounds)."""
    X = check_floats(X, "X")
    y = check_response(y, X.shape[0])
    family = check_choice(BasisFamily, family)
    m = check_whole(m, "order", 1)
    q = check_deriv(q, X.shape[1])
    bounds = data_bounds(X) if bounds is None else check_floats(bounds, "bounds", 2)
    return X, y, family, m, q, bounds


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

    The preliminary fits are global polynomials of total degree m + 4: the
    piecewise-polynomial basis of order m + 5 on a one-cell partition of the
    support. One least-squares solve, with the design's columns scaled to
    unit root-mean-square, fits the levels and the squares together. The
    levels' derivatives give the bias constant through the eta integrals,
    and the fitted squares minus the squared levels give the average
    conditional variance; the closed-form IMSE minimizer is then rounded
    up. J counts the within-cell functions of the family. The design is
    evaluated once: on one cell every row activates all K functions in
    order, so its values are its dense form, and the derivative of each
    column is again a column of it, so the derivatives for all u in
    Lambda_m are one product with a (K, |Lambda_m|) coefficient map
    (:func:`_one_cell_derivs`). The eta integrals come from a table cached
    per (family, m, d, q), read in the order of the pairs.
    """
    X, y, family, m, q, bounds = _selector_inputs(X, y, family, m, q, bounds)
    n, d = X.shape
    if sum(q) > m - 1:
        raise ConfigError(f"derivative {q} too high for order {m}")

    degree = m + 4
    spec = BasisSpec(
        BasisFamily.PP, degree + 1, TensorPartition.build(KnotRule.EVEN, bounds, 1)
    )
    if n <= spec.K:
        raise ConfigError(f"global degree-{degree} fit needs n > {spec.K}")
    design = spec.eval_many(X).values
    col_scale = np.sqrt(np.mean(design**2, axis=0))
    col_scale[col_scale == 0] = 1.0
    coef, *_ = np.linalg.lstsq(
        design / col_scale, np.column_stack([y, y**2]), rcond=None
    )
    coef /= col_scale[:, None]
    mu, y2 = (design @ coef).T

    lam = biascorrect.LeadingErrorModel(family, m, d).lambda_set
    derivs = _one_cell_derivs(spec, design, coef[:, 0], lam)
    eta = _eta_table(family, m, d, (0,) * d)
    bias_sum = 0.0
    for i, k in itertools.product(range(len(lam)), repeat=2):
        bias_sum += eta[i, k] * float(np.mean(derivs[:, i] * derivs[:, k]))

    sig2 = np.clip(y2 - mu**2, _VAR_FLOOR, None)
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
    )


def dpi_select(X, y, family, m, q=None, rot=None, knots=KnotRule.EVEN, bounds=None):
    """Direct plug-in refinement of the rule-of-thumb size.

    A pilot series fit (orders m and m + 1 on the same partition, same knot
    rule as the final fit) re-estimates the squared-bias and variance
    constants pre-asymptotically through :func:`imse_components`, over the
    sample points; the rounded closed form shared with rot_select follows.
    The pilot has kappa_p = ceil(kappa_rot^((2m+d)/(2m+d+2))) cells per
    axis, so it grows like n^(1/(2m+d+2)). At kappa_rot itself the
    sampling variance of the plug-in bias is of the same order as the squared
    bias, and the bias constant would not be consistent. The paper fixes the
    pilot's rate, not its constant. The reported constants are free of kappa:
    kappa_p^(2(m-[q])) B_hat and kappa_p^(-(d+2[q])) V_hat. Falls back to
    kappa_rot, flagged, if the pilot fit is rank deficient.
    """
    X, y, family, m, q, bounds = _selector_inputs(X, y, family, m, q, bounds)
    n, d = X.shape
    if rot is None:
        rot = rot_select(X, y, family, m, q, bounds=bounds)
    kr = rot.kappa_rot
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
            rot_fallback=True,
        )

    var = inference.sigma_hat(pre, j=0, hc=inference.HCKind.HC0)
    comp = imse_components(pre, var, q=q)
    if comp["V_hat"] <= 0:
        raise NegativeVarianceEstimate("plug-in variance constant not positive")

    qo = sum(q)
    bias_constant = kp ** (2.0 * (m - qo)) * comp["B_hat"]
    variance_constant = kp ** (-(d + 2.0 * qo)) * comp["V_hat"]
    return TuningReport(
        kappa_rot=kr,
        kappa_dpi=_imse_kappa(bias_constant, variance_constant, m, d, qo, n),
        bias_constant=bias_constant,
        variance_constant=variance_constant,
    )


def imse_components(fit, var, grid=None, q=None):
    """Pre-asymptotic IMSE pieces {V_hat, B_hat} for the j = 0 estimator.

    V_hat is the mean of gamma_q(x)' Sigma gamma_q(x) over the points, taken
    as one trace: tr(Q^-1 Sigma Q^-1 Q_pts), with Q the Gram of the fit and
    Q_pts the mean outer product of the order-m basis derivatives p_q at
    the points. No (G, K) array of weights is formed. B_hat is the mean
    squared plug-in leading error minus its sample projection. With no
    grid, both average over the sample points (the empirical-density
    weighting used by the selectors); a grid argument switches to uniform
    weighting over the given points. The rows and the lead come from the
    fit's row bundle at the points, which at the sample with q = 0 holds the
    fit's own design and lead. ``var`` must be the j = 0 variance of ``fit``.
    """
    inference.check_variance(fit, var)
    if var.j != 0:
        raise ConfigError(f"IMSE components need the j = 0 variance, got j = {var.j}")
    pts = fit.X if grid is None else grid
    rows = fit.at(pts, q).main
    lead = biascorrect.leading_bias_many(fit, pts, q)
    gram = fit.gram_main
    v_hat = float(
        np.sum(gram.solve(var.sigma_mat) * gram.solve(rows.weighted_cross(rows)).T)
    )
    bias_pts = lead - biascorrect.projected_bias_term_many(fit, pts, q)
    return {"V_hat": v_hat, "B_hat": float(np.mean(bias_pts**2))}
