"""Heteroskedasticity-robust variances, pointwise intervals, uniform bands.

All inference runs through the sandwich pieces

    Sigma_j = (1/n) sum_i w_i(hc) epshat_{i,j}^2 Pi_j(x_i) Pi_j(x_i)'
    Omega_j(x) = gamma_j(x)' Sigma_j gamma_j(x)

with gamma and Pi matching the estimator kind j. Pointwise intervals use
normal quantiles. Uniform bands calibrate the supremum of the studentized
process over a grid, either by simulating Gaussian vectors (plug-in) or by
wild-bootstrap resampling of residuals.

The plug-in band reads everything off one square root of Sigma_j: with
A = Gamma Sigma_j^(1/2), Omega on the grid is the row sum of A**2 and the
simulated process is A / sqrt(Omega), in O(K^3 + G K B) and no (G, n)
array. Only the bootstrap numerators and pointwise Omega at a few points
take the per-observation route through the score matrix
s[g, i] = gamma_g' Pi_j(x_i).

Each band call makes one generator, ``np.random.default_rng(seed)``, where
``seed`` is an int or a sequence such as (master, rep, j). Draw b takes
row b of one row-major stream: n Rademacher weights for the bootstrap,
K_j standard normals for the plug-in band. Both are generated in blocks of
``_DRAW_CHUNK`` draws, and each draw's supremum is computed so that its
rounding does not depend on the block it falls in. A band therefore
depends only on the seed and the number of draws, not the block size.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import (
    ConfigError,
    InvalidGrid,
    LeverageOverflow,
    NonPositiveVariance,
    OutOfSupport,
)

_LEVERAGE_TOL = 1e-8
_DRAW_CHUNK = 128  # band draws per block: memory O(chunk) rows, not O(draws)


class HCKind(enum.Enum):
    HC0 = "hc0"
    HC1 = "hc1"
    HC2 = "hc2"
    HC3 = "hc3"


def normal_quantile(p):
    """Inverse standard-normal CDF."""
    return float(scipy.special.ndtri(p))


class VarianceEstimate:
    """Sandwich variance pieces for one estimator kind.

    Binds the fit, the kind j, and the HC residual weighting. HC2/HC3 use
    :meth:`FitResult.leverage`: row-wise quadratic forms against the inverse
    Gram, solved from its dense Cholesky factor, or for j >= 2 against a
    generalized inverse of the stacked Gram built from the Schur complement
    of its bias-correction block, less its ``kind.null_dim`` null directions.
    j = 2 and j = 3 share the cached leverage of their common stacked design.
    The dense Sigma matrix is formed lazily by the Gram accumulator
    :meth:`SparseRows.weighted_cross`; the plug-in band takes Omega from its
    square root. :meth:`omega_many` needs no Sigma: at a few points the
    per-observation route through :meth:`scores` is cheaper than forming it,
    and the bootstrap band needs those scores for its numerators anyway.
    """

    def __init__(self, fit, j, hc=HCKind.HC0):
        self.fit = fit
        self.j = fit.kind.require_j(j)
        self.hc = HCKind(hc)
        self.design = fit.design_for(self.j)
        resid = fit.residuals(self.j)
        n = fit.n
        if self.hc is HCKind.HC0:
            w = np.ones(n)
        elif self.hc is HCKind.HC1:
            K_j = self.design.K
            if n <= K_j:
                raise ConfigError(f"HC1 needs n > K_j = {K_j}")
            w = np.full(n, n / (n - K_j))
        else:
            lev = fit.leverage(self.j)
            if np.any(lev >= 1.0 - _LEVERAGE_TOL):
                i = int(np.argmax(lev))
                raise LeverageOverflow(
                    f"observation {i} has leverage {lev[i]:.6f}; "
                    "HC2/HC3 weights undefined"
                )
            w = 1.0 / (1.0 - lev)
            if self.hc is HCKind.HC3:
                w = w**2
        self.weights = w
        self.wre2 = w * resid**2
        self._sigma = None

    @property
    def sigma_mat(self):
        """Dense Sigma_j, (K_j, K_j); symmetric by construction."""
        if self._sigma is None:
            sig = self.design.weighted_cross(self.design, self.wre2)
            self._sigma = 0.5 * (sig + sig.T)  # kill roundoff asymmetry
        return self._sigma

    def scores(self, gamma):
        """s[g, i] = gamma_g' Pi_j(x_i): the per-observation scores, (G, n)."""
        return self.design.rows_times(np.asarray(gamma).T).T

    def omega_from_scores(self, scores):
        """Omega for precomputed scores: (1/n) sum_i wre2_i s_{gi}^2."""
        return (scores**2) @ self.wre2 / self.fit.n

    def omega_many(self, pts, q=None, check=True):
        """Omega_j at many points via the per-observation sparse route."""
        gamma = self.fit.gamma_many(pts, q, self.j)
        omega = self.omega_from_scores(self.scores(gamma))
        if check and np.any(omega <= 0):
            raise NonPositiveVariance(
                "variance estimate is not positive at an evaluation point"
            )
        return omega

    def omega(self, x, q=None):
        return float(self.omega_many(np.atleast_2d(x), q)[0])


def sigma_hat(fit, j, hc=HCKind.HC0):
    """Build the variance pieces for kind ``j``; see VarianceEstimate."""
    return VarianceEstimate(fit, j, hc)


def quadratic_form(gamma, sigma):
    """Row-wise gamma' Sigma gamma for dense inputs; the oracle route."""
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    return np.sum((gamma @ sigma) * gamma, axis=1)


@dataclass(frozen=True)
class PointwiseResult:
    """Point estimates with standard errors and normal CIs on shared points."""

    points: np.ndarray
    estimates: np.ndarray
    se: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    alpha: float

    def t_stat(self, reference=0.0):
        """Studentized distance from a reference value (array-broadcast)."""
        return (self.estimates - reference) / self.se


def pointwise_ci(fit, var, pts, q=None, alpha=0.05, j=None):
    """Normal-quantile pointwise confidence intervals at ``pts``.

    ``j`` defaults to the kind bound into ``var``; passing a different one
    is an error. Raises NonPositiveVariance if any Omega is nonpositive.
    """
    if j is not None and int(j) != var.j:
        raise ConfigError(f"variance estimate is for j = {var.j}, got j = {j}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    est = fit.estimate_many(pts, q, var.j)
    omega = var.omega_many(pts, q)
    se = np.sqrt(omega / fit.n)
    zq = normal_quantile(1.0 - alpha / 2.0)
    return PointwiseResult(
        points=pts,
        estimates=est,
        se=se,
        ci_lo=est - zq * se,
        ci_hi=est + zq * se,
        alpha=alpha,
    )


@dataclass(frozen=True)
class BandResult:
    """Uniform confidence band over a grid."""

    grid: np.ndarray
    estimates: np.ndarray
    half_widths: np.ndarray
    quantile: float
    alpha: float
    method: str
    draws: int

    @property
    def lo(self):
        return self.estimates - self.half_widths

    @property
    def hi(self):
        return self.estimates + self.half_widths

    def covers(self, truth):
        """Pointwise boolean cover indicators against a truth vector."""
        truth = np.asarray(truth, dtype=float)
        return (self.lo <= truth) & (truth <= self.hi)


def make_grid(bounds, points_per_dim=None):
    """Evenly spaced product grid over the support, endpoints included.

    Default 100 points for d = 1, 20 per axis for d >= 2.
    """
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    d = bounds.shape[0]
    if points_per_dim is None:
        points_per_dim = 100 if d == 1 else 20
    g = int(points_per_dim)
    if g < 2:
        raise InvalidGrid(f"need at least 2 grid points per axis, got {g}")
    axes = [np.linspace(bounds[ell, 0], bounds[ell, 1], g) for ell in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _prep_band(fit, var, grid, q, alpha, draws):
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if int(draws) < 100:
        raise ConfigError(f"need at least 100 draws, got {draws}")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] < 1:
        raise InvalidGrid("empty evaluation grid")
    part = fit.kind.main_spec.partition
    try:
        part.locate(grid)
    except OutOfSupport as exc:
        raise InvalidGrid(str(exc)) from exc
    _warn_grid_spacing(part, grid)
    gamma = fit.gamma_many(grid, q, var.j)
    est = fit.estimate_many(grid, q, var.j)
    return grid, gamma, est


def _check_grid_omega(omega):
    if np.any(omega <= 0):
        raise NonPositiveVariance("variance not positive somewhere on the grid")


def _warn_grid_spacing(part, grid):
    stats = part.mesh_stats()
    for ell in range(part.dim):
        coords = np.unique(grid[:, ell])
        if coords.shape[0] < 2:
            continue
        spacing = float(np.max(np.diff(coords)))
        if spacing > stats["width_max"][ell] / 2 + 1e-12:
            warnings.warn(
                f"grid spacing {spacing:.4g} on axis {ell} exceeds half the "
                f"largest cell width {stats['width_max'][ell]:.4g}; the "
                "supremum may be under-resolved",
                RuntimeWarning,
                stacklevel=3,
            )


def _sup_quantile(sups, alpha):
    # upper order statistic at rank ceil(B(1-alpha)), 1-based
    sups = np.sort(sups)
    B = sups.shape[0]
    rank = min(max(math.ceil(B * (1.0 - alpha)), 1), B)
    return float(sups[rank - 1])


def _rowwise(rows, mat):
    """``rows @ mat.T`` as one matrix-vector product per row, (c, G).

    A BLAS GEMM rounds a row differently by the number of rows in the block
    and by the thread count, so a draw's supremum would depend on the block
    it lands in. Taken one row at a time, each product has the same shape
    whatever the block, and so the same rounding.
    """
    return np.matmul(rows[:, None, :], mat.T)[:, 0, :]


def _exact_sign_sums(S):
    """Round each row of S, in place, to a power-of-two grid fine enough that
    every sum of its entries with weights 0 or +-1 is exact in float64.

    With unit 2^(e - 52) for sum_i |S_gi| < 2^e, every partial sum of such a
    combination is an integer multiple of the unit below 2^53 units, so
    GEMM's result no longer depends on its summation order (block shape,
    kernel, threads). The rounding moves a sum by at most n/2 units, the
    order of a float64 GEMM's own error bound.
    """
    unit = np.ldexp(1.0, np.frexp(np.sum(np.abs(S), axis=1))[1] - 52)[:, None]
    S /= unit
    np.round(S, out=S)
    S *= unit


def _sign_bits(rng, shape):
    """Rademacher signs as 0/1 bits, (c, n): row r is the first n bits, least
    significant first, of the next ceil(n / 64) uint64 words of ``rng``.

    Whole words per row keep each draw's signs the same however the rows
    are split into blocks (``int8`` draws would not: numpy buffers their
    bytes within one call).
    """
    c, n = shape
    words = rng.integers(0, 2**64, size=(c, -(-n // 64)), dtype=np.uint64)
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little")


def band_plugin(fit, var, grid, q=None, alpha=0.05, draws=1000, seed=0, j=None):
    """Uniform band via simulated Gaussian suprema through Sigma^(1/2).

    One square root serves the whole band: A = Gamma V sqrt(lambda) from a
    symmetric eigendecomposition Sigma = V diag(lambda) V'. For j >= 2 the
    ``kind.null_dim`` smallest eigenvalues, the stacked basis's known null
    directions, are set to zero; any other negative one is clipped. Omega
    on the grid is the row sum of A**2, and the draws simulate A / sqrt(Omega)
    times standard normals. No (G, n) score matrix is formed.

    One generator, ``np.random.default_rng(seed)``, serves the call: draw b's
    normals are row b of one (draws, K_j) stream, taken in blocks of
    ``_DRAW_CHUNK`` rows, so memory is O(chunk (G + K_j) + draws). Each
    draw's product is taken on its own (:func:`_rowwise`), so the band
    depends only on the seed and the number of draws, not the block size.
    """
    if j is not None and int(j) != var.j:
        raise ConfigError(f"variance estimate is for j = {var.j}, got j = {j}")
    grid, gamma, est = _prep_band(fit, var, grid, q, alpha, draws)
    evals, evecs = np.linalg.eigh(var.sigma_mat)
    if var.j >= 2:
        evals[: fit.kind.null_dim] = 0.0
    A = gamma @ (evecs * np.sqrt(np.clip(evals, 0.0, None)))
    omega = np.sum(A**2, axis=1)
    _check_grid_omega(omega)
    M = A / np.sqrt(omega)[:, None]
    draws = int(draws)
    rng = np.random.default_rng(seed)
    Z = np.empty((min(_DRAW_CHUNK, draws), M.shape[1]))
    sups = np.empty(draws)
    for start in range(0, draws, _DRAW_CHUNK):
        z = Z[: min(_DRAW_CHUNK, draws - start)]
        rng.standard_normal(out=z)
        sups[start : start + len(z)] = np.max(np.abs(_rowwise(z, M)), axis=1)
    qhat = _sup_quantile(sups, alpha)
    return BandResult(
        grid=grid,
        estimates=est,
        half_widths=qhat * np.sqrt(omega / fit.n),
        quantile=qhat,
        alpha=alpha,
        method="plugin",
        draws=draws,
    )


def band_bootstrap(
    fit,
    var,
    grid,
    q=None,
    alpha=0.05,
    draws=1000,
    seed=0,
    j=None,
    _weight_hook=None,
):
    """Uniform band via the wild bootstrap with Rademacher weights.

    Each draw reweights residuals by independent signs, restudentizes by
    the redrawn variance, and records the grid supremum. The numerators
    and Omega go through the (G, n) score matrix, with resid / sqrt(n)
    folded in once.

    One generator, ``np.random.default_rng(seed)``, serves the call: draw b's
    signs are row b of one row-major (draws, n) stream (:func:`_sign_bits`),
    generated in blocks of ``_DRAW_CHUNK`` rows into one reused buffer, so
    memory is O(chunk n). The studentized scores S are rounded so that
    every sum over a subset of observations is exact
    (:func:`_exact_sign_sums`); with bits u, the numerator (2u - 1) S' is
    2 u S' - S 1, so each block is one GEMM and a row maximum. The band
    depends only on the seed and the number of draws, not the block size.

    ``_weight_hook(rng, shape)`` replaces the weight sampler in tests (e.g.
    all-ones reduces the statistic to a deterministic direct evaluation);
    its draws are then restudentized one row at a time (:func:`_rowwise`).
    """
    if j is not None and int(j) != var.j:
        raise ConfigError(f"variance estimate is for j = {var.j}, got j = {j}")
    grid, gamma, est = _prep_band(fit, var, grid, q, alpha, draws)
    scores = var.scores(gamma)
    omega = var.omega_from_scores(scores)
    _check_grid_omega(omega)
    n = fit.n
    if _weight_hook is not None:
        sq_scores = scores**2 * (var.wre2 / n)
    scores *= fit.residuals(var.j) / np.sqrt(n)  # numerators: W @ scores.T
    if _weight_hook is None:
        # Rademacher squares to one, so the redrawn variance equals omega
        scores /= np.sqrt(omega)[:, None]
        _exact_sign_sums(scores)
        row_sums = scores.sum(axis=1)
    draws = int(draws)
    rng = np.random.default_rng(seed)
    W = np.empty((min(_DRAW_CHUNK, draws), n))
    sups = np.empty(draws)
    for start in range(0, draws, _DRAW_CHUNK):
        w = W[: min(_DRAW_CHUNK, draws - start)]
        if _weight_hook is None:
            np.copyto(w, _sign_bits(rng, w.shape))
            stat = np.abs(2.0 * (w @ scores.T) - row_sums)
        else:
            w[...] = _weight_hook(rng, w.shape)
            om_star = _rowwise(w**2, sq_scores)
            if np.any(om_star <= 0):
                raise NonPositiveVariance("bootstrap variance not positive")
            stat = np.abs(_rowwise(w, scores)) / np.sqrt(om_star)
        sups[start : start + len(w)] = np.max(stat, axis=1)
    qhat = _sup_quantile(sups, alpha)
    return BandResult(
        grid=grid,
        estimates=est,
        half_widths=qhat * np.sqrt(omega / fit.n),
        quantile=qhat,
        alpha=alpha,
        method="bootstrap",
        draws=draws,
    )
