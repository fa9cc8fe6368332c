"""Heteroskedasticity-robust variances, pointwise intervals, uniform bands.

All inference runs through the sandwich pieces

    Sigma_j = (1/n) sum_i w_i(hc) epshat_{i,j}^2 Pi_j(x_i) Pi_j(x_i)'
    Omega_j(x) = gamma_j(x)' Sigma_j gamma_j(x)

with gamma and Pi matching the estimator kind j. Pointwise intervals use
normal quantiles. Uniform bands calibrate the supremum of the studentized
process over a grid, either by simulating Gaussian vectors (plug-in) or by
wild-bootstrap resampling of residuals.

Pointwise intervals and both bands take Omega from one product with
Sigma_j (:func:`quadratic_form`): Omega = rowsum((Gamma Sigma_j) * Gamma),
in O(G K^2) and no (G, n) array. Both suprema are linear in the K_j
coefficients. The plug-in process is M z with M = A / sqrt(Omega),
A A' = Gamma Sigma_j Gamma' (a Cholesky root) and z standard normal. The
bootstrap numerator is M T with M = Gamma / sqrt(Omega), signs s_i, HC
weights w_i and T = sum_i s_i Pi_j(x_i) epshat_i sqrt(w_i / n), summed per
cell from the sign bits; it takes no root of Sigma_j.
Each block of draws is then one exact GEMM (``_exact_product``): the left
factor is rounded to the grid 2^-23 and each row of M to 24 significant bits
of its L1 norm, so every partial sum is exact in float64. The rounding moves
a supremum by a few 1e-6 relative at most, far inside the Monte Carlo error
of the band quantile. The bootstrap draws Rademacher signs only; it has no
other weight route.

A variance estimate belongs to one fit: every function that takes both
checks that ``var.fit is fit`` (:func:`check_variance`).

Each band call makes one generator, ``np.random.default_rng(seed)``, where
``seed`` is a non-negative int or a sequence of them, such as
(master, rep, j). Draw b takes row b of one row-major stream: n Rademacher
signs for the bootstrap, K_j standard normals for the plug-in band. Both are
generated in blocks of ``_DRAW_CHUNK`` draws. Because each block's product is
exact, a draw's supremum does not depend on the block it falls in, nor on the
BLAS thread count, and a band depends only on the seed and the number of
draws, not on the block size.
"""

from __future__ import annotations

import enum
import math
import statistics
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import SparseRows
from .errors import (
    ConfigError,
    InvalidGrid,
    LeverageOverflow,
    NonPositiveVariance,
    OutOfSupport,
    check_choice,
    check_floats,
    check_level,
    check_whole,
)
from .fit import _deflate

_LEVERAGE_TOL = 1e-8
_DRAW_CHUNK = 128  # band draws per block: memory O(chunk) rows, not O(draws)


class HCKind(enum.Enum):
    HC0 = "hc0"
    HC1 = "hc1"
    HC2 = "hc2"
    HC3 = "hc3"


def normal_quantile(p):
    """Inverse standard-normal CDF, for p in (0, 1)."""
    return statistics.NormalDist().inv_cdf(p)


class VarianceEstimate:
    """Sandwich variance pieces for one estimator kind.

    Binds the fit, the kind j, and the HC residual weighting. The design is
    :meth:`FitResult.design_for`: for a nested kind (PP, Haar, one-cell
    B-spline) every j >= 1 reads the companion design, so Sigma_j is
    (K_1, K_1); otherwise j >= 2 read the stacked design. HC1 counts the
    rank, K_j less the columns of :meth:`FitResult.null_basis`. HC2/HC3 use
    :meth:`FitResult.leverage`: row-wise quadratic forms against the inverse
    Gram the fit keeps (``BandedCholesky.inv``), or for a stacked j >= 2
    against a generalized inverse of the stacked Gram built from the Schur
    complement of its bias-correction block, deflated along its known null
    space. j = 2 and j = 3 share one cached leverage array.
    The dense Sigma matrix is formed lazily, once, by the Gram accumulator
    :meth:`SparseRows.weighted_cross`; pointwise intervals and both bands
    take Omega from it (:func:`quadratic_form`).
    """

    def __init__(self, fit, j, hc=HCKind.HC0):
        self.fit = fit
        self.j = fit.kind.require_j(j)
        self.hc = check_choice(HCKind, hc)
        self.design = fit.design_for(self.j)
        resid = fit.residuals(self.j)
        n = fit.n
        if self.hc is HCKind.HC0:
            w = np.ones(n)
        elif self.hc is HCKind.HC1:
            K_j = self.design.K - fit.null_basis(self.j).shape[1]  # the rank
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

    def omega_many(self, pts, q=None):
        """Omega_j = gamma_j' Sigma_j gamma_j at many points, (G,)."""
        omega = quadratic_form(self.fit.gamma_many(pts, q, self.j), self.sigma_mat)
        if np.any(omega <= 0):
            raise NonPositiveVariance(
                "variance estimate is not positive at an evaluation point"
            )
        return omega


def sigma_hat(fit, j, hc=HCKind.HC0):
    """Build the variance pieces for kind ``j``; see VarianceEstimate."""
    return VarianceEstimate(fit, j, hc)


def check_variance(fit, var):
    """ConfigError unless ``var`` was estimated from ``fit`` itself."""
    if var.fit is not fit:
        raise ConfigError("the variance estimate belongs to another fit")


def quadratic_form(gamma, sigma):
    """Row-wise gamma' Sigma gamma as rowsum((Gamma Sigma) * Gamma), one GEMM:
    every Omega, at pointwise points and on both bands' grids."""
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


def pointwise_ci(fit, var, pts, q=None, alpha=0.05):
    """Normal-quantile pointwise confidence intervals at ``pts``.

    The estimator kind is the one bound into ``var``, which must come from
    ``fit``. Raises NonPositiveVariance if any Omega is nonpositive.
    """
    check_variance(fit, var)
    alpha = check_level(alpha)
    est = fit.estimate_many(pts, q, var.j)  # checks the points (FitResult.at)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
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
    bounds = check_floats(bounds, "bounds", 2)
    d = bounds.shape[0]
    if points_per_dim is None:
        points_per_dim = 100 if d == 1 else 20
    g = check_whole(points_per_dim, "grid points per axis", 2, InvalidGrid)
    axes = [np.linspace(bounds[ell, 0], bounds[ell, 1], g) for ell in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _check_seed(seed):
    """``seed`` as a non-negative int, or as a tuple of them for a sequence
    or an array; each key goes through :func:`check_whole`."""
    keys = seed.ravel().tolist() if isinstance(seed, np.ndarray) else seed
    if isinstance(keys, (list, tuple)):
        return tuple(check_whole(k, "seed", 0) for k in keys)
    return check_whole(keys, "seed", 0)


def _prep_band(fit, var, grid, q, alpha, draws, seed):
    """Both bands' checked inputs and shared pieces. Omega on the grid is
    rowsum((Gamma Sigma_j) * Gamma); NonPositiveVariance if one is not > 0."""
    check_variance(fit, var)
    alpha = check_level(alpha)
    draws = check_whole(draws, "draws", 100)
    seed = _check_seed(seed)
    try:
        grid = check_floats(grid, "evaluation grid", fit.kind.main_spec.dim)
    except ConfigError as exc:
        raise InvalidGrid(str(exc)) from exc
    try:
        fit.at(grid, q).cells  # located once; the weights and estimates reuse them
    except OutOfSupport as exc:
        raise InvalidGrid(str(exc)) from exc
    _warn_grid_spacing(fit.kind.main_spec.partition, grid)
    gamma = fit.gamma_many(grid, q, var.j)
    omega = quadratic_form(gamma, var.sigma_mat)
    if np.any(omega <= 0):
        raise NonPositiveVariance("variance not positive somewhere on the grid")
    est = fit.estimate_many(grid, q, var.j)
    return grid, gamma, omega, est, alpha, draws, np.random.default_rng(seed)


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


def _draw_sups(draws, stat):
    """Grid suprema of |stat(c)| for ``draws`` draws, in blocks of _DRAW_CHUNK.

    ``stat(c)`` returns the next c draws' statistics on the grid as a new
    (c, G) array, which is overwritten: taking |.| in place spares a second
    (c, G) temporary per block.
    """
    sups = np.empty(draws)
    for start in range(0, draws, _DRAW_CHUNK):
        c = min(_DRAW_CHUNK, draws - start)
        block = stat(c)
        sups[start : start + c] = np.max(np.abs(block, out=block), axis=1)
    return sups


def _band_result(grid, est, omega, n, sups, alpha, method):
    qhat = _sup_quantile(sups, alpha)
    return BandResult(
        grid=grid,
        estimates=est,
        half_widths=qhat * np.sqrt(omega / n),
        quantile=qhat,
        alpha=alpha,
        method=method,
        draws=sups.shape[0],
    )


def _exact_rows(R):
    """R with each row rounded to 24 significant bits of its L1 norm.

    Row g goes on the grid 2^(e_g - 24), where sum_k |R_gk| < 2^e_g: it is
    an integer vector c_g times that unit, with sum_k |c_gk| <= 2^24 + K/2.
    The rounding moves an entry by at most 2^-24 ||R_g||_1. This is the
    right factor of :func:`_exact_product`.
    """
    unit = np.ldexp(1.0, np.frexp(np.sum(np.abs(R), axis=1))[1] - 24)[:, None]
    return np.round(R / unit) * unit


def _exact_product(Z, R):
    """``Z @ R.T`` for R from :func:`_exact_rows`, exact in float64.

    Z is clipped to |Z| <= 63 and rounded, in place, to the grid 2^-23, so
    its entries are integers a with |a| <= 63 * 2^23 = 2^29 - 2^23 times
    2^-23; the rounding moves an entry by at most 2^-24. Every product and
    partial sum of row b with row g is then an integer multiple of
    2^-23 times row g's unit, below 2^53 such units when K < 2^19, so it is
    exact in float64. A plain GEMM therefore gives the same bits in any
    order, blocking, kernel or thread count: a draw's statistic does not
    depend on the block it falls in. (A row of R whose L1 norm is below
    2^-1028 puts its products below the smallest subnormal unit, 2^-1074,
    and loses this property.)
    """
    np.clip(Z, -63.0, 63.0, out=Z)
    Z *= 2.0**23
    np.round(Z, out=Z)
    Z *= 2.0**-23
    return Z @ R.T


def _exact_sign_sums(rows):
    """Round each column of a row-sparse matrix, in place, so that every sum
    of its entries with weights 0 or +-1 is exact in float64; return the
    column exponents e, (K,).

    ``rows`` is a :class:`SparseRows`. Column k goes on the grid
    2^(e_k - 52), where sum_i |P_ik| < 2^e_k, so every partial sum of such a
    combination is an integer multiple of the unit below 2^53 units,
    whatever its order (block shape, kernel, threads). The rounding moves a
    sum by at most n/2 units, the order of a float64 GEMM's own error bound.
    """
    total = np.bincount(
        rows.indices.ravel(), weights=np.abs(rows.values).ravel(), minlength=rows.K
    )
    expo = np.frexp(total)[1]
    unit = np.ldexp(1.0, expo - 52)[rows.indices]
    values = rows.values
    values /= unit
    np.round(values, out=values)
    values *= unit
    return expo


def _sign_bytes(rng, c, n):
    """Rademacher signs as packed bits, (c, 8 ceil(n / 64)) ``uint8``: row r
    holds draw r's n signs as the first n bits, least significant first, of
    the next ceil(n / 64) uint64 words of ``rng``.

    Whole words per row keep each draw's signs the same however the rows
    are split into blocks (``int8`` draws would not: numpy buffers their
    bytes within one call).
    """
    words = rng.integers(0, 2**64, size=(c, -(-n // 64)), dtype=np.uint64)
    return words.astype("<u8", copy=False).view(np.uint8)


def band_plugin(fit, var, grid, q=None, alpha=0.05, draws=1000, seed=0):
    """Uniform band via simulated Gaussian suprema through a root of Sigma_j.

    Omega on the grid comes from :func:`_prep_band`. Draw b's process is
    M z_b with M = A / sqrt(Omega), z_b standard normal and
    A = Gamma P L, so A A' = Gamma Sigma_j Gamma': P = I - N N' for the
    design's null basis N (``fit.null_basis(j)``, no columns unless stacked)
    and L the Cholesky factor of Sigma_j deflated along N
    (:func:`~lspart.fit._deflate`), unique and continuous in Sigma_j. A
    Sigma_j singular beyond N (a cell whose residuals are all zero) has no
    such factor: ``NonPositiveVariance``, even where Omega > 0 on the grid.
    No (G, n) score matrix is formed.

    One generator, ``np.random.default_rng(seed)``, serves the call: draw b's
    normals are row b of one (draws, K_j) stream, taken in blocks of
    ``_DRAW_CHUNK`` rows, so memory is O(chunk (G + K_j) + draws). Each
    block is one exact GEMM (:func:`_exact_product`): the normals are
    rounded to the grid 2^-23 and each row of M to 24 significant bits of its
    L1 norm, which moves a supremum by about 1e-6 relative. The band then
    depends only on the seed and the number of draws, not on the block
    size.
    """
    grid, gamma, omega, est, alpha, draws, rng = _prep_band(
        fit, var, grid, q, alpha, draws, seed
    )
    null = fit.null_basis(var.j)
    try:
        root = np.linalg.cholesky(_deflate(var.sigma_mat, null))
    except np.linalg.LinAlgError as exc:
        raise NonPositiveVariance("Sigma_j is singular beyond its known null space") from exc
    A = (gamma - (gamma @ null) @ null.T) @ root
    right = _exact_rows(A / np.sqrt(omega)[:, None])

    def stat(c):
        return _exact_product(rng.standard_normal((c, right.shape[1])), right)

    sups = _draw_sups(draws, stat)
    return _band_result(grid, est, omega, fit.n, sups, alpha, "plugin")


def band_bootstrap(fit, var, grid, q=None, alpha=0.05, draws=1000, seed=0):
    """Uniform band via the wild bootstrap with Rademacher weights.

    Each draw reweights the HC-transformed residuals epshat_i sqrt(w_i)
    (Davidson and Flachaire 2008; w_i = 1 at HC0) by independent signs s_i
    and records the grid supremum of the restudentized process. The redrawn
    variance equals Omega at every HC kind, because s_i^2 = 1, and Omega is
    the plug-in band's rowsum((Gamma Sigma_j) * Gamma) (:func:`_prep_band`),
    so M = Gamma / sqrt(Omega) needs no root of Sigma_j.
    The numerator is linear in the K_j coefficients, M T_b with
    T_b = sum_i s_i P_i and P_i = Pi_j(x_i) epshat_i sqrt(w_i / n), so no
    (G, n) score matrix is formed:

    1. The columns of P are rounded so that every 0/1 sum is exact
       (:func:`_exact_sign_sums`). With bits u, T_b = 2 U_b - P'1 and
       U_b = u_b P, one small product per cell of the design's group order,
       read straight from the packed bits (:meth:`SparseRows.bit_sums`).
    2. T_b scaled column-wise into [-32, 32] and M scaled back go through the
       exact GEMM of the plug-in band (:func:`_exact_product`). That moves a
       supremum by a few 1e-6 relative at most, most where the stacked rows
       of M (j >= 2) cancel.

    One generator, ``np.random.default_rng(seed)``, serves the call: draw b's
    signs are row b of one row-major (draws, n) stream (:func:`_sign_bytes`),
    generated in blocks of ``_DRAW_CHUNK`` rows, so memory is one block of
    packed bits (chunk n / 8 bytes), one cell's (chunk, n_g) block and
    O(n width + G K_j) floats. The band depends only on the seed and the
    number of draws, not on the block size.
    """
    grid, gamma, omega, est, alpha, draws, rng = _prep_band(
        fit, var, grid, q, alpha, draws, seed
    )
    stat = _sign_stat(fit, var, gamma / np.sqrt(omega)[:, None], rng)
    sups = _draw_sups(draws, stat)
    return _band_result(grid, est, omega, fit.n, sups, alpha, "bootstrap")


def _sign_stat(fit, var, M, rng):
    # the Rademacher numerators M T_b in coefficient space; see band_bootstrap
    design, n = var.design, fit.n
    resid = fit.residuals(var.j) * np.sqrt(var.weights) / np.sqrt(n)
    P = SparseRows(
        design.indices, design.values * resid[:, None], design.K, design.groups
    )
    expo = _exact_sign_sums(P)
    total = P.accumulate(np.ones(n))
    # |T_k| <= sum_i |P_ik| < 2^e_k, so T 2^(5 - e_k) lies in [-32, 32]:
    # inside the left grid's range, never clipped, with 5 more bits than [-1, 1]
    scale = np.ldexp(1.0, 5 - expo)
    right = _exact_rows(M / scale)
    sums = P.bit_sums()

    def stat(c):
        U = sums(_sign_bytes(rng, c, n))
        return _exact_product((2.0 * U - total) * scale, right)

    return stat

