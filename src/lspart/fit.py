"""Least-squares fitting and the four estimator kinds j = 0..3.

All four point estimators share the structure
``deriv-estimate(x) = gamma_j(x)' E_n[Pi_j(x_i) y_i]`` where gamma depends
on the Gram factors only. Each Gram is accumulated cell by cell into a dense
K x K matrix and inverted once (:class:`BandedCholesky`); every solve is a
product with that inverse, and the coefficients take one step of iterative
refinement. The inverse is LAPACK's up to K = :data:`_INV_LEAF` and above
that a blocked Schur recursion whose work is matrix products
(:func:`_spd_inverse`); each leaf of the recursion is checked by one
Cholesky factor before LAPACK inverts it. numpy is the only linear-algebra
library. The fit is performed once; every j is a different read of the same
factored objects:

- j = 0: the plain least-squares fit of order m.
- j = 1: the fit of order mtilde > m used directly.
- j = 2 and j = 3: one correction formula,
  p_q'(beta - c_j) + D_j' beta-tilde, where D_j are the correction rows and
  c_j = Q^-1 E_n[p (D_{j,0}' beta-tilde)] is their own sample projection.
  D_2 is the order-mtilde basis ptilde_q (a least-squares correction
  through the j = 1 fit); D_3 is the plug-in lead rows R_q from
  :func:`~lspart.biascorrect.lead_rows`, so D_3' beta-tilde is minus the
  plug-in estimate of the leading error.

When the main span lies inside the companion's (:attr:`EstimatorKind.nested`:
piecewise polynomials, Haar and a one-cell B-spline), p = A ptilde with
A = C_2 Q-tilde^-1, so every j >= 1 is a linear read of beta-tilde alone. Its
design, right-hand side, leverage and weights are then those of the companion
design, and nothing stacks: j = 2 is j = 1 (their estimates differ by
roundoff), and j = 3 equals j = 1 when mtilde = m + 1. Every other kind's
j >= 2 reads the stacked design [p, ptilde], whose Gram and Sigma are deflated
(:func:`_deflate`) along its known null space (:attr:`EstimatorKind.stacked_null`).

Every read at a point set goes through one row bundle per (point set, q)
(:class:`RowBundle`, from :meth:`FitResult.at`). It locates its points on
the partition that both bases share and builds, each at most once and only
when first read, the main rows p_q, the bias-correction rows ptilde_q,
the plug-in lead rows R_q and gamma_{q,0}. At the sample with q = 0 the
bundle holds the fit's own designs. ``estimate_many``, ``gamma_many``, the
plug-in lead and its projection, the selectors' IMSE components and both
uniform bands all read it, so each basis is evaluated once per point set,
derivative and fit. A fit keeps :data:`_BUNDLE_CAPACITY` bundles besides the
sample's and drops the oldest first; a bundle is keyed by the bytes of its
points, so a point array changed in place gets fresh rows.

``fitted`` and ``estimate_many`` share one j-dispatch over a bundle;
``gamma_many`` reaches the same estimates independently, through Gram
solves from the same rows (``estimate == gamma_many @ rhs_for``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import biascorrect
from .basis import BasisFamily, BasisSpec, SparseRows, check_deriv, shared_groups
from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    RankDeficient,
    UnsupportedFamily,
    check_floats,
    check_whole,
)
from .partition import data_bounds

_PIVOT_REL_TOL = 1e-10
_BUNDLE_CAPACITY = 4  # point-set bundles a fit keeps besides the sample's
_INV_LEAF = 96  # Grams up to this size are inverted by LAPACK directly


def gram_banded(design, row_weights=None):
    """Dense symmetric Gram (1/n) sum_i w_i p(x_i) p(x_i)', (K, K).

    :meth:`SparseRows.weighted_cross` of the design with itself, which takes
    one (width, width) product per cell. The local support of the basis
    makes the Gram banded, but every consumer wants dense operands, so it is
    stored dense; the name is the benchmark's span label ``fit.gram_banded``.
    """
    return design.weighted_cross(design, row_weights)


def cross_gram(design_a, design_b, row_weights=None):
    """Dense (K_a, K_b) matrix (1/n) sum_i w_i p_a(x_i) p_b(x_i)'."""
    return design_a.weighted_cross(design_b, row_weights)


class BandedCholesky:
    """Checked inverse of a symmetric positive-definite Gram ``Q``.

    ``inv = _spd_inverse(Q, floor)`` is read-only; every solve is a product
    with it, and the leverage reads it too. It is ``np.linalg.inv(Q)``
    itself up to K = ``_INV_LEAF`` and a blocked Schur recursion above, and
    its leaves' Cholesky factors are the check: ``RankDeficient`` if one
    fails (Q is not positive definite) or if a squared pivot falls below
    ``floor``, ``_PIVOT_REL_TOL`` times the mean diagonal of Q. An inverse
    built from the Cholesky factor instead is tens of times less accurate in
    the hat diagonal at fine partitions.
    The coefficients add one refinement step (:meth:`FitResult._solve`).
    The class and its methods keep the benchmark's span labels
    (``fit.factor`` and ``fit.solve``); nothing here uses banded storage.
    """

    def __init__(self, Q):
        self.Q = Q
        floor = _PIVOT_REL_TOL * float(np.trace(Q)) / Q.shape[0]
        self.inv = _spd_inverse(Q, floor)
        self.inv.flags.writeable = False

    @property
    def K(self):
        return self.Q.shape[0]

    def solve(self, b):
        """Q^-1 b for vector or (K, r) matrix right-hand sides."""
        return self.inv @ b


def _spd_inverse(Q, floor):
    """Inverse of a symmetric positive-definite Q by blocked Schur recursion,
    checking every squared Cholesky pivot of Q against ``floor``.

    With Q = [[A, B], [B', D]] split at h = K // 2, T = A^-1 B and the Schur
    complement S = D - B'T (itself SPD),

        Q^-1 = [[A^-1 + T S^-1 T', -T S^-1], [-S^-1 T', S^-1]],

    with A^-1 and S^-1 taken the same way. Q's Cholesky pivots are A's
    followed by S's, so each leaf, of K <= ``_INV_LEAF``, checks its own
    factor and is then ``np.linalg.inv`` of the leaf, bit for bit
    (:func:`_checked_inv`). Above the leaf, the work is four matrix products
    per level, about three times faster than LAPACK's LU inverse at the
    d = 3 sizes (K = 216, 343). Since T comes from an explicit A^-1, the
    residual ||Q X - I|| grows with cond(A) cond(S), not cond(Q): from 1e-14
    at K = 343 (cond 2e3) to 2.5e-12 on a cubic B-spline Gram with cond 3e4,
    one to twenty times LAPACK's.
    """
    K = Q.shape[0]
    if K <= _INV_LEAF:
        return _checked_inv(Q, floor)
    h = K // 2
    a_inv = _spd_inverse(Q[:h, :h], floor)
    b = Q[:h, h:]
    t = a_inv @ b
    s = Q[h:, h:] - b.T @ t
    # S's skew part is roundoff from A^-1; dropping it keeps the hat
    # diagonal as close to the dense oracle as LAPACK's inverse does
    s_inv = _spd_inverse(0.5 * (s + s.T), floor)
    u = t @ s_inv
    out = np.empty_like(Q)
    out[:h, :h] = a_inv + u @ t.T
    out[:h, h:] = -u
    out[h:, :h] = -u.T
    out[h:, h:] = s_inv
    return out


def _checked_inv(Q, floor):
    """``np.linalg.inv(Q)`` once its Cholesky factor has no squared pivot
    below ``floor``; else ``RankDeficient``. The leaf of :func:`_spd_inverse`."""
    try:
        lower = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("Gram matrix is not positive definite (empty or nearly "
                            "empty cell); reduce kappa or use more data") from exc
    if float(np.min(np.diagonal(lower) ** 2)) < floor:
        raise RankDeficient("Gram matrix is numerically rank deficient (near-empty "
                            "cell); reduce kappa or use more data")
    return np.linalg.inv(Q)


def _deflate(M, B):
    """P M P + c B B', P = I - B B', c = tr(M) / K, for the symmetric part of
    M and an orthonormal (K, r) B spanning its null space: positive definite,
    in O(K^2 r), and M itself, bit for bit, when r = 0."""
    M = 0.5 * (M + M.T)
    c = float(np.trace(M)) / M.shape[0]
    MB = M @ B
    X = B @ (MB - 0.5 * B @ (B.T @ MB + c * np.eye(B.shape[1]))).T
    return M - (X + X.T)  # = P M P + c B B'


@dataclass(frozen=True)
class EstimatorKind:
    """Main basis plus, if ``m_tilde`` is set, its bias-correction companion.

    The companion is the main family (PP for Haar) of order ``m_tilde`` on
    the main partition, so the two spans share exactly :attr:`null_dim`
    dimensions.
    """

    main_spec: BasisSpec
    m_tilde: int | None = None

    def __post_init__(self):
        if self.m_tilde is not None and self.m_tilde <= self.main_spec.m:
            raise ConfigError(
                f"bias-correction order {self.m_tilde} must exceed "
                f"main order {self.main_spec.m}"
            )

    @classmethod
    def default(cls, family, m, partition, m_tilde=None):
        """Main basis plus its companion, by default one order higher."""
        m_tilde = m + 1 if m_tilde is None else m_tilde
        return cls(BasisSpec(family, m, partition), m_tilde)

    @cached_property
    def bc_spec(self):
        """The order-mtilde companion basis on the main partition, or None."""
        if self.m_tilde is None:
            return None
        main = self.main_spec
        family = BasisFamily.PP if main.family is BasisFamily.HAAR else main.family
        return BasisSpec(family, self.m_tilde, main.partition)

    @property
    def null_dim(self):
        """Dimensions the main span shares with the companion's: m^d for
        B-splines (the polynomials of degree < m per axis), else K_0. It is
        also the rank the stacked design of j >= 2 loses."""
        main = self.main_spec
        return main.m**main.dim if main.family is BasisFamily.BSPLINE else main.K

    @cached_property
    def stacked_null(self):
        """Orthonormal (K_0 + K_1, m^d) null basis of a stacked design: one QR
        of [N; -Ntilde], the polynomials' :meth:`BasisSpec.monomial_coefs`."""
        m = self.main_spec.m
        coefs = [self.main_spec.monomial_coefs(m), -self.bc_spec.monomial_coefs(m)]
        return np.linalg.qr(np.vstack(coefs))[0]

    @property
    def nested(self):
        """True when the main span lies inside the companion's
        (``null_dim == K_0``): piecewise polynomials, Haar and a one-cell
        B-spline. Every j >= 1 of a nested kind then reads the companion
        design alone; nothing stacks."""
        return self.null_dim == self.main_spec.K

    def require_j(self, j):
        j = check_whole(j, "estimator kind j", 0)
        if j > 3:
            raise ConfigError(f"estimator kind j must be 0..3, got {j}")
        if j >= 1 and self.bc_spec is None:
            raise ConfigError(f"j = {j} needs a bias-correction basis")
        if j == 3 and self.main_spec.family is BasisFamily.HAAR:
            raise UnsupportedFamily(
                "plug-in correction (j = 3) is not available for the Haar "
                "family; use j = 1 or j = 2"
            )
        return j


def check_response(y, n):
    """The response ``y`` as a float vector of length ``n``: ConfigError if it
    is not one, DataError naming its first non-finite entry."""
    try:
        y = np.asarray(y, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError("y must be a vector of numbers") from exc
    if y.shape != (n,):
        raise ConfigError(f"y must be a vector matching the {n} rows of X")
    bad = ~np.isfinite(y)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DataError(f"response row {i}: y = {y[i]!r} is not finite")
    return y


class RowBundle:
    """The rows of one fit's bases at one point set and derivative order q.

    Each piece is built on first read and at most once: ``cells`` (the
    points located on the main partition, which both bases share), ``main``
    (p_q), ``bc`` (ptilde_q), ``lead`` (R_q, from
    :func:`~lspart.biascorrect.lead_rows`) and ``gamma0``
    (gamma_{q,0}, dense (G, K), set by :meth:`FitResult.gamma_many`). Build
    one through :meth:`FitResult.at`.
    """

    def __init__(self, kind, pts, q):
        self.kind = kind
        self.pts = pts
        self.q = q
        self.gamma0 = None

    @cached_property
    def cells(self):
        return self.kind.main_spec.partition.locate(self.pts)

    @cached_property
    def main(self):
        return self.kind.main_spec.eval_many(self.pts, self.q, self.cells)

    @cached_property
    def bc(self):
        return self.kind.bc_spec.eval_many(self.pts, self.q, self.cells)

    @cached_property
    def lead(self):
        return biascorrect.lead_rows(self.kind, self.pts, self.cells, self.q)


def _bundle_key(pts, q):
    """(q, shape, bytes): the content of a point set, never its identity."""
    return q, pts.shape, pts.tobytes()


class FitResult:
    """Factored fit serving estimates, weights, and residuals for all j.

    Immutable after construction in effect: caches only add derived arrays,
    and ``X`` and ``y`` are read-only copies of the caller's arrays. Use
    :func:`fit_estimator` to build one.
    """

    def __init__(self, kind, X, y):
        self.kind = kind
        # own read-only copies: the caches below read the sample lazily
        self.X = np.array(check_floats(X, "X", kind.main_spec.dim))
        self.n = self.X.shape[0]
        self.y = np.array(check_response(y, self.n))
        self.X.flags.writeable = False
        self.y.flags.writeable = False

        q0 = (0,) * kind.main_spec.dim
        self._sample = RowBundle(kind, self.X, q0)
        self._sample_key = _bundle_key(self.X, q0)
        self._bundles = {}

        self.design_main = self._sample.main
        self.gram_main, self.rhs_main, self.beta_main = self._solve(self.design_main)
        self.design_bc = self.gram_bc = self.rhs_bc = self.beta_bc = None
        if kind.bc_spec is not None:
            self.design_bc = self._sample.bc
            self.gram_bc, self.rhs_bc, self.beta_bc = self._solve(self.design_bc)

        self._cross = {}
        self._coef = {}
        self._stacked = None
        self._leverage = {}
        self._fitted = {}

    def _solve(self, design):
        """(Gram factor, E_n[p y], coefficients) of a sample design. A singular
        Gram with a constant covariate is ``DegenerateData`` naming it."""
        try:
            gram = BandedCholesky(gram_banded(design))
        except RankDeficient:
            data_bounds(self.X)
            raise
        rhs = design.accumulate(self.y) / self.n
        beta = gram.solve(rhs)
        # one refinement step: the inverse alone leaves gaps up to ~1e-9 on
        # Grams just above the pivot test
        beta += gram.solve(rhs - gram.Q @ beta)
        _check_normal_equations(gram, beta, rhs)
        return gram, rhs, beta

    def at(self, pts, q=None):
        """The :class:`RowBundle` of this fit at ``pts`` and derivative ``q``.

        Keyed by q and the shape and bytes of the points. The sample at
        q = 0 is always the fit's own bundle; other point sets are kept up
        to :data:`_BUNDLE_CAPACITY`, the oldest dropped first.
        """
        pts = check_floats(pts, "evaluation points", self.kind.main_spec.dim)
        q = check_deriv(q, self.kind.main_spec.dim)
        key = _bundle_key(pts, q)
        if key == self._sample_key:
            return self._sample
        bundle = self._bundles.get(key)
        if bundle is None:
            if len(self._bundles) >= _BUNDLE_CAPACITY:
                del self._bundles[next(iter(self._bundles))]
            bundle = RowBundle(self.kind, pts.copy(), q)
            self._bundles[key] = bundle
        return bundle

    # -- shared pieces ------------------------------------------------------

    @staticmethod
    def _correction(j, bundle):
        """D_j: the correction rows of j >= 2 in a bundle, ptilde_q for j = 2
        and the plug-in lead rows R_q for j = 3."""
        return bundle.bc if j == 2 else bundle.lead

    def _cross_for(self, j):
        # C_j = E_n[p(x_i) D_{j,0}(x_i)'], dense (K, Ktilde); the j = 3 one is
        # read by the j = 3 weights only, so the dpi pilot never forms it
        if j not in self._cross:
            rows = self._correction(j, self._sample)
            self._cross[j] = cross_gram(self.design_main, rows)
        return self._cross[j]

    def proj_coef(self, j):
        """c_j, (K,): the main-basis coefficients of the correction's own
        sample projection, p(x)'c_j = gamma_0(x)' E_n[p D_{j,0}' beta-tilde].
        -c_3 projects the plug-in leading error."""
        if j not in self._coef:
            corr = self._correction(j, self._sample).row_dot(self.beta_bc)
            t = self.design_main.accumulate(corr) / self.n
            self._coef[j] = self.gram_main.solve(t)
        return self._coef[j]

    # -- per-kind reads -----------------------------------------------------

    def _reads(self, j):
        """The checked j whose design j reads: 1 for every j >= 1 of a
        nested kind."""
        j = self.kind.require_j(j)
        return min(j, 1) if self.kind.nested else j

    def design_for(self, j):
        """Pi_j rows at the sample: the j-relevant (possibly stacked) design.

        j = 2 and 3 share one stacked design, built on first use. A nested
        kind's j >= 2 read the companion design of j = 1 instead: their
        weights on [p, ptilde] fold into weights on ptilde alone
        (:meth:`gamma_many`).
        """
        j = self._reads(j)
        if j == 0:
            return self.design_main
        if j == 1:
            return self.design_bc
        if self._stacked is None:
            self._stacked = stack_designs(self.design_main, self.design_bc)
        return self._stacked

    def rhs_for(self, j):
        """E_n[Pi_j(x_i) y_i] as a dense vector."""
        j = self._reads(j)
        if j == 0:
            return self.rhs_main
        if j == 1:
            return self.rhs_bc
        return np.concatenate([self.rhs_main, self.rhs_bc])

    def _mu_hat(self, j, bundle):
        """mu-hat_j (or a derivative) from a row bundle; for j >= 2,
        p_q'(beta - c_j) + D_j' beta-tilde. Only the rows j reads are built.
        """
        if j == 0:
            return bundle.main.row_dot(self.beta_main)
        if j == 1:
            return bundle.bc.row_dot(self.beta_bc)
        return bundle.main.row_dot(
            self.beta_main - self.proj_coef(j)
        ) + self._correction(j, bundle).row_dot(self.beta_bc)

    def fitted(self, j):
        """mu-hat_j at the sample points, (n,)."""
        j = self.kind.require_j(j)
        if j not in self._fitted:
            self._fitted[j] = self._mu_hat(j, self._sample)
        return self._fitted[j]

    def residuals(self, j):
        """epsilon-hat_{i,j} = y_i - mu-hat_j(x_i)."""
        return self.y - self.fitted(j)

    def estimate_many(self, pts, q=None, j=0):
        """Point estimates of the q-th derivative at many points, (G,)."""
        j = self.kind.require_j(j)
        return self._mu_hat(j, self.at(pts, q))

    def estimate(self, x, q=None, j=0):
        """Single-point version of :meth:`estimate_many`."""
        return float(self.estimate_many(np.atleast_2d(x), q, j)[0])

    def gamma_many(self, pts, q=None, j=0):
        """Evaluation weights gamma_{q,j} at many points, dense (G, K_j).

        The right-hand sides are the bundle's rows at the points made dense,
        (G, K) arrays the size of gamma itself. gamma_{q,0} is one solve
        against the order-m Gram, kept in the row bundle for every j that
        reads it. For j >= 2 the bias-correction block is one solve against
        the order-mtilde Gram of D_j(pts)' - C_j' gamma_0', with D_j the
        correction rows from the bundle (ptilde_q for j = 2, R_q for j = 3)
        and C_j the cross-Gram of p and D_{j,0} at the sample. The estimator identity
        ``estimate == gamma_many @ rhs_for(j)`` holds to roundoff and is
        exercised in tests.

        A nested kind folds the main block into the companion block: since
        p = C_2 Q-tilde^-1 ptilde at the sample, the stacked weights
        gamma_0' p_i + gamma_b' ptilde_i equal gammatilde_j' ptilde_i with
        gammatilde_j = Q-tilde^-1 (D_j(pts)' + (C_2 - C_j)' gamma_0'), (G, K_1).
        For j = 2 the fold term is zero, so gamma_2 is gamma_1.
        """
        j = self.kind.require_j(j)
        bundle = self.at(pts, q)
        if j == 1 or (j == 2 and self.kind.nested):
            return self.gram_bc.solve(bundle.bc.dense().T).T
        if bundle.gamma0 is None:
            bundle.gamma0 = self.gram_main.solve(bundle.main.dense().T).T
        gamma0 = bundle.gamma0
        if j == 0:
            return gamma0.copy()
        rhs = self._correction(j, bundle).dense().T - self._cross_for(j).T @ gamma0.T
        if not self.kind.nested:
            return np.hstack([gamma0, self.gram_bc.solve(rhs).T])
        return self.gram_bc.solve(rhs + self._cross_for(2).T @ gamma0.T).T

    def null_basis(self, j):
        """Orthonormal basis of the j-relevant design's null space, (K_j, r_j):
        ``kind.stacked_null`` for a stacked j >= 2, else no columns."""
        j = self._reads(j)
        return self.kind.stacked_null if j >= 2 else np.zeros((self.design_for(j).K, 0))

    def leverage(self, j):
        """Diagonal of the hat matrix for the j-relevant design, (n,).

        One route for every j: h_i = Pi_j(x_i)' G^- Pi_j(x_i) / n against a
        generalized inverse of the Gram, in O(K^3 + n width^2) and no (n, K)
        array. For j <= 1, and for every j of a nested kind, it is the
        Gram's checked inverse, and a nested kind's j >= 2 share j = 1's
        array. Otherwise the stacked Gram of j >= 2 is rank deficient by
        ``kind.null_dim``; its generalized inverse comes from the Schur
        complement of the bias-correction block (:func:`_stacked_ginv`). The
        hat diagonal does not depend on which generalized inverse is used.
        j = 2 and j = 3 share one stacked design, so they share one cached
        leverage array.
        """
        key = min(self._reads(j), 2)
        if key not in self._leverage:
            if key <= 1:
                ginv = (self.gram_main if key == 0 else self.gram_bc).inv
            else:
                ginv = _stacked_ginv(self.gram_main, self.gram_bc,
                                     self._cross_for(2), self.kind.stacked_null)
            self._leverage[key] = self.design_for(key).quadratic_forms(ginv) / self.n
        return self._leverage[key]


def _stacked_ginv(gram_main, gram_bc, cross, null):
    """Generalized inverse of the stacked Gram [[Q_0, C], [C', Q_1]].

    Q_1 is positive definite (its Cholesky pivots were checked at fit
    time), so the Gram factors through the K_0 x K_0 Schur complement
    S = Q_0 - T C' with T = C Q_1^{-1}, whose null space is spanned by the
    top K_0 rows of the stacked design's ``null``. With S^- the checked
    inverse of S deflated there (:func:`_deflate`) and U = T' S^-,

        G^- = [[S^-, -U'], [-U, U T + Q_1^{-1}]]

    is a generalized inverse of G; ``RankDeficient`` if S is singular beyond
    ``null`` (a squared pivot below ``_PIVOT_REL_TOL`` of its mean diagonal).
    """
    k0 = gram_main.K
    t = cross @ gram_bc.inv
    s = gram_main.Q - t @ cross.T
    floor = _PIVOT_REL_TOL * float(np.trace(s)) / k0
    s_inv = _checked_inv(_deflate(s, np.linalg.qr(null[:k0])[0]), floor)
    # all blocks read one symmetric S^-, or the hat diagonal loses digits
    s_inv = 0.5 * (s_inv + s_inv.T)
    u = t.T @ s_inv
    return np.block([[s_inv, -u.T], [-u, u @ t + gram_bc.inv]])


def stack_designs(a, b):
    """Concatenate two designs on one sample and partition, keeping their groups."""
    return SparseRows(
        np.hstack([a.indices, b.indices + a.K]),
        np.hstack([a.values, b.values]),
        a.K + b.K,
        shared_groups(a, b),
    )


def fit_estimator(kind, X, y):
    """Assemble, factor, and solve; returns a :class:`FitResult`."""
    return FitResult(kind, X, y)


def _check_normal_equations(factor, beta, rhs):
    gap = float(np.max(np.abs(factor.Q @ beta - rhs)))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if gap > 1e-10 * scale:
        raise NumericalError(
            f"normal equations violated: residual {gap:.3e} exceeds tolerance"
        )
