"""Least-squares fitting and the four estimator kinds j = 0..3.

All four point estimators share the structure
``deriv-estimate(x) = gamma_j(x)' E_n[Pi_j(x_i) y_i]`` where gamma depends
on the Gram factors only. Each Gram is accumulated cell by cell into a dense
K x K matrix and factored by one dense Cholesky. The fit is performed once;
every j is a different read of the same factored objects:

- j = 0: the plain least-squares fit of order m.
- j = 1: the fit of order mtilde > m used directly.
- j = 2: j = 0 plus a least-squares correction through the j = 1 fit.
- j = 3: j = 0 minus an explicit plug-in estimate of the leading error,
  recentred by its own sample projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import biascorrect
from .basis import BasisFamily, BasisSpec, SparseRows, pair_groups
from .errors import (
    ConfigError,
    NumericalError,
    RankDeficient,
    UnsupportedFamily,
)

_PIVOT_REL_TOL = 1e-10
_PINV_REL_CUTOFF = 1e-10  # stacked-Gram Schur complement: eigenvalue cutoff / trace


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
    """Dense Cholesky factor of a symmetric positive-definite Gram ``Q``.

    Holds ``Q`` and its lower factor from one ``cho_factor``. The class and
    its methods keep the benchmark's span labels (``fit.factor`` and
    ``fit.solve``); nothing here uses banded storage.
    """

    def __init__(self, Q):
        self.Q = Q
        K = Q.shape[0]
        try:
            self.cf = scipy.linalg.cho_factor(Q, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise RankDeficient(
                "Gram matrix is not positive definite (empty or nearly empty "
                "cell); reduce kappa or use more data"
            ) from exc
        pivots = np.diagonal(self.cf[0]) ** 2
        if float(np.min(pivots)) < _PIVOT_REL_TOL * float(np.trace(Q)) / K:
            raise RankDeficient(
                "Gram matrix is numerically rank deficient (near-empty cell); "
                "reduce kappa or use more data"
            )

    @property
    def K(self):
        return self.Q.shape[0]

    def solve(self, b):
        """Solve Q x = b for vector or (K, r) matrix right-hand sides."""
        return scipy.linalg.cho_solve(self.cf, b)


@dataclass(frozen=True)
class EstimatorKind:
    """Main basis plus the optional higher-order basis for bias correction."""

    main_spec: BasisSpec
    bc_spec: BasisSpec | None = None

    def __post_init__(self):
        if self.bc_spec is not None:
            if self.bc_spec.m <= self.main_spec.m:
                raise ConfigError(
                    f"bias-correction order {self.bc_spec.m} must exceed "
                    f"main order {self.main_spec.m}"
                )
            if self.bc_spec.dim != self.main_spec.dim:
                raise ConfigError("basis dimensions disagree")
            ba = self.main_spec.partition.bounds
            bb = self.bc_spec.partition.bounds
            if not np.allclose(ba, bb):
                raise ConfigError("bases must share the support")

    @classmethod
    def default(cls, family, m, partition, m_tilde=None, bc_partition=None):
        """Main basis plus a same-partition basis one order higher.

        Haar is order 1 only, so a Haar main basis gets the piecewise
        polynomial of order m_tilde (default 2) as its companion.
        """
        main = BasisSpec(family, m, partition)
        bc_family = BasisFamily.PP if main.family is BasisFamily.HAAR else main.family
        bc = BasisSpec(
            bc_family, m + 1 if m_tilde is None else m_tilde,
            partition if bc_partition is None else bc_partition,
        )
        return cls(main, bc)

    def require_j(self, j):
        j = int(j)
        if j not in (0, 1, 2, 3):
            raise ConfigError(f"estimator kind j must be 0..3, got {j}")
        if j >= 1 and self.bc_spec is None:
            raise ConfigError(f"j = {j} needs a bias-correction basis")
        if j == 3 and self.main_spec.family is BasisFamily.HAAR:
            raise UnsupportedFamily(
                "plug-in correction (j = 3) is not available for the Haar "
                "family; use j = 1 or j = 2"
            )
        return j


class FitResult:
    """Factored fit serving estimates, weights, and residuals for all j.

    Immutable after construction in effect: caches only add derived arrays.
    Use :func:`fit_estimator` to build one.
    """

    def __init__(self, kind, X, y):
        self.kind = kind
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = np.asarray(y, dtype=float)
        self.n = self.X.shape[0]
        if self.y.shape != (self.n,):
            raise ConfigError("y must be a vector matching X rows")

        part = kind.main_spec.partition
        self.design_main = kind.main_spec.eval_many(self.X)
        # the main design's groups are the flat cells of the main partition
        self.cells = np.stack(
            np.unravel_index(self.design_main.groups, part.kappa), axis=1
        )
        self.cell_lower, self.cell_width = part.geometry(self.cells)

        self.gram_main = BandedCholesky(gram_banded(self.design_main))
        self.rhs_main = self.design_main.accumulate(self.y) / self.n
        self.beta_main = self.gram_main.solve(self.rhs_main)
        _check_normal_equations(self.gram_main, self.beta_main, self.rhs_main)

        self.design_bc = None
        self.gram_bc = None
        self.rhs_bc = None
        self.beta_bc = None
        if kind.bc_spec is not None:
            self.design_bc = kind.bc_spec.eval_many(self.X)
            self.gram_bc = BandedCholesky(gram_banded(self.design_bc))
            self.rhs_bc = self.design_bc.accumulate(self.y) / self.n
            self.beta_bc = self.gram_bc.solve(self.rhs_bc)
            _check_normal_equations(self.gram_bc, self.beta_bc, self.rhs_bc)

        self._cross = None
        self._stacked = None
        self._leverage = {}
        self._c2 = None
        self._c3 = None
        self._bvec0 = None
        self._cu = {}
        self._du_mu1_data = {}
        self._fitted = {}
        self._model = None

    # -- shared pieces ------------------------------------------------------

    @property
    def cross_gram(self):
        """Q between the main and bias bases, dense (K, Ktilde)."""
        if self._cross is None:
            self._cross = cross_gram(self.design_main, self.design_bc)
        return self._cross

    @property
    def leading_error_model(self):
        if self._model is None:
            self._model = biascorrect.LeadingErrorModel.for_spec(
                self.kind.main_spec
            )
        return self._model

    def _proj_coef_j2(self):
        # c with p(x)'c = gamma_0(x)' E_n[p mu1]: the correction's projection
        if self._c2 is None:
            mu1 = self.design_bc.row_dot(self.beta_bc)
            t = self.design_main.accumulate(mu1) / self.n
            self._c2 = self.gram_main.solve(t)
        return self._c2

    def du_mu1_at_data(self, u):
        """Derivative d^u of the order-mtilde fit at the sample points."""
        if u not in self._du_mu1_data:
            rows = self.kind.bc_spec.eval_many(self.X, u)
            self._du_mu1_data[u] = rows.row_dot(self.beta_bc)
        return self._du_mu1_data[u]

    def leading_error_at_data(self):
        """B-hat_{m,0}(x_i): plug-in leading error at the sample, (n,)."""
        if self._bvec0 is None:
            model = self.leading_error_model
            z = (self.X - self.cell_lower) / self.cell_width
            out = np.zeros(self.n)
            q0 = (0,) * self.X.shape[1]
            for u in model.lambda_set:
                w_u = model.weight_values(u, q0, z, self.cell_width)
                out -= w_u * self.du_mu1_at_data(u)
            self._bvec0 = out
        return self._bvec0

    def proj_coef_bias(self):
        """Coefficients c with p(x)'c = gamma_0(x)' E_n[p leadhat_{m,0}]."""
        if self._c3 is None:
            t = self.design_main.accumulate(self.leading_error_at_data()) / self.n
            self._c3 = self.gram_main.solve(t)
        return self._c3

    def _cross_u(self, u):
        """C_u = E_n[w_u0(x_i) p(x_i) (d^u ptilde(x_i))'], dense (K, Ktilde)."""
        if u not in self._cu:
            model = self.leading_error_model
            z = (self.X - self.cell_lower) / self.cell_width
            q0 = (0,) * self.X.shape[1]
            w_u = model.weight_values(u, q0, z, self.cell_width)
            du_rows = self.kind.bc_spec.eval_many(self.X, u)
            self._cu[u] = cross_gram(self.design_main, du_rows, row_weights=w_u)
        return self._cu[u]

    # -- per-kind reads -----------------------------------------------------

    def design_for(self, j):
        """Pi_j rows at the sample: the j-relevant (possibly stacked) design.

        j = 2 and 3 share one stacked design, built on first use.
        """
        j = self.kind.require_j(j)
        if j == 0:
            return self.design_main
        if j == 1:
            return self.design_bc
        if self._stacked is None:
            self._stacked = stack_designs(self.design_main, self.design_bc)
        return self._stacked

    def rhs_for(self, j):
        """E_n[Pi_j(x_i) y_i] as a dense vector."""
        j = self.kind.require_j(j)
        if j == 0:
            return self.rhs_main
        if j == 1:
            return self.rhs_bc
        return np.concatenate([self.rhs_main, self.rhs_bc])

    def fitted(self, j):
        """mu-hat_j at the sample points, (n,)."""
        j = self.kind.require_j(j)
        if j not in self._fitted:
            if j == 0:
                vals = self.design_main.row_dot(self.beta_main)
            elif j == 1:
                vals = self.design_bc.row_dot(self.beta_bc)
            elif j == 2:
                vals = self.design_main.row_dot(
                    self.beta_main - self._proj_coef_j2()
                ) + self.design_bc.row_dot(self.beta_bc)
            else:
                vals = (
                    self.design_main.row_dot(self.beta_main + self.proj_coef_bias())
                    - self.leading_error_at_data()
                )
            self._fitted[j] = vals
        return self._fitted[j]

    def residuals(self, j):
        """epsilon-hat_{i,j} = y_i - mu-hat_j(x_i)."""
        return self.y - self.fitted(j)

    def estimate_many(self, pts, q=None, j=0):
        """Point estimates of the q-th derivative at many points, (G,)."""
        j = self.kind.require_j(j)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = self.X.shape[1]
        q = (0,) * d if q is None else tuple(int(v) for v in np.atleast_1d(q))
        main_q = self.kind.main_spec.eval_many(pts, q) if j != 1 else None
        if j == 0:
            return main_q.row_dot(self.beta_main)
        bc_q = self.kind.bc_spec.eval_many(pts, q)
        if j == 1:
            return bc_q.row_dot(self.beta_bc)
        if j == 2:
            return main_q.row_dot(
                self.beta_main - self._proj_coef_j2()
            ) + bc_q.row_dot(self.beta_bc)
        bias_q = biascorrect.leading_bias_many(self, pts, q)
        return main_q.row_dot(self.beta_main + self.proj_coef_bias()) - bias_q

    def estimate(self, x, q=None, j=0):
        """Single-point version of :meth:`estimate_many`."""
        return float(self.estimate_many(np.atleast_2d(x), q, j)[0])

    def gamma_many(self, pts, q=None, j=0):
        """Evaluation weights gamma_{q,j} at many points, dense (G, K_j).

        The estimator identity ``estimate == gamma_many @ rhs_for(j)`` holds
        to roundoff and is exercised in tests.
        """
        j = self.kind.require_j(j)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = self.X.shape[1]
        q = (0,) * d if q is None else tuple(int(v) for v in np.atleast_1d(q))
        gamma0 = None
        if j != 1:
            main_rows = self.kind.main_spec.eval_many(pts, q)
            gamma0 = self.gram_main.solve(main_rows.dense().T).T
        if j == 0:
            return gamma0
        if j == 1:
            bc_rows = self.kind.bc_spec.eval_many(pts, q)
            return self.gram_bc.solve(bc_rows.dense().T).T
        # the bias-correction block is linear in its right-hand sides, so
        # each kind sums them and takes one solve against the order-mtilde Gram
        if j == 2:
            bc_rows = self.kind.bc_spec.eval_many(pts, q)
            rhs = bc_rows.dense().T - self.cross_gram.T @ gamma0.T
        else:
            model = self.leading_error_model
            part = self.kind.main_spec.partition
            cells = part.locate(pts)
            lower, width = part.geometry(cells)
            z = (pts - lower) / width
            rhs = np.zeros((self.design_bc.K, pts.shape[0]))
            for u in model.lambda_set:
                w_u = model.weight_values(u, q, z, width)
                du_rows = self.kind.bc_spec.eval_many(pts, u)
                rhs += du_rows.dense().T * w_u - self._cross_u(u).T @ gamma0.T
        return np.hstack([gamma0, self.gram_bc.solve(rhs).T])

    def leverage(self, j):
        """Diagonal of the hat matrix for the j-relevant design, (n,).

        One route for every j: h_i = Pi_j(x_i)' G^- Pi_j(x_i) / n against a
        generalized inverse of the Gram, in O(K^3 + n width^2) and no (n, K)
        array. For j <= 1 the inverse comes from the dense Cholesky factor.
        The stacked Gram of j >= 2 is rank deficient by construction; its
        generalized inverse comes from the Schur complement of the
        bias-correction block (:func:`_stacked_ginv`). The hat diagonal does
        not depend on which generalized inverse is used. j = 2 and j = 3
        share one stacked design, so they share one cached leverage array.
        """
        j = self.kind.require_j(j)
        key = min(j, 2)
        if key not in self._leverage:
            if key <= 1:
                factor = self.gram_main if key == 0 else self.gram_bc
                ginv = factor.solve(np.eye(factor.K))
            else:
                ginv, _ = _stacked_ginv(self.gram_main, self.gram_bc, self.cross_gram)
            self._leverage[key] = self.design_for(key).quadratic_forms(ginv) / self.n
        return self._leverage[key]


def _stacked_ginv(gram_main, gram_bc, cross):
    """Generalized inverse of the stacked Gram [[Q_0, C], [C', Q_1]].

    Returns ``(ginv, dropped)``. Q_1 is positive definite (its dense
    Cholesky factor was checked at fit time), so the Gram factors through the
    K_0 x K_0 Schur complement S = Q_0 - T C' with T = C Q_1^{-1}, and

        G^- = L S^+ L' + blockdiag(0, Q_1^{-1}),   L = [I; -T'],

    is a generalized inverse of G. S^+ is taken from one ``eigh`` of S and
    drops the ``dropped`` eigenvalues at or below ``_PINV_REL_CUTOFF``
    times tr(G): the rank deficiency of the stacked basis, m^d for
    B-splines and K_0 when the main span lies inside the bias-correction
    span (PP -> PP, Haar -> PP).
    """
    k0 = gram_main.K
    q1inv = gram_bc.solve(np.eye(gram_bc.K))
    t = cross @ q1inv
    lam, vec = np.linalg.eigh(gram_main.Q - t @ cross.T)
    keep = lam > _PINV_REL_CUTOFF * (np.trace(gram_main.Q) + np.trace(gram_bc.Q))
    lv = np.vstack([vec[:, keep], -t.T @ vec[:, keep]]) / np.sqrt(lam[keep])
    ginv = lv @ lv.T
    ginv[k0:, k0:] += q1inv
    return ginv, int(np.count_nonzero(~keep))


def stack_designs(a, b):
    """Concatenate two designs on the same sample into one block design.

    A stacked row's group is the pair of its two groups
    (:func:`~lspart.basis.pair_groups`), whether or not the two bases share
    their partition.
    """
    if a.n != b.n:
        raise ConfigError("designs must share the sample")
    return SparseRows(
        np.hstack([a.indices, b.indices + a.K]),
        np.hstack([a.values, b.values]),
        a.K + b.K,
        pair_groups(a.groups, b.groups),
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
