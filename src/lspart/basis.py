"""Local basis evaluation on tensor-product partitions.

Three families share one sparse evaluation contract: every point activates a
fixed number of basis functions, so evaluation returns parallel (n, width)
index/value arrays instead of a dense design matrix.

Families
--------
- B-splines of order m (degree m - 1), open knot vector per axis, tensor
  products across axes. Right-continuous at interior knots; the right
  support endpoint takes its left limit.
- Piecewise polynomials of order m: all monomials of total degree < m in
  the cell-local coordinates, discontinuous across cells.
- Haar: cell indicators (the order-1 case of either family above).

Groups
------
Every row of a :class:`SparseRows` carries a group id, and rows with the
same id have identical ``indices`` rows: they activate the same functions.
:meth:`BasisSpec.eval_many` uses the flat cell of the point, since all
points of a cell share their active set in all three families, at every
derivative order. Every basis of one fit lives on the main partition, so
its designs share their groups, and a stacked design or a cross product
keeps them. The dense-output kernels (``weighted_cross``,
``quadratic_forms``, ``rows_times``) work one group at a time: one small
matrix product over the group's rows, then one write of the group's block.
Any grouping that keeps the invariant gives the same numbers up to roundoff;
the trivial one (every row its own group) is valid input too.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, UnsupportedDerivative
from .partition import TensorPartition


class BasisFamily(enum.Enum):
    BSPLINE = "bspline"
    PP = "pp"
    HAAR = "haar"


def alpha_list(d, m):
    """Exponent tuples with total degree < m, sorted by (total degree, tuple).

    This fixes the within-cell column order of the piecewise-polynomial
    family: e.g. d = 2, m = 3 gives (0,0), (0,1), (1,0), (0,2), (1,1), (2,0).
    """
    alphas = [
        a
        for a in itertools.product(range(m), repeat=d)
        if sum(a) <= m - 1
    ]
    alphas.sort(key=lambda a: (sum(a), a))
    return alphas


@dataclass(frozen=True)
class SparseRows:
    """Row-sparse design: row i holds the active functions at point i.

    ``indices`` and ``values`` are (n, width) arrays; column counts are
    constant by construction of the local bases. ``K`` is the full basis
    dimension. ``groups`` is an (n,) integer array of group ids, and rows
    with the same id have identical ``indices`` rows (see the module
    docstring). The kernels below do one small matrix product per group.
    """

    indices: np.ndarray
    values: np.ndarray
    K: int
    groups: np.ndarray

    @property
    def n(self):
        return self.indices.shape[0]

    @property
    def width(self):
        return self.indices.shape[1]

    @cached_property
    def _group_runs(self):
        return _runs(self.groups)

    def row_dot(self, coef):
        """Per-row inner product with a dense coefficient vector: (n,)."""
        coef = np.asarray(coef, dtype=float)
        return np.sum(self.values * coef[self.indices], axis=1)

    def rows_times(self, mat):
        """``design @ mat`` for a dense (K, r) matrix, returned as (n, r).

        Per group: one product V_g @ mat[idx_g] of its (n_g, width) values
        with the width rows of ``mat`` its rows share, written straight into
        the group's output rows. Memory stays at the (n, r) output plus one
        group's block.
        """
        mat = np.ascontiguousarray(mat, dtype=float)
        order, lead, spans = self._group_runs
        idx = self.indices[lead]
        vals = self.values[order]
        out = np.empty((self.n, mat.shape[1]))
        for g, (s, e) in enumerate(spans):
            out[order[s:e]] = vals[s:e] @ mat[idx[g]]
        return out

    def left_times(self, W):
        """``W @ design`` for a dense (c, n) matrix, returned as (c, K).

        The transpose of :meth:`rows_times`. W's columns are gathered into
        group order once; per group, one product W_g V_g of its (c, n_g)
        columns with the group's values is added into the width columns its
        rows share. W may hold 0/1 bits as ``uint8``: each group's columns
        are converted to float on their own, so memory stays at the gathered
        W plus one group's block.
        """
        order, lead, spans = self._group_runs
        idx = self.indices[lead]
        vals = self.values[order]
        W = np.asarray(W)[:, order]
        out = np.zeros((W.shape[0], self.K))
        for g, (s, e) in enumerate(spans):
            out[:, idx[g]] += W[:, s:e].astype(float, copy=False) @ vals[s:e]
        return out

    def accumulate(self, row_weights):
        """``design' w`` for per-row weights: dense (K,) vector of sums."""
        w = np.asarray(row_weights, dtype=float)
        return np.bincount(
            self.indices.ravel(),
            weights=(self.values * w[:, None]).ravel(),
            minlength=self.K,
        )

    def weighted_cross(self, other, row_weights=None):
        """Dense (K, other.K) mean (1/n) sum_i w_i p(x_i) q(x_i)', w = 1 by default.

        The one accumulation loop behind the Gram, cross-Gram and Sigma
        matrices. The two designs share their groups (:func:`shared_groups`).
        Per group, one product (V_a,g * w_g)' V_b,g gives a
        (width_a, width_b) block, and the blocks are scattered into the
        output once: C * width_a * width_b entries for C groups. The weights
        may be negative, so they scale the rows and are never split into
        square roots. Only V_a is gathered into group order as a whole; V_b,g
        is gathered per group. That saves one (n, width) copy, and a Gram
        keeps two distinct buffers, so numpy does not switch its product to
        the symmetric-rank-k kernel, whose roundoff differs.
        """
        shared_groups(self, other)
        order, lead, spans = self._group_runs
        va = self.values[order]
        if row_weights is not None:
            va *= np.asarray(row_weights, dtype=float)[order, None]
        vb = other.values
        blocks = np.empty((len(spans), self.width, other.width))
        for g, (s, e) in enumerate(spans):
            np.matmul(va[s:e].T, vb.take(order[s:e], axis=0), out=blocks[g])
        flat = self.indices[lead][:, :, None] * other.K + other.indices[lead][:, None, :]
        out = np.bincount(flat.ravel(), weights=blocks.ravel(), minlength=self.K * other.K)
        out /= self.n
        return out.reshape(self.K, other.K)

    def quadratic_forms(self, mat):
        """Row-wise ``p(x_i)' mat p(x_i)`` for a dense (K, K) matrix: (n,).

        Each group reads its (width, width) block of ``mat`` once and takes
        one product V_g @ M_g; the forms are then row-wise dots with V, so
        no (n, K) array is formed.
        """
        order, lead, spans = self._group_runs
        idx = self.indices[lead]
        blocks = np.asarray(mat)[idx[:, :, None], idx[:, None, :]]
        vals = self.values[order]
        vm = np.empty_like(vals)
        for g, (s, e) in enumerate(spans):
            np.matmul(vals[s:e], blocks[g], out=vm[s:e])
        out = np.empty(self.n)
        out[order] = np.einsum("ib,ib->i", vm, vals)
        return out

    def dense(self):
        """Materialize the (n, K) design; test and diagnostic use only."""
        out = np.zeros((self.n, self.K))
        np.add.at(out, (np.arange(self.n)[:, None], self.indices), self.values)
        return out


def shared_groups(a, b):
    """The groups of two designs on one sample and partition; else ConfigError."""
    if a.n != b.n:
        raise ConfigError("designs must share the sample")
    if a.groups is not b.groups and not np.array_equal(a.groups, b.groups):
        raise ConfigError("designs must share their groups (one partition)")
    return a.groups


def _runs(groups):
    """Rows sorted by group: ``(order, lead, spans)``.

    ``order`` is the stable sort order of ``groups``. Group g is rows
    ``order[s:e]`` for ``(s, e) = spans[g]``, and ``lead[g]`` is its first
    row, whose ``indices`` row all of the group shares.
    """
    order = np.argsort(groups, kind="stable")
    k = groups[order]
    new = np.ones(k.size, dtype=bool)
    new[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    spans = list(zip(starts.tolist(), starts[1:].tolist() + [k.size]))
    return order, order[starts], spans


@dataclass(frozen=True)
class BasisSpec:
    """A basis family of a given order on a given partition."""

    family: BasisFamily
    m: int
    partition: TensorPartition

    def __post_init__(self):
        if int(self.m) < 1:
            raise ConfigError(f"order must be >= 1, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        if self.family is BasisFamily.HAAR and self.m != 1:
            raise ConfigError("Haar basis is order 1 only")

    @property
    def dim(self):
        return self.partition.dim

    @property
    def K(self):
        """Total number of basis functions."""
        kap = self.partition.kappa
        if self.family is BasisFamily.BSPLINE:
            return int(np.prod([k + self.m - 1 for k in kap]))
        if self.family is BasisFamily.PP:
            return self.partition.num_cells * len(alpha_list(self.dim, self.m))
        return self.partition.num_cells

    @property
    def active_width(self):
        """Functions active at any single point."""
        if self.family is BasisFamily.BSPLINE:
            return self.m**self.dim
        if self.family is BasisFamily.PP:
            return len(alpha_list(self.dim, self.m))
        return 1

    def _check_deriv(self, deriv):
        d = self.dim
        if deriv is None:
            return (0,) * d
        deriv = tuple(int(v) for v in np.atleast_1d(deriv))
        if len(deriv) != d:
            raise UnsupportedDerivative(
                f"derivative tuple has length {len(deriv)}, expected {d}"
            )
        if any(v < 0 for v in deriv):
            raise UnsupportedDerivative("derivative orders must be >= 0")
        if any(v >= self.m for v in deriv):
            raise UnsupportedDerivative(
                f"derivative {deriv} needs order > {max(deriv)}, basis has m = {self.m}"
            )
        return deriv

    def eval_many(self, X, deriv=None, cells=None):
        """Evaluate (derivatives of) all active functions at many points.

        Parameters
        ----------
        X : array_like, shape (n, d)
            Points inside the support.
        deriv : tuple of int, optional
            Per-axis derivative orders; each must be < m. Default zeros.
        cells : numpy.ndarray, shape (n, d), optional
            ``self.partition.locate(X)``, when the caller has it: every basis
            on one partition reads the same cells, so they are located once.

        Returns
        -------
        SparseRows
        """
        deriv = self._check_deriv(deriv)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if cells is None:
            cells = self.partition.locate(X)
        flat = np.ravel_multi_index(cells.T, self.partition.kappa)
        if self.family is BasisFamily.BSPLINE:
            indices, values = self._eval_bspline(X, cells, deriv)
        elif self.family is BasisFamily.PP:
            indices, values = self._eval_pp(X, cells, flat, deriv)
        else:
            indices, values = flat[:, None], np.ones((X.shape[0], 1))
        return SparseRows(indices, values, self.K, flat)

    # -- family internals ---------------------------------------------------

    def _eval_bspline(self, X, cells, deriv):
        d, m = self.dim, self.m
        n = X.shape[0]
        kap = self.partition.kappa
        sizes = [k + m - 1 for k in kap]
        vals_per_dim = []
        for ell in range(d):
            ext = _extended_knots(self.partition.knots[ell], m)
            spans = cells[:, ell] + (m - 1)
            vals_per_dim.append(
                _bspline_derivs_1d(ext, m, spans, X[:, ell], deriv[ell])
            )
        # first active flat index along axis ell is the cell index itself
        strides = _c_strides(sizes)
        A = m**d
        indices = np.empty((n, A), dtype=np.intp)
        values = np.empty((n, A))
        for a, offs in enumerate(itertools.product(range(m), repeat=d)):
            idx = np.zeros(n, dtype=np.intp)
            val = np.ones(n)
            for ell in range(d):
                idx += (cells[:, ell] + offs[ell]) * strides[ell]
                val *= vals_per_dim[ell][:, offs[ell]]
            indices[:, a] = idx
            values[:, a] = val
        return indices, values

    def _eval_pp(self, X, cells, flat, deriv):
        d, m = self.dim, self.m
        n = X.shape[0]
        alphas = alpha_list(d, m)
        J = len(alphas)
        lower, width = self.partition.geometry(cells)
        z = (X - lower) / width
        indices = flat[:, None] * J + np.arange(J, dtype=np.intp)[None, :]
        # power table: zpow[ell, k] = z_ell ** k as running products
        zpow = np.empty((d, m, n))
        zpow[:, 0] = 1.0
        for k in range(1, m):
            zpow[:, k] = zpow[:, k - 1] * z.T
        scale = np.prod(width ** np.asarray(deriv), axis=1)
        values = np.zeros((n, J))
        for rank, a in enumerate(alphas):
            if any(a[ell] < deriv[ell] for ell in range(d)):
                continue  # derivative kills this monomial
            c = math.prod(
                math.factorial(a[ell]) // math.factorial(a[ell] - deriv[ell])
                for ell in range(d)
            )
            col = np.full(n, float(c))
            for ell in range(d):
                col *= zpow[ell, a[ell] - deriv[ell]]
            values[:, rank] = col / scale
        return np.ascontiguousarray(indices), values


def _c_strides(sizes):
    strides = [1] * len(sizes)
    for ell in range(len(sizes) - 2, -1, -1):
        strides[ell] = strides[ell + 1] * sizes[ell + 1]
    return strides


def _extended_knots(knots, m):
    """Open knot vector: boundary knots with multiplicity m."""
    if m == 1:
        return knots
    return np.concatenate(
        [np.full(m - 1, knots[0]), knots, np.full(m - 1, knots[-1])]
    )


def _bspline_derivs_1d(ext, m, spans, x, nu):
    """Order-``nu`` derivatives of the m active B-splines at each point.

    Vectorized knot-triangle recursion (the classical Cox-de Boor derivative
    algorithm) over all points at once. ``spans`` are indices into ``ext``
    with ext[s] <= x < ext[s+1] nonempty, which keeps every denominator
    strictly positive.

    Returns an (n, m) array; column r is basis function ``spans - (m-1) + r``.
    """
    p = m - 1
    n = x.shape[0]
    if nu > p:
        return np.zeros((n, m))
    left = np.zeros((p + 1, n))
    right = np.zeros((p + 1, n))
    ndu = np.zeros((p + 1, p + 1, n))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - ext[spans + 1 - j]
        right[j] = ext[spans + j] - x
        saved = np.zeros(n)
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]  # knot difference, > 0
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    if nu == 0:
        return ndu[:, p].T.copy()

    ders = np.zeros((p + 1, n))
    a = np.zeros((2, p + 1, n))
    for r in range(p + 1):
        a.fill(0.0)
        a[0, 0] = 1.0
        s1, s2 = 0, 1
        d = None
        for k in range(1, nu + 1):
            d = np.zeros(n)
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d += a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            s1, s2 = s2, s1
        ders[r] = d
    factor = float(math.factorial(p) // math.factorial(p - nu))
    return (ders * factor).T.copy()
