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
- Haar: cell indicators, evaluated as the order-1 piecewise polynomial.

Evaluation
----------
Both evaluated families are tensor products: column r of a row is
coef_r * prod_ell table_ell[a_ell] for per-axis tables of per-point factors.
For piecewise polynomials the tables hold the powers of the cell-local
coordinate, and coef_r is the falling factorial of the derivative; the row
is then divided by the cell widths to the derivative orders. For B-splines
coef_r = 1, and each axis' table holds the m active B-splines (or one
derivative of them) from one order-raising recursion. It starts from the
indicator of the point's knot span and raises the order m - 1 times; every
step spreads each active function over the two functions of the next order
that it meets, through the knot width w of its support: the first steps with
the Cox-de Boor weights, the last nu steps (for the nu-th derivative) with
-1/w and +1/w, and the table is scaled once by (m - 1)!/(m - 1 - nu)!.

Groups
------
Every row of a :class:`SparseRows` carries a group id, and rows with the
same id have identical ``indices`` rows: they activate the same functions.
:meth:`BasisSpec.eval_many` uses the flat cell of the point, since all
points of a cell share their active set in all three families, at every
derivative order. Every basis of one fit lives on the main partition, so
its designs share their groups, and a stacked design or a cross product
keeps them. The dense-output kernels (``weighted_cross``,
``quadratic_forms``, ``bit_sums``) work one group at a time: one small
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

from .errors import ConfigError, UnsupportedDerivative, check_choice, check_whole
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


def check_deriv(q, d):
    """Derivative multi-index q for d axes as a tuple of ints; None means zeros.

    A length other than d, or an entry that is negative or not a whole
    number, is ``UnsupportedDerivative``.
    """
    if q is None:
        return (0,) * d
    q = np.atleast_1d(q).tolist()
    if len(q) != d:
        raise UnsupportedDerivative(f"derivative tuple has length {len(q)}, expected {d}")
    return tuple(check_whole(v, "derivative order", 0, UnsupportedDerivative) for v in q)


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

    def bit_sums(self):
        """``sums(octets)``, the function ``W @ design`` for 0/1 matrices W
        given as packed bits, returned as (c, K).

        Bit i % 8 of ``octets[:, i // 8]`` is W[:, i], the layout of
        ``np.packbits(W, axis=1, bitorder="little")``. The row layout is
        computed here once, for a caller that sums many blocks of bits, and
        the function reads the design's values as they are now. No (c, n)
        array is formed. Per group, the bytes that hold its rows' bits are
        gathered, one row per group row, and masked to those bits, so an
        entry is 0 or the bit's place value 2^(i % 8). One product of the
        group's values, each divided by its place value, with that (n_g, c)
        block is added into the width rows of the (K, c) transpose its rows
        share. Every product is then bit times value, exact for values 0 or
        of magnitude at least 2^-1015.
        """
        order, lead, spans = self._group_runs
        idx = self.indices[lead]
        byte = order // 8
        place = np.left_shift(1, order % 8).astype(np.uint8)[:, None]
        vals = (self.values[order] / place).T
        K = self.K

        def sums(octets):
            rows = octets.T
            out = np.zeros((K, octets.shape[0]))
            for g, (s, e) in enumerate(spans):
                block = rows[byte[s:e]]
                block &= place[s:e]
                out[idx[g]] += vals[:, s:e] @ block.astype(float)
            return out.T

        return sums

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
        out = out.astype(float, copy=False)  # an empty bincount is integer
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
        """Materialize the dense (n, K) design.

        At the sample this is a test oracle only: no production route forms
        an (n, K) array. :meth:`FitResult.gamma_many` densifies its rows at
        G evaluation points, a (G, K) array the size of the gamma it returns.
        """
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
    row, whose ``indices`` row all of the group shares. Ids in [0, 2^16),
    such as the flat cells of any partition of fewer than 65536 cells, are
    sorted as ``uint16``, for which numpy's stable sort is an O(n) radix
    sort with the same order; larger ids keep the comparison sort.
    """
    keys = groups
    if groups.size and 0 <= groups.min() and groups.max() < 1 << 16:
        keys = groups.astype(np.uint16)
    order = np.argsort(keys, kind="stable")
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
        object.__setattr__(self, "family", check_choice(BasisFamily, self.family))
        object.__setattr__(self, "m", check_whole(self.m, "order", 1))
        if self.family is BasisFamily.HAAR and self.m != 1:
            raise ConfigError("Haar basis is order 1 only")

    @property
    def dim(self):
        return self.partition.dim

    @property
    def K(self):
        """Total number of basis functions."""
        if self.family is BasisFamily.BSPLINE:
            return int(np.prod([k + self.m - 1 for k in self.partition.kappa]))
        return self.partition.num_cells * len(alpha_list(self.dim, self.m))

    def _check_deriv(self, deriv):
        deriv = check_deriv(deriv, self.dim)
        if max(deriv) >= self.m:
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
        else:
            indices, values = self._eval_pp(X, cells, flat, deriv)
        return SparseRows(indices, values, self.K, flat)

    # -- family internals ---------------------------------------------------

    def _eval_bspline(self, X, cells, deriv):
        # the first active function along axis ell is the cell index itself,
        # and the flat index is linear in the per-axis ones
        m = self.m
        tables = [
            _bspline_derivs_1d(_extended_knots(k, m), m, cells[:, ell] + (m - 1),
                               X[:, ell], deriv[ell])
            for ell, k in enumerate(self.partition.knots)
        ]
        offs = np.array(list(itertools.product(range(m), repeat=self.dim)))
        sizes = [k + m - 1 for k in self.partition.kappa]
        indices = (np.ravel_multi_index(cells.T, sizes)[:, None]
                   + np.ravel_multi_index(offs.T, sizes))
        return indices, _tensor_columns(tables, offs.tolist(), [1] * len(offs))

    def _eval_pp(self, X, cells, flat, deriv):
        # column a is c_a z^(a - deriv) / width^deriv, with the falling
        # factorial c_a = prod_ell a_ell! / (a_ell - deriv_ell)!; c_a = 0 when
        # the derivative kills the monomial, whose table row is then moot
        d, m = self.dim, self.m
        alphas = np.array(alpha_list(d, m))
        lower, width = self.partition.geometry(cells)
        z = (X - lower) / width
        indices = flat[:, None] * len(alphas) + np.arange(len(alphas), dtype=np.intp)
        # power table: zpow[ell, k] = z_ell ** k as running products
        zpow = np.empty((d, m, X.shape[0]))
        zpow[:, 0] = 1.0
        for k in range(1, m):
            zpow[:, k] = zpow[:, k - 1] * z.T
        coefs = [math.prod(map(math.perm, a.tolist(), deriv)) for a in alphas]
        scale = np.prod(width ** np.asarray(deriv), axis=1)
        values = _tensor_columns(zpow, np.maximum(alphas - deriv, 0).tolist(), coefs)
        values /= scale[:, None]
        return indices, values


def _tensor_columns(tables, exps, coefs):
    """(n, r) array whose column r is coefs[r] * prod_ell tables[ell][exps[r][ell]].

    ``tables[ell]`` holds one row of n per-point factors for each index
    along axis ell; each product runs left to right, from the coefficient.
    """
    n = tables[0].shape[1]
    out = np.empty((n, len(exps)))
    for r, (a, c) in enumerate(zip(exps, coefs)):
        col = np.full(n, float(c))
        for table, i in zip(tables, a):
            col *= table[i]
        out[:, r] = col
    return out


def _extended_knots(knots, m):
    """Open knot vector: boundary knots with multiplicity m."""
    return np.concatenate(
        [np.full(m - 1, knots[0]), knots, np.full(m - 1, knots[-1])]
    )


def _bspline_derivs_1d(ext, m, spans, x, nu):
    """Order-``nu`` derivatives of the m active B-splines, as an (m, n) table.

    One order-raising recursion over all points at once. ``spans`` index
    ``ext`` with ext[s] <= x < ext[s+1] nonempty, and the recursion starts
    from that span's indicator. Step k raises the order from k to k + 1:
    each active order-k function i, of knot width
    w = (t_{i+k} - x) + (x - t_i) > 0, feeds the functions i - 1 and i of
    order k + 1 with the Cox-de Boor weights (t_{i+k} - x)/w and (x - t_i)/w
    in the first m - 1 - nu steps, and with -1/w and +1/w in the last nu
    steps. Those drop the factor k of d/dx B^(k+1) = k (B_i^k/w - ...), so
    the table is scaled once by (m - 1)!/(m - 1 - nu)!.

    Row r is basis function ``spans - (m-1) + r``.
    """
    n = x.shape[0]
    right = ext[spans + np.arange(1, m)[:, None]] - x  # row j: t_{s+1+j} - x
    left = x - ext[spans - np.arange(m - 1)[:, None]]  # row j: x - t_{s-j}
    vals = np.ones((1, n))
    for k in range(1, m):
        rk, lk = right[:k], left[k - 1::-1]
        w = rk + lk
        new = np.zeros((k + 1, n))
        if k < m - nu:
            temp = vals / w
            new[:-1] += rk * temp
            new[1:] += lk * temp
        else:
            temp = (1.0 / w) * vals
            new[:-1] -= temp
            new[1:] += temp
        vals = new
    return vals * float(math.perm(m - 1, nu))
