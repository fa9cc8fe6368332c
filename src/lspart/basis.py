"""Local basis evaluation on tensor-product partitions.

Two families share one sparse evaluation contract: every point activates a
fixed number of basis functions, so evaluation returns parallel (n, width)
index/value arrays instead of a dense design matrix.

Families
--------
- B-splines of order m (degree m - 1), open knot vector per axis, tensor
  products across axes. Right-continuous at interior knots; the right
  support endpoint takes its left limit.
- Piecewise polynomials of order m: all monomials of total degree < m in
  the cell-local coordinates, discontinuous across cells. Haar, the cell
  indicators, is their order-1 case (:func:`check_family`).

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
same id activate the same functions. A design stores that active set once per
group, as a (groups, width) ``table``; the (n, width) ``indices`` of its rows
are ``table[groups]``, built only when read. :meth:`BasisSpec.eval_many`
groups points by cell, since all points of a cell share their active set in
both families, at every derivative order: a point's group is the rank of its
flat cell among the cells its points touch (:func:`cell_groups`), so the table
has one row per touched cell, never more rows than points. The one sort that
ranks the cells also gives the rows' group runs, which the kernels read; a
design derived with the same groups (:meth:`SparseRows.replace`) shares them.
Every basis of one fit lives on the main partition, so its designs share
their groups, and a stacked design or a cross product keeps them. The
dense-output kernels (``weighted_cross``, ``quadratic_forms``, ``bit_sums``)
work one group at a time: they gather the group's rows, take one small matrix
product and write the group's block straight into their one output, so no
(n, width) copy of the design is formed. ``bit_sums`` gathers from one
contiguous (bytes, draws) copy of its block of packed bits. Any grouping that
keeps the invariant gives the same numbers up to roundoff; the trivial one
(every row its own group, the table then the per-row indices) is valid input
too.
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


def check_family(family, m):
    """``(family, m)`` checked; Haar is order 1 only and returned as PP."""
    family, m = check_choice(BasisFamily, family), check_whole(m, "order", 1)
    if family is BasisFamily.HAAR and m != 1:
        raise ConfigError("Haar basis is order 1 only")
    return (BasisFamily.PP if family is BasisFamily.HAAR else family), m


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


@dataclass(frozen=True, kw_only=True)
class SparseRows:
    """Row-sparse design: row i holds the active functions at point i.

    ``values`` is an (n, width) array; column counts are constant by
    construction of the local bases. ``K`` is the full basis dimension.
    ``groups`` is an (n,) integer array of group ids, and ``table`` holds one
    row of ``width`` function indices per id: row i activates
    ``table[groups[i]]`` (see the module docstring). ``indices``, the
    (n, width) per-row array, is built from them on each read. The kernels
    below do one small matrix product per group.

    Every field is keyword-only, and a ``table`` whose width differs from
    ``values``' or a group id outside its rows is ``ConfigError``.
    """

    table: np.ndarray
    values: np.ndarray
    K: int
    groups: np.ndarray

    def __post_init__(self):
        table, values, groups = self.table, self.values, self.groups
        if table.ndim != 2 or values.ndim != 2 or table.shape[1] != values.shape[1]:
            raise ConfigError(f"table of shape {table.shape} does not match "
                              f"values of shape {values.shape}")
        if groups.shape != values.shape[:1] or groups.dtype.kind not in "iu":
            raise ConfigError(f"groups must be {values.shape[0]} integer ids")
        if groups.size and (groups.min() < 0 or groups.max() >= table.shape[0]):
            raise ConfigError(f"group ids must index the {table.shape[0]} table rows")

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]

    @property
    def indices(self):
        """(n, width) functions active at each row, ``table[groups]``."""
        return self.table.take(self.groups, axis=0)

    @cached_property
    def _group_runs(self):
        return _runs(self.groups)

    def replace(self, *, table=None, values=None, K=None):
        """This design with ``table``, ``values`` or ``K`` replaced, and its
        groups kept: the new design shares their runs, sorted once."""
        out = SparseRows(table=self.table if table is None else table,
                         values=self.values if values is None else values,
                         K=self.K if K is None else K, groups=self.groups)
        return _with_runs(out, self._group_runs)

    def row_dot(self, coef):
        """Per-row inner product with a dense coefficient vector: (n,)."""
        coef = np.asarray(coef, dtype=float)
        coef = coef.take(self.table).take(self.groups, axis=0)
        return np.sum(self.values * coef, axis=1)

    def bit_sums(self):
        """``sums(octets)``, the function ``W @ design`` for 0/1 matrices W
        given as packed bits, returned as (c, K).

        Bit i % 8 of ``octets[:, i // 8]`` is W[:, i], the layout of
        ``np.packbits(W, axis=1, bitorder="little")``. The row layout is
        computed here once, for a caller that sums many blocks of bits, and
        the function reads the design's values as they are now. No (c, n)
        array is formed. Each call copies its octets once into a contiguous
        (bytes, c) array. Per group, the rows of that copy that hold its rows'
        bits are gathered, one row per group row, and masked to those bits,
        so an entry is 0 or the bit's place value 2^(i % 8). One product of
        the group's values, each divided by its place value, with that
        (n_g, c) block is added into the width rows of the (K, c) transpose
        its rows share. Every product is then bit times value, exact for
        values 0 or of magnitude at least 2^-1015.
        """
        order, lead, spans = self._group_runs
        idx = self.table[self.groups[lead]]
        byte = order // 8
        place = np.left_shift(1, order % 8).astype(np.uint8)[:, None]
        vals = (self.values[order] / place).T
        parts = [(idx[g], byte[s:e], place[s:e], vals[:, s:e])
                 for g, (s, e) in enumerate(spans)]
        K = self.K

        def sums(octets):
            rows = np.ascontiguousarray(octets.T)
            out = np.zeros((K, octets.shape[0]))
            for cols, at, bits, v in parts:
                block = rows.take(at, axis=0)
                block &= bits
                out[cols] += v @ block.astype(float)
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
        Per group, both sides' rows are gathered and V_a,g scaled by the
        weights, and the one (width_a, width_b) product (V_a,g * w_g)' V_b,g
        is added into the output at the entries its two table rows address.
        So the output is the only array of its size, and every entry receives
        its groups' blocks in group order, starting from zero. The weights
        may be negative, so they scale the rows and are never split into
        square roots. A Gram gathers its two sides into distinct buffers, so
        numpy does not switch the product to the symmetric-rank-k kernel,
        whose roundoff differs.
        """
        shared_groups(self, other)
        order, lead, spans = self._group_runs
        w = None if row_weights is None else np.asarray(row_weights, dtype=float)
        out = np.zeros((self.K, other.K))
        flat, row_starts = out.reshape(-1), self.table * other.K
        for g, (s, e) in zip(self.groups[lead].tolist(), spans):
            rows = order[s:e]
            va = self.values.take(rows, axis=0)
            if w is not None:
                va *= w.take(rows)[:, None]
            flat[np.add.outer(row_starts[g], other.table[g])] += (
                va.T @ other.values.take(rows, axis=0))
        out /= self.n
        return out

    def quadratic_forms(self, mat):
        """Row-wise ``p(x_i)' mat p(x_i)`` for a dense (K, K) matrix: (n,).

        Each group gathers its rows, reads its (width, width) block of
        ``mat`` and takes one product V_g @ M_g; the forms are then row-wise
        dots with V_g, so no (n, K) or (n, width) array is formed.
        """
        order, lead, spans = self._group_runs
        mat = np.asarray(mat)
        out = np.empty(self.n)
        for g, (s, e) in zip(self.groups[lead].tolist(), spans):
            rows = order[s:e]
            idx = self.table[g]
            vals = self.values.take(rows, axis=0)
            out[rows] = np.einsum("ib,ib->i", vals @ mat[idx[:, None], idx], vals)
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


def cell_groups(cells, kappa):
    """``(groups, runs)`` of points located on a partition of ``kappa`` cells.

    A point's group is the rank of its flat cell among the distinct cells of
    ``cells``, in increasing order. So the groups number only the touched
    cells, at most one per point, however many cells the partition has.
    ``runs`` is ``_runs(groups)`` from the one sort of the flat cells: the
    ranks keep their order, so they sort the same.
    """
    order, new = _sort(np.ravel_multi_index(cells.T, kappa))
    groups = np.empty(order.size, dtype=np.intp)
    groups[order] = np.cumsum(new) - 1
    return groups, _spans(order, new)


def _runs(groups):
    """Rows sorted by group: ``(order, lead, spans)``.

    ``order`` is the stable sort order of ``groups`` (:func:`_sort`). Group
    run g is rows ``order[s:e]`` for ``(s, e) = spans[g]``, in increasing
    order of the ids, and ``lead[g]`` is its first row.
    """
    return _spans(*_sort(groups))


def _spans(order, new):
    # the runs of a sort order, new ids starting where ``new`` is set
    starts = np.flatnonzero(new)
    spans = list(zip(starts.tolist(), starts[1:].tolist() + [order.size]))
    return order, order[starts], spans


def _with_runs(rows, runs):
    """``rows`` with ``runs`` as its cached group runs, so no kernel sorts
    them again (``cached_property`` keeps them in the instance dict)."""
    rows.__dict__["_group_runs"] = runs
    return rows


def _sort(groups):
    """``(order, new)``: the stable sort order of ``groups``, and where in that
    order a new id starts.

    Ids in [0, 2^16), such as the groups of fewer than 65536 cells, are
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
    return order, new


@dataclass(frozen=True)
class BasisSpec:
    """A basis family of a given order on a given partition (Haar as PP)."""

    family: BasisFamily
    m: int
    partition: TensorPartition

    def __post_init__(self):
        family, m = check_family(self.family, self.m)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "m", m)

    @property
    def dim(self):
        return self.partition.dim

    @property
    def K(self):
        """Total number of basis functions."""
        if self.family is BasisFamily.BSPLINE:
            return math.prod(k + self.m - 1 for k in self.partition.kappa)
        return self.partition.num_cells * len(alpha_list(self.dim, self.m))

    def monomial_coefs(self, m):
        """(K, m^d) B-spline coefficients of prod_ell z_ell^k_ell, k_ell < m, z
        scaled to [0, 1] per axis, columns row-major. Marsden's identity (de
        Boor, *A Practical Guide to Splines*): z^k = sum_i e_k(t_{i+1..i+M-1})
        / C(M - 1, k) B_i over the scaled knots; axes combine by Kronecker."""
        M, out = self.m, np.ones((1, 1))
        for t in self.partition.knots:
            ext = _extended_knots((t - t[0]) / (t[-1] - t[0]), M)
            e = np.tile(np.eye(1, m), (len(t) + M - 2, 1))  # e_k of no knots
            for r in range(1, M):  # multiply in the factor (1 + t_{i+r} s)
                e[:, 1:] = e[:, 1:] + e[:, :-1] * ext[r : r + len(e), None]
            out = np.kron(out, e / [math.comb(M - 1, k) for k in range(m)])
        return out

    def _check_deriv(self, deriv):
        deriv = check_deriv(deriv, self.dim)
        bspline = self.family is BasisFamily.BSPLINE
        rule, order = ("per-axis", max(deriv)) if bspline else ("total", sum(deriv))
        if order >= self.m:
            raise UnsupportedDerivative(
                f"derivative {deriv} has {rule} order {order}, basis has m = {self.m}")
        return deriv

    def eval_many(self, X, deriv=None, cells=None):
        """Evaluate (derivatives of) all active functions at many points.

        Parameters
        ----------
        X : array_like, shape (n, d)
            Points inside the support.
        deriv : tuple of int, optional
            Per-axis orders, default zeros: max < m (B-splines), sum < m (PP).
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
        groups, runs = cell_groups(cells, self.partition.kappa)
        first = runs[1]
        if self.family is BasisFamily.BSPLINE:
            table, values = self._eval_bspline(X, cells, first, deriv)
        else:
            table, values = self._eval_pp(X, cells, first, deriv)
        rows = SparseRows(table=table, values=values, K=self.K, groups=groups)
        return _with_runs(rows, runs)

    # -- family internals ---------------------------------------------------

    def _eval_bspline(self, X, cells, first, deriv):
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
        table = (np.ravel_multi_index(cells[first].T, sizes)[:, None]
                 + np.ravel_multi_index(offs.T, sizes))
        return table, _tensor_columns(tables, offs.tolist(), [1] * len(offs))

    def _eval_pp(self, X, cells, first, deriv):
        # column a is c_a z^(a - deriv) / width^deriv, with the falling
        # factorial c_a = prod_ell a_ell! / (a_ell - deriv_ell)!; c_a = 0 when
        # the derivative kills the monomial, whose table row is then moot
        d, m = self.dim, self.m
        alphas = np.array(alpha_list(d, m))
        lower, width = self.partition.geometry(cells)
        z = (X - lower) / width
        flat = np.ravel_multi_index(cells[first].T, self.partition.kappa)
        table = flat[:, None] * len(alphas) + np.arange(len(alphas), dtype=np.intp)
        # power table: zpow[ell, k] = z_ell ** k as running products
        zpow = np.empty((d, m, X.shape[0]))
        zpow[:, 0] = 1.0
        for k in range(1, m):
            zpow[:, k] = zpow[:, k - 1] * z.T
        coefs = [math.prod(map(math.perm, a.tolist(), deriv)) for a in alphas]
        scale = np.prod(width ** np.asarray(deriv), axis=1)
        values = _tensor_columns(zpow, np.maximum(alphas - deriv, 0).tolist(), coefs)
        values /= scale[:, None]
        return table, values


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
