"""Test-only oracles for the basis, the partition, the leading-error
polynomials and the whole-array forms of the per-group kernels.

Nothing in the package calls these; the tests check the package against
them.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from lspart.basis import BasisFamily, _runs, alpha_list
from lspart.errors import ConfigError, OutOfSupport
from lspart.fit import _PIVOT_REL_TOL, _checked_inv, _deflate


class OrderingMap:
    """Bijection between structured basis labels and flat column indices.

    B-spline labels are per-axis function indices; Haar labels are per-axis
    cell indices; piecewise-polynomial labels are (cell tuple, exponent
    tuple) pairs. Flat order is C order (last axis fastest), with the
    within-cell exponent block innermost for piecewise polynomials.
    """

    def __init__(self, spec):
        self.spec = spec
        kap = spec.partition.kappa
        if spec.family is BasisFamily.BSPLINE:
            self.shape = tuple(k + spec.m - 1 for k in kap)
        else:
            self.shape = tuple(kap)
        if spec.family is BasisFamily.PP:
            self._alphas = alpha_list(spec.dim, spec.m)
            self._rank = {a: r for r, a in enumerate(self._alphas)}

    def to_flat(self, label):
        if self.spec.family is BasisFamily.PP:
            cell, alpha = label
            cell = tuple(int(i) for i in cell)
            alpha = tuple(int(i) for i in alpha)
            if alpha not in self._rank:
                raise ConfigError(f"exponent {alpha} not in the basis")
            base = int(np.ravel_multi_index(cell, self.shape))
            return base * len(self._alphas) + self._rank[alpha]
        label = tuple(int(i) for i in label)
        return int(np.ravel_multi_index(label, self.shape))

    def from_flat(self, k):
        k = int(k)
        if self.spec.family is BasisFamily.PP:
            J = len(self._alphas)
            cell = np.unravel_index(k // J, self.shape)
            return tuple(int(i) for i in cell), self._alphas[k % J]
        return tuple(int(i) for i in np.unravel_index(k, self.shape))


def polynomial_reproduction_check(spec, degree, points_per_cell=None):
    """Max residual of LS-projecting monomials of total degree <= ``degree``.

    Uses a deterministic dense grid with several points per cell per axis,
    so the projection is well posed whenever the basis is. A value at
    roundoff scale certifies the polynomial sits inside the span.
    """
    part = spec.partition
    d = part.dim
    ppc = points_per_cell or (spec.m + 2)
    axes = []
    for k in part.knots:
        pts = [
            np.linspace(k[i], k[i + 1], ppc + 2)[1:-1]
            for i in range(k.shape[0] - 1)
        ]
        axes.append(np.concatenate(pts))
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    design = spec.eval_many(X).dense()
    worst = 0.0
    for alpha in itertools.product(range(degree + 1), repeat=d):
        if sum(alpha) > degree:
            continue
        y = np.prod(X**np.asarray(alpha, dtype=float), axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        worst = max(worst, float(np.max(np.abs(design @ coef - y))))
    return worst


@dataclass(frozen=True)
class CellGeometry:
    """One cell of a tensor partition."""

    index: tuple
    lower: np.ndarray
    width: np.ndarray

    @property
    def diameter(self):
        return float(np.sqrt(np.sum(self.width**2)))


def cell(part, index):
    """Geometry of a single cell of ``part`` given its per-axis index tuple."""
    index = tuple(int(i) for i in np.atleast_1d(index))
    if len(index) != part.dim:
        raise OutOfSupport(f"cell index {index} has wrong length")
    for ell, i in enumerate(index):
        if not 0 <= i < part.kappa[ell]:
            raise OutOfSupport(f"cell index {index} outside partition")
    lower, width = part.geometry(np.array([index]))
    return CellGeometry(index, lower[0], width[0])


def exact_poly(family, k):
    """Ascending exact power coefficients of B_k(z) for B-splines, from the
    Bernoulli numbers' recurrence sum_j C(i + 1, j) B_j = 0, or of the shifted
    Legendre polynomial P_k(2z - 1) for piecewise polynomials, from its closed
    form sum_j (-1)^(k + j) C(k, j) C(k + j, j) z^j."""
    if family is BasisFamily.BSPLINE:
        nums = [Fraction(1)]
        for i in range(1, k + 1):
            nums.append(-sum(math.comb(i + 1, j) * nums[j] for j in range(i)) / (i + 1))
        return [math.comb(k, j) * nums[k - j] for j in range(k + 1)]
    return [Fraction((-1) ** (k + j) * math.comb(k, j) * math.comb(k + j, j))
            for j in range(k + 1)]


# -- whole-array kernels ------------------------------------------------------
# The per-group kernels write each group's block straight into their one
# output. These are the earlier whole-array forms, which gather the whole
# design into group order and scatter all blocks at once, and the sign-sum
# kernel that gathers from the strided bytes; the kernels must give the same
# bits.


def weighted_cross_whole(a, b, row_weights=None):
    """(K_a, K_b) mean (1/n) sum_i w_i a(x_i) b(x_i)': V_a gathered into group
    order as a whole, one block per group, one bincount over a flat index."""
    order, lead, spans = _runs(a.groups)
    va = a.values[order]
    if row_weights is not None:
        va *= np.asarray(row_weights, dtype=float)[order, None]
    vb = b.values
    blocks = np.empty((len(spans), a.width, b.width))
    for g, (s, e) in enumerate(spans):
        np.matmul(va[s:e].T, vb.take(order[s:e], axis=0), out=blocks[g])
    flat = a.indices[lead][:, :, None] * b.K + b.indices[lead][:, None, :]
    out = np.bincount(flat.ravel(), weights=blocks.ravel(), minlength=a.K * b.K)
    out = out.astype(float, copy=False)  # an empty bincount is integer
    out /= a.n
    return out.reshape(a.K, b.K)


def quadratic_forms_whole(rows, mat):
    """Row-wise p(x_i)' mat p(x_i): all (width, width) blocks of ``mat`` and
    the whole design gathered into group order at once."""
    order, lead, spans = _runs(rows.groups)
    idx = rows.indices[lead]
    blocks = np.asarray(mat)[idx[:, :, None], idx[:, None, :]]
    vals = rows.values[order]
    vm = np.empty_like(vals)
    for g, (s, e) in enumerate(spans):
        np.matmul(vals[s:e], blocks[g], out=vm[s:e])
    out = np.empty(rows.n)
    out[order] = np.einsum("ib,ib->i", vm, vals)
    return out


def bit_sums_strided(rows):
    """``sums(octets)``, ``W @ design`` from packed bits as (c, K): each group
    gathers its bytes straight from the strided view ``octets.T``."""
    order, lead, spans = _runs(rows.groups)
    idx = rows.table[rows.groups[lead]]
    byte = order // 8
    place = np.left_shift(1, order % 8).astype(np.uint8)[:, None]
    vals = (rows.values[order] / place).T

    def sums(octets):
        view = octets.T
        out = np.zeros((rows.K, octets.shape[0]))
        for g, (s, e) in enumerate(spans):
            block = view[byte[s:e]]
            block &= place[s:e]
            out[idx[g]] += vals[:, s:e] @ block.astype(float)
        return out.T

    return sums


def symmetrized(sig):
    """The symmetric part of a matrix as a fresh array."""
    return 0.5 * (sig + sig.T)


def stacked_ginv_block(gram_main, gram_bc, cross, null):
    """The stacked Gram's generalized inverse, assembled by ``np.block``."""
    k0 = gram_main.K
    t = cross @ gram_bc.inv
    s = gram_main.Q - t @ cross.T
    floor = _PIVOT_REL_TOL * float(np.trace(s)) / k0
    s_inv = _checked_inv(_deflate(s, np.linalg.qr(null[:k0])[0]), floor)
    s_inv = 0.5 * (s_inv + s_inv.T)
    u = t.T @ s_inv
    return np.block([[s_inv, -u.T], [-u, u @ t + gram_bc.inv]])
