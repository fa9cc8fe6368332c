"""Test-only oracles for the basis, the partition and the leading-error
polynomials.

Nothing in the package calls these; the tests check the package against
them.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from lspart.basis import BasisFamily, alpha_list
from lspart.errors import ConfigError, OutOfSupport


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
