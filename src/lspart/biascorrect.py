"""Leading approximation-error shapes and plug-in bias estimates.

On a cell with lower corner t_L and widths b, write z = (x - t_L) / b for
the unit-cell coordinate. The leading error of the order-m least-squares
fit takes the family-specific form

    lead_{m,q}(x) = - sum_{u in Lambda_m} d^u mu(x) * b^(u-q) * shape(u, q, z)

where shape(u, q, .) is the q-th z-derivative of a fixed polynomial
product shape(u, 0, .) on [0,1]^d (Bernoulli factors for B-splines, scaled
shifted-Legendre factors for piecewise polynomials) and vanishes whenever
u - q has a negative entry. A Bernoulli factor's derivative is again one,
B_k' / k! = B_{k-1} / (k-1)!; a Legendre factor's is not, once u - q >= 2.
The plug-in estimate reads d^u mu off the order-mtilde fit,
d^u mu-tilde = (d^u ptilde)' beta-tilde, so it is linear in the
coefficients:

    lead_q(x) = - R_q(x)' beta-tilde,   R_q = sum_u w_{u,q} d^u ptilde,

with w_{u,q} = b^(u-q) * shape(u, q, z). :func:`lead_rows` builds R_q as
one row-sparse design, once per fit, point set and q, inside the fit's row
bundle; every use of the lead (the plug-in estimate, the fitted values and
weights of the j = 3 estimator, the direct-plug-in partition-size selector)
reads it there, as ``fit.at(pts, q).lead``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basis import BasisFamily, SparseRows, check_deriv
from .errors import ConfigError, UnsupportedFamily

_MAX_ORDER = 12


@lru_cache(maxsize=None)
def _bernoulli_coeffs(k):
    # ascending-power coefficients, exact: B_k' = k B_{k-1}, int_0^1 B_k = 0
    if k == 0:
        return (Fraction(1),)
    prev = _bernoulli_coeffs(k - 1)
    tail = [Fraction(0)] * (k + 1)
    for j in range(1, k + 1):
        tail[j] = Fraction(k) * prev[j - 1] / j
    tail[0] = -sum(c / (j + 1) for j, c in enumerate(tail) if j > 0)
    return tuple(tail)


def bernoulli_poly(k, z):
    """k-th Bernoulli polynomial, vectorized in ``z``; 0 <= k <= 12."""
    if not 0 <= k <= _MAX_ORDER:
        raise ConfigError(f"Bernoulli order must be in [0, {_MAX_ORDER}], got {k}")
    coeffs = [float(c) for c in reversed(_bernoulli_coeffs(k))]
    return np.polyval(coeffs, np.asarray(z, dtype=float))


def shifted_legendre(k, z):
    """Legendre polynomial rescaled to [0, 1]: P_k(2z - 1); 0 <= k <= 12.

    Evaluated by the three-term recurrence, so values are exact at the
    endpoints (P_k(1) = 1) and stable for all admissible orders.
    """
    if not 0 <= k <= _MAX_ORDER:
        raise ConfigError(f"Legendre order must be in [0, {_MAX_ORDER}], got {k}")
    t = 2.0 * np.asarray(z, dtype=float) - 1.0
    if k == 0:
        return np.ones_like(t)
    prev = np.ones_like(t)
    cur = t.copy()
    for i in range(1, k):
        prev, cur = cur, ((2 * i + 1) * t * cur - i * prev) / (i + 1)
    return cur


@dataclass(frozen=True)
class LeadingErrorModel:
    """Family- and order-specific leading-error shapes.

    ``lambda_set`` holds the derivative multi-indices u with [u] = m whose
    terms survive in the leading error: the axis directions (m, 0, ..),
    (0, m, ..) for B-splines, all compositions of m for piecewise
    polynomials. Haar (order 1) coincides with the piecewise-polynomial
    case; both reduce to the same shapes at m = 1.
    """

    family: BasisFamily
    m: int
    dim: int

    @property
    def lambda_set(self):
        if self.family is BasisFamily.BSPLINE:
            out = []
            for ell in range(self.dim):
                u = [0] * self.dim
                u[ell] = self.m
                out.append(tuple(u))
            return out
        return [
            u
            for u in itertools.product(range(self.m + 1), repeat=self.dim)
            if sum(u) == self.m
        ]

    def shape_values(self, u, q, z):
        """shape(u, q, z) for unit-cell points ``z`` of shape (n, d)."""
        u = check_deriv(u, self.dim)
        q = check_deriv(q, self.dim)
        if sum(u) != self.m:
            raise ConfigError(f"index {u} has total order {sum(u)}, expected {self.m}")
        if self.family is BasisFamily.HAAR and sum(q) > 0:
            raise UnsupportedFamily("Haar leading error has no derivatives")
        if sum(q) > self.m - 1:
            raise ConfigError(f"derivative {q} too high for order {self.m}")
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if any(u[ell] < q[ell] for ell in range(self.dim)):
            return np.zeros(z.shape[0])  # convention: negative index kills term
        out = np.ones(z.shape[0])
        for ell, (a, b) in enumerate(zip(u, q)):
            k = a - b
            if self.family is BasisFamily.BSPLINE:
                out *= bernoulli_poly(k, z[:, ell]) / math.factorial(k)
            else:  # d^b of the level's shape, not the order-(a - b) one
                c = [0] * a + [1]  # P_a(2z - 1) in shifted-Legendre coefficients
                for _ in range(b):  # P_n' = sum_{i = n-1, n-3, ..} (2i + 1) P_i; dt/dz = 2
                    c = [sum(2 * (2 * i + 1) * c[n] for n in range(i + 1, a + 1, 2))
                         for i in range(a + 1)]
                terms = [ci * shifted_legendre(i, z[:, ell]) for i, ci in enumerate(c) if ci]
                out *= sum(terms[1:], terms[0]) / (math.comb(2 * a, a) * math.factorial(a))
        return out

    def weight_values(self, u, q, z, width):
        """b^(u-q) * shape(u, q, z) with per-point cell widths (n, d)."""
        u = check_deriv(u, self.dim)
        q = check_deriv(q, self.dim)
        shape = self.shape_values(u, q, z)
        if not np.any(shape):
            return shape
        width = np.atleast_2d(np.asarray(width, dtype=float))
        expo = np.asarray(u, dtype=float) - np.asarray(q, dtype=float)
        return shape * np.prod(width**expo, axis=1)


def lead_rows(kind, pts, cells, q=None):
    """R_q at many points: sum_u w_{u,q}(x) d^u ptilde(x) as one SparseRows.

    ``cells`` are the points located on the main partition, which both bases
    of ``kind`` share. Every d^u ptilde activates the same functions at a
    point, so the rows of all u share their indices and groups, and their
    values are summed with the per-point weights w_{u,q}, whose cell
    geometry comes from the same cells. A u whose weight is zero at every
    point is skipped, and when no u is left (no u in Lambda_m has u >= q)
    the result is the empty sum: rows of width 0 grouped by cell, whose
    products are 0. The row bundle of a fit (:meth:`FitResult.at`) calls
    this once per point set and q; everything else reads it there.
    """
    main = kind.main_spec
    model = LeadingErrorModel(main.family, main.m, main.dim)
    part = main.partition
    lower, width = part.geometry(cells)
    z = (pts - lower) / width
    rows, values = None, 0.0
    for u in model.lambda_set:
        w_u = model.weight_values(u, q, z, width)
        if not np.any(w_u):
            continue
        rows = kind.bc_spec.eval_many(pts, u, cells)
        values = values + w_u[:, None] * rows.values
    G, K = pts.shape[0], kind.bc_spec.K
    if rows is None:
        return SparseRows(np.empty((G, 0), dtype=np.intp), np.empty((G, 0)), K,
                          np.ravel_multi_index(cells.T, part.kappa))
    return SparseRows(rows.indices, values, K, rows.groups)


def leading_bias_many(fit, pts, q=None):
    """Plug-in leading error of the order-m fit at many points, (G,).

    -R_q(pts)' beta-tilde, with R_q the lead rows of the fit's row bundle
    (:func:`lead_rows`).
    """
    return -fit.at(pts, q).lead.row_dot(fit.beta_bc)


def projected_bias_term_many(fit, pts, q=None):
    """gamma_{q,0}(pts)' E_n[p(x_i) leadhat_{m,0}(x_i)], vectorized (G,).

    The order-m rows p_q at ``pts`` come from the fit's row bundle, and the
    coefficients of the projection are -c_3 (:meth:`FitResult.proj_coef`).
    """
    return fit.at(pts, q).main.row_dot(-fit.proj_coef(3))
