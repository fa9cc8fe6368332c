"""Leading approximation-error shapes and plug-in bias estimates.

On a cell with lower corner t_L and widths b, write z = (x - t_L) / b for
the unit-cell coordinate. The leading error of the order-m least-squares
fit takes the family-specific form

    lead_{m,q}(x) = - sum_{u in Lambda_m} d^u mu(x) * b^(u-q) * shape(u, q, z)

where shape(u, q, .) is the q-th z-derivative of a fixed product of one-axis
polynomials on [0,1]^d and vanishes whenever u - q has a negative entry.
:func:`shape_factor` holds each axis factor and its derivatives as one cached
series: B_k / k! (Bernoulli) for B-splines, P_k(2z - 1) / (C(2k, k) k!)
(scaled shifted Legendre) for piecewise polynomials. A Bernoulli factor's
derivative is again one, B_k' / k! = B_{k-1} / (k-1)!; a Legendre factor's is
not, once u - q >= 2. The same series give the shapes' values and, as exact
one-axis integrals with no quadrature, the IMSE constants eta
(:meth:`LeadingErrorModel.eta`).
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
from functools import lru_cache, partial

import numpy as np

from .basis import BasisFamily, SparseRows, _with_runs, cell_groups, check_deriv, check_family
from .errors import ConfigError, UnsupportedDerivative, check_whole

_MAX_ORDER = 12


@lru_cache(maxsize=None)
def _bernoulli_coeffs(k):
    # ascending-power coefficients, exact: B_k' = k B_{k-1}, int_0^1 B_k = 0
    if k == 0:
        return (Fraction(1),)
    tail = [Fraction(k, j) * c for j, c in enumerate(_bernoulli_coeffs(k - 1), start=1)]
    return (-sum(c / (j + 1) for j, c in enumerate(tail, start=1)), *tail)


@lru_cache(maxsize=None)
def shape_factor(family, a, b):
    """``(series, scale)``: the b-th derivative of the order-a one-axis factor
    is ``series(z) / scale``; 0 <= b <= a <= 12.

    B-splines: the power series of the exact B_(a-b) over (a-b)!. Piecewise
    polynomials: P_a(2z - 1) as a Legendre series on [0, 1],
    differentiated b times, over C(2a, a) a!. Callers divide after evaluating,
    so the Bernoulli factors keep their exact zeros (B_3 at 0, 1/2 and 1).
    """
    if not 0 <= b <= a <= _MAX_ORDER:
        raise ConfigError(f"shape factor needs 0 <= b <= a <= {_MAX_ORDER}, got a = {a}, b = {b}")
    if family is BasisFamily.BSPLINE:
        coeffs = [float(c) for c in _bernoulli_coeffs(a - b)]
        return np.polynomial.Polynomial(coeffs), math.factorial(a - b)
    series = np.polynomial.Legendre.basis(a, domain=[0, 1]).deriv(b)
    return series, math.comb(2 * a, a) * math.factorial(a)


@lru_cache(maxsize=None)
def _axis_eta(family, a1, a2, b):
    """Exact integral over [0, 1] of the product of two factors' b-th derivatives, as
    Legendre series on [0, 1] (in powers of z, B_7's loses 1.4e-12 to cancellation)."""
    (s1, c1), (s2, c2) = shape_factor(family, a1, b), shape_factor(family, a2, b)
    leg = partial(np.polynomial.Legendre.cast, domain=[0, 1])
    return float((leg(s1) * leg(s2)).integ(lbnd=0)(1.0)) / (c1 * c2)


@dataclass(frozen=True)
class LeadingErrorModel:
    """Family- and order-specific leading-error shapes.

    ``lambda_set`` holds the derivative multi-indices u with [u] = m whose
    terms survive in the leading error: the axis directions (m, 0, ..),
    (0, m, ..) for B-splines, all compositions of m for piecewise
    polynomials, as which Haar is stored (:func:`~lspart.basis.check_family`).
    """

    family: BasisFamily
    m: int
    dim: int

    def __post_init__(self):
        family, m = check_family(self.family, self.m)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "dim", check_whole(self.dim, "dimension", 1))

    @property
    def lambda_set(self):
        if self.family is BasisFamily.BSPLINE:
            return [tuple(self.m * (k == ell) for k in range(self.dim)) for ell in range(self.dim)]
        orders = itertools.product(range(self.m + 1), repeat=self.dim)
        return [u for u in orders if sum(u) == self.m]

    def check_rate(self, q):
        """``q`` with total order < m, as the rate m - [q] needs in every family."""
        q = check_deriv(q, self.dim)
        if sum(q) >= self.m:
            raise UnsupportedDerivative(
                f"derivative {q} has total order {sum(q)}, the rate needs < m = {self.m}")
        return q

    def _factors(self, u, q):
        """The per-axis orders (u_l, q_l) of the factors of shape(u, q, .), or
        None when some u_l < q_l, where the shape vanishes by convention."""
        u = check_deriv(u, self.dim)
        q = self.check_rate(q)
        if sum(u) != self.m:
            raise ConfigError(f"index {u} has total order {sum(u)}, expected {self.m}")
        if any(a < b for a, b in zip(u, q)):
            return None
        return list(zip(u, q))

    def shape_values(self, u, q, z):
        """shape(u, q, z) for unit-cell points ``z`` of shape (n, d)."""
        factors = self._factors(u, q)
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if factors is None:
            return np.zeros(z.shape[0])
        out = np.ones(z.shape[0])
        for ell, (a, b) in enumerate(factors):
            series, scale = shape_factor(self.family, a, b)
            out *= series(z[:, ell]) / scale
        return out

    def eta(self, u1, u2, q=None):
        """Unit-cell integral of shape(u1, q, .) * shape(u2, q, .): the product
        over the axes of the cached exact one-axis integrals :func:`_axis_eta`."""
        f1, f2 = self._factors(u1, q), self._factors(u2, q)
        if f1 is None or f2 is None:
            return 0.0
        return math.prod(_axis_eta(self.family, a1, a2, b)
                         for (a1, b), (a2, _) in zip(f1, f2))

    def weight_values(self, u, q, z, width):
        """b^(u-q) * shape(u, q, z) with per-point cell widths (n, d)."""
        shape = self.shape_values(u, q, z)
        if not np.any(shape):
            return shape
        expo = np.subtract(check_deriv(u, self.dim), check_deriv(q, self.dim), dtype=float)
        return shape * np.prod(np.atleast_2d(np.asarray(width, dtype=float)) ** expo, axis=1)


def lead_rows(kind, pts, cells, q=None):
    """R_q at many points: sum_u w_{u,q}(x) d^u ptilde(x) as one SparseRows.

    ``cells`` are the points located on the main partition, which both bases
    of ``kind`` share. Every d^u ptilde activates the same functions at a
    point, so the rows of all u share their table and groups, and their
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
    if rows is None:
        groups, runs = cell_groups(cells, part.kappa)
        empty = SparseRows(table=np.empty((runs[1].size, 0), dtype=np.intp),
                           values=np.empty((pts.shape[0], 0)), K=kind.bc_spec.K, groups=groups)
        return _with_runs(empty, runs)
    return rows.replace(values=values)


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
