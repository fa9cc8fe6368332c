"""Tensor-product partitions of a rectangular support.

A partition is a per-axis sequence of strictly increasing knots over a
bounded rectangle. Cells are half-open boxes, except that the last cell
along each axis is closed on the right so the support is covered exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateData,
    InvalidKappa,
    OutOfSupport,
    check_choice,
    check_floats,
    check_whole,
)


class KnotRule(enum.Enum):
    """How interior knots are placed along one axis."""

    EVEN = "even"
    QUANTILE = "quantile"


def data_bounds(X):
    """Per-covariate [min, max] of the data, (d, 2); a constant one is degenerate."""
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    for ell in range(X.shape[1]):
        if not hi[ell] > lo[ell]:
            raise DegenerateData(f"covariate {ell + 1} is constant")
    return np.stack([lo, hi], axis=1)


def make_knots(rule, bounds, kappa, data=None):
    """Build one axis' knot sequence of length ``kappa + 1``.

    Parameters
    ----------
    rule : KnotRule or str
        Placement rule or its value string. ``QUANTILE`` requires ``data``.
    bounds : (float, float)
        Support endpoints ``lo < hi``; always the first and last knot.
    kappa : int
        Number of cells, >= 1.
    data : array_like, optional
        Sample values along this axis, used only by the quantile rule.

    Returns
    -------
    numpy.ndarray
        Strictly increasing knots ``t_0 = lo < t_1 < ... < t_kappa = hi``.

    Raises
    ------
    ConfigError
        If ``rule`` names no knot rule, or ``bounds`` is not a pair of
        finite numbers.
    InvalidKappa
        If ``kappa`` is not a whole number >= 1.
    DegenerateData
        If ``lo >= hi``, if quantile placement produces duplicate knots, or
        if a quantile knot falls outside the open support interval.
    """
    rule = check_choice(KnotRule, rule)
    kappa = check_whole(kappa, "kappa", 1, InvalidKappa)
    lo, hi = check_floats([bounds], "bounds", 2)[0]
    if not lo < hi:
        raise DegenerateData(f"empty support [{lo}, {hi}]")

    if rule is KnotRule.EVEN:
        # exact arithmetic form: lo + l*(hi-lo)/kappa, endpoints exact
        l = np.arange(kappa + 1, dtype=float)
        knots = lo + l * (hi - lo) / kappa
        knots[0], knots[-1] = lo, hi
        return knots

    if data is None:
        raise DegenerateData("quantile knots need a data column")
    col = np.sort(check_floats(data, "quantile data").ravel())
    n = col.shape[0]
    knots = np.empty(kappa + 1)
    knots[0], knots[-1] = lo, hi
    for l in range(1, kappa):
        # 1-based order statistic at rank ceil(l*n/kappa)
        rank = math.ceil(l * n / kappa)
        knots[l] = col[min(max(rank, 1), n) - 1]
    if np.any(np.diff(knots) <= 0):
        raise DegenerateData(
            "duplicate or out-of-order quantile knots; "
            "reduce kappa or jitter the data"
        )
    return knots


@dataclass(frozen=True)
class TensorPartition:
    """Tensor product of per-axis knot sequences.

    Attributes
    ----------
    knots : tuple of numpy.ndarray
        One strictly increasing knot array per axis.
    """

    knots: tuple = field()

    def __post_init__(self):
        if len(self.knots) == 0:
            raise DegenerateData("partition needs at least one axis")
        kn = []
        for ell, k in enumerate(self.knots):
            a = check_floats(k, f"axis {ell} knots")[0]
            if np.ndim(k) != 1 or a.shape[0] < 2:
                raise DegenerateData(f"axis {ell}: need at least 2 knots")
            if np.any(np.diff(a) <= 0):
                raise DegenerateData(f"axis {ell}: knots must strictly increase")
            kn.append(a)
        object.__setattr__(self, "knots", tuple(kn))

    @classmethod
    def build(cls, rule, bounds, kappa, data=None):
        """Construct from a rule applied axis by axis.

        ``bounds`` is a (d, 2) array, ``kappa`` an int or length-d sequence,
        ``data`` an optional (n, d) sample for the quantile rule.
        """
        bounds = check_floats(bounds, "bounds", 2)
        d = bounds.shape[0]
        kap = np.atleast_1d(kappa).tolist()
        kap = kap * d if len(kap) == 1 else kap
        if len(kap) != d:
            raise InvalidKappa(f"kappa has {len(kap)} entries, bounds describe {d} axes")
        cols = [None] * d
        if data is not None:
            X = check_floats(data, "quantile data")
            if X.shape[1] != d:
                raise DegenerateData(
                    f"data has {X.shape[1]} columns, bounds describe {d} axes"
                )
            cols = [X[:, ell] for ell in range(d)]
        return cls(
            tuple(
                make_knots(rule, bounds[ell], kap[ell], cols[ell])
                for ell in range(d)
            )
        )

    @property
    def dim(self):
        return len(self.knots)

    @property
    def kappa(self):
        """Cells per axis."""
        return tuple(k.shape[0] - 1 for k in self.knots)

    @property
    def num_cells(self):
        return int(np.prod(self.kappa))

    def locate(self, X):
        """Map points to per-axis cell indices.

        Parameters
        ----------
        X : array_like, shape (n, d) or (d,)
            Points inside the support (boundary included).

        Returns
        -------
        numpy.ndarray, shape (n, d), dtype intp
            Cell index along each axis; the right support endpoint belongs
            to the last cell.

        Raises
        ------
        OutOfSupport
            If any coordinate falls outside its axis' knot range.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise OutOfSupport(f"points have {X.shape[1]} columns, expected {self.dim}")
        out = np.empty(X.shape, dtype=np.intp)
        for ell, k in enumerate(self.knots):
            x = X[:, ell]
            bad = (x < k[0]) | (x > k[-1]) | ~np.isfinite(x)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise OutOfSupport(
                    f"point {i}: coordinate {ell} = {x[i]!r} outside "
                    f"[{k[0]}, {k[-1]}]"
                )
            idx = np.searchsorted(k, x, side="right") - 1
            np.clip(idx, 0, k.shape[0] - 2, out=idx)  # right endpoint -> last cell
            out[:, ell] = idx
        return out

    def geometry(self, cells):
        """Lower corners and widths for located cells.

        ``cells`` is an (n, d) index array as returned by :meth:`locate`;
        returns ``(lower, width)`` arrays of the same shape.
        """
        cells = np.atleast_2d(np.asarray(cells, dtype=np.intp))
        lower = np.empty(cells.shape, dtype=float)
        width = np.empty(cells.shape, dtype=float)
        for ell, k in enumerate(self.knots):
            lower[:, ell] = k[cells[:, ell]]
            width[:, ell] = k[cells[:, ell] + 1] - k[cells[:, ell]]
        return lower, width

    def mesh_stats(self):
        """Summary of cell sizes.

        Returns a dict with the largest and smallest cell diameters
        (``h_max``, ``h_min``), their ratio (``quasi_uniformity``), and the
        per-axis extreme widths.
        """
        wmax = np.array([float(np.max(np.diff(k))) for k in self.knots])
        wmin = np.array([float(np.min(np.diff(k))) for k in self.knots])
        # coordinates vary independently, so extremes factor across axes
        h_max = float(np.sqrt(np.sum(wmax**2)))
        h_min = float(np.sqrt(np.sum(wmin**2)))
        return {
            "h_max": h_max,
            "h_min": h_min,
            "quasi_uniformity": h_max / h_min,
            "width_max": wmax,
            "width_min": wmin,
            "num_cells": self.num_cells,
        }
