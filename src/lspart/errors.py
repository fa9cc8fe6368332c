"""Exception hierarchy and the one check of each kind of scalar input.

Three branches matter for the CLI exit-code mapping: configuration problems
(exit 2), data problems (exit 3), and numerical failures (exit 4). Every
integer, choice and level from outside goes through :func:`check_whole`,
:func:`check_choice` or :func:`check_level`, every random seed through
:func:`check_seed`, and every array of floats (the sample, evaluation points
and band grids, support bounds, knots, quantile data) through
:func:`check_floats`; each raises a typed error.
"""

import math
import numbers
import reprlib

import numpy as np


class LspartError(Exception):
    """Base class for all package errors."""


class ConfigError(LspartError):
    """Invalid option, flag combination, or constructor argument."""


class InvalidKappa(ConfigError):
    pass


class InvalidModel(ConfigError):
    pass


class InvalidGrid(ConfigError):
    pass


class UnsupportedDerivative(ConfigError):
    """Derivative order not available for the basis order requested."""


class DataError(LspartError):
    """Problem with user-supplied data."""


class ParseError(DataError):
    """Malformed input file; message carries the offending line number."""


class OutOfSupport(DataError):
    """Evaluation or data point outside the partition's support."""


class DegenerateData(DataError):
    """Data cannot produce a valid partition (e.g. duplicate quantile knots)."""


class NumericalError(LspartError):
    """Numerical failure during fitting or inference."""


class RankDeficient(NumericalError):
    """Gram matrix not positive definite at working precision."""


class LeverageOverflow(NumericalError):
    """A leverage value reached 1; HC2/HC3 weights are undefined."""


class NonPositiveVariance(NumericalError):
    """A variance estimate required to be positive was not."""


class NegativeVarianceEstimate(NumericalError):
    """Tuning variance constant came out nonpositive."""


def check_whole(value, what, minimum, error=ConfigError):
    """``value`` as an int of at least ``minimum``, else ``error``: an int, a
    whole-valued float or a string of either (digits parse as an int, so large
    integers stay exact). A fraction, a bool or a non-number is an error."""
    v = value
    if isinstance(v, str):
        try:
            v = int(v) if v.strip().lstrip("+-").isdigit() else float(v)
        except ValueError:
            pass
    whole = isinstance(v, numbers.Integral) or (
        isinstance(v, numbers.Real) and math.isfinite(v) and float(v).is_integer()
    )
    if isinstance(v, bool) or not whole:
        raise error(f"{what} must be a whole number, got {value!r}")
    v = int(v)
    if v < minimum:
        raise error(f"{what} must be >= {minimum}, got {v}")
    return v


def check_floats(value, what, width=None):
    """``value`` as a nonempty 2-d array of finite floats with ``width``
    columns (any number when None), else ``ConfigError``. A 1-d value is one
    row. A ragged or non-numeric value, a NaN or an infinity is an error; the
    message names the first non-finite entry by row and column, and shortens
    a non-numeric value with ``reprlib``."""
    try:
        a = np.atleast_2d(np.asarray(value, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be an array of numbers, got {reprlib.repr(value)}") from exc
    if a.ndim != 2 or a.size == 0 or (width is not None and a.shape[1] != width):
        rows = "rows of numbers" if width is None else f"rows of {width} numbers"
        raise ConfigError(f"{what} must be one or more {rows}, got shape {a.shape}")
    bad = ~np.isfinite(a)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ConfigError(f"{what} must be finite, got {what}[{i}, {j}] = {float(a[i, j])}")
    return a


def check_choice(enum_cls, value):
    """The member of ``enum_cls`` that is ``value`` or has it as its value
    string (in any case), else ``ConfigError`` naming the choices."""
    if isinstance(value, enum_cls):
        return value
    try:
        return enum_cls(str(value).lower())
    except ValueError as exc:
        names = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"expected one of {names}, got {value!r}") from exc


def check_seed(seed):
    """``seed`` as a non-negative int, or as a tuple of them for a nonempty
    sequence or array; each key goes through :func:`check_whole`, and so
    does an empty sequence, which is not a whole number."""
    keys = seed.ravel().tolist() if isinstance(seed, np.ndarray) else seed
    if isinstance(keys, (list, tuple)) and keys:
        return tuple(check_whole(k, "seed", 0) for k in keys)
    return check_whole(keys, "seed", 0)


def check_level(alpha):
    """``alpha`` as a float in the open interval (0, 1), else ``ConfigError``."""
    try:
        a = float(alpha)
    except (TypeError, ValueError):
        a = math.nan
    if not 0.0 < a < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha!r}")
    return a
