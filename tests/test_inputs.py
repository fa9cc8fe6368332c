"""One check per input kind: every integer, choice, level and float array
from outside.

Each table row names an input, a function that passes a value to it and
reads back what the program kept, and the typed error a bad value raises.
A fraction and a non-numeric string raise that error; a whole-valued float
is kept as the int it equals. An unknown choice raises ``ConfigError`` and a
choice's value string, in any case, is taken for its member. A float array
that is ragged, non-numeric, non-finite or of the wrong width raises
``ConfigError``.
"""

import functools

import numpy as np
import pytest

from lspart.basis import BasisFamily, BasisSpec, check_deriv
from lspart.cli import _ints_csv
from lspart.dgp import dgp_dim, dgp_sample
from lspart.errors import (
    ConfigError,
    InvalidGrid,
    InvalidKappa,
    InvalidModel,
    UnsupportedDerivative,
    check_choice,
    check_floats,
    check_level,
    check_whole,
)
from lspart.fit import EstimatorKind, fit_estimator
from lspart.harness import RunConfig
from lspart.inference import (
    HCKind,
    band_bootstrap,
    band_plugin,
    make_grid,
    pointwise_ci,
    sigma_hat,
)
from lspart.partition import KnotRule, TensorPartition, make_knots
from lspart.tuning import dpi_select, eta_constant, rot_select

UNIT = [[0.0, 1.0]]


def _cfg(**kw):
    base = dict(mode="simulate", model_id=1, n=100, band_method="plugin")
    return RunConfig(**{**base, **kw}).validated()


@functools.lru_cache(maxsize=None)
def _sample():
    rng = np.random.default_rng(3)
    X = rng.random((300, 1))
    return X, np.sin(3 * X[:, 0]) + 0.3 * rng.standard_normal(300)


@functools.lru_cache(maxsize=None)
def _fit():
    part = TensorPartition.build(KnotRule.EVEN, UNIT, 4)
    return fit_estimator(EstimatorKind.default(BasisFamily.BSPLINE, 2, part), *_sample())


def _band(band_fn, **kw):
    fit = _fit()
    return band_fn(fit, sigma_hat(fit, 0), make_grid(UNIT, 9), **kw)


# (input, read(value) -> what the program keeps, error, a valid whole value)
WHOLE = [
    ("RunConfig.m", lambda v: _cfg(m=v).m, ConfigError, 3),
    ("RunConfig.m_tilde", lambda v: _cfg(m_tilde=v).m_tilde, ConfigError, 4),
    ("RunConfig.j_set", lambda v: _cfg(j_set=(v,)).j_set[0], ConfigError, 2),
    ("RunConfig.kappa", lambda v: _cfg(kappa=v).kappa, InvalidKappa, 5),
    ("RunConfig.kappa_max", lambda v: _cfg(kappa_max=v).kappa_max, InvalidKappa, 4),
    ("RunConfig.B", lambda v: _cfg(B=v).B, ConfigError, 1000),
    ("RunConfig.grid_size", lambda v: _cfg(grid_size=v).grid_size, InvalidGrid, 3),
    ("RunConfig.seed", lambda v: _cfg(seed=v).seed, ConfigError, 3),
    ("RunConfig.jobs", lambda v: _cfg(jobs=v).jobs, ConfigError, 2),
    ("RunConfig.n", lambda v: _cfg(n=v).n, ConfigError, 50),
    ("RunConfig.replications", lambda v: _cfg(replications=v).replications,
     ConfigError, 2),
    ("RunConfig.model_id", lambda v: _cfg(model_id=v).model_id, InvalidModel, 2),
    ("check_deriv", lambda v: check_deriv((v,), 1)[0], UnsupportedDerivative, 1),
    ("make_knots.kappa", lambda v: make_knots(KnotRule.EVEN, (0.0, 1.0), v).size - 1,
     InvalidKappa, 3),
    ("TensorPartition.build.kappa",
     lambda v: TensorPartition.build(KnotRule.EVEN, UNIT, v).kappa[0], InvalidKappa, 3),
    ("BasisSpec.m",
     lambda v: BasisSpec(BasisFamily.BSPLINE, v, TensorPartition.build("even", UNIT, 2)).m,
     ConfigError, 2),
    ("make_grid", lambda v: make_grid(UNIT, v).shape[0], InvalidGrid, 4),
    ("band_plugin.draws", lambda v: _band(band_plugin, draws=v).draws, ConfigError, 120),
    ("band_bootstrap.draws", lambda v: _band(band_bootstrap, draws=v).draws,
     ConfigError, 120),
    ("eta_constant.m", lambda v: eta_constant("bspline", v, (2,), (2,)), ConfigError, 2),
    ("rot_select.m", lambda v: rot_select(*_sample(), "bspline", v).kappa_rot,
     ConfigError, 2),
    ("dpi_select.m", lambda v: dpi_select(*_sample(), "bspline", v).selected(),
     ConfigError, 2),
    ("EstimatorKind.require_j", lambda v: _fit().kind.require_j(v), ConfigError, 1),
    ("dgp_dim", dgp_dim, InvalidModel, 4),
    ("dgp_sample.n", lambda v: dgp_sample(1, v, 0)[0].shape[0], InvalidModel, 20),
    ("cli --j", lambda v: _ints_csv(str(v), "--j")[0], ConfigError, 2),
]


@pytest.mark.parametrize("name, read, error, k", WHOLE, ids=[w[0] for w in WHOLE])
def test_whole_number_inputs(name, read, error, k):
    for bad in (k + 0.5, "x"):
        with pytest.raises(error):
            read(bad)
    want = read(k)
    got = read(float(k))
    assert got == want and type(got) is type(want)


# (input, read(value) -> the member the program keeps, enum class)
CHOICES = [
    ("RunConfig.family", lambda v: _cfg(family=v).family, BasisFamily),
    ("RunConfig.knot_rule", lambda v: _cfg(knot_rule=v).knot_rule, KnotRule),
    ("RunConfig.hc_kind", lambda v: _cfg(hc_kind=v).hc_kind, HCKind),
    ("BasisSpec.family",
     lambda v: BasisSpec(v, 2, TensorPartition.build(KnotRule.EVEN, UNIT, 2)).family,
     BasisFamily),
    ("make_knots.rule", lambda v: make_knots(v, (0.0, 1.0), 2, data=[0.1, 0.5, 0.9]),
     KnotRule),
    ("TensorPartition.build.rule",
     lambda v: TensorPartition.build(v, UNIT, 2, data=_sample()[0]).knots[0], KnotRule),
    ("sigma_hat.hc", lambda v: sigma_hat(_fit(), 0, v).hc, HCKind),
    ("eta_constant.family", lambda v: eta_constant(v, 2, (2,), (2,)), BasisFamily),
    ("rot_select.family", lambda v: rot_select(*_sample(), v, 2).kappa_rot, BasisFamily),
    ("dpi_select.family", lambda v: dpi_select(*_sample(), v, 2).selected(),
     BasisFamily),
]


@pytest.mark.parametrize("name, read, enum_cls", CHOICES, ids=[c[0] for c in CHOICES])
def test_choice_inputs(name, read, enum_cls):
    with pytest.raises(ConfigError):
        read("foo")
    with pytest.raises(ConfigError):
        read(7)
    member = list(enum_cls)[1]
    want = read(member)
    got = read(member.value.upper())
    if isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want


def _pointwise_alpha(v):
    fit = _fit()
    return pointwise_ci(fit, sigma_hat(fit, 0), [[0.5]], alpha=v).alpha


LEVELS = [
    ("RunConfig.alpha", lambda v: _cfg(alpha=v).alpha),
    ("pointwise_ci.alpha", _pointwise_alpha),
    ("band_plugin.alpha", lambda v: _band(band_plugin, alpha=v, draws=100).alpha),
    ("band_bootstrap.alpha", lambda v: _band(band_bootstrap, alpha=v, draws=100).alpha),
]


@pytest.mark.parametrize("name, read", LEVELS, ids=[lv[0] for lv in LEVELS])
def test_level_inputs(name, read):
    for bad in ("x", None, 0.0, 1.0, -0.1, float("nan")):
        with pytest.raises(ConfigError):
            read(bad)
    got = read(np.float64(0.1))
    assert got == 0.1 and type(got) is float


def _fit_cfg(eval_points):
    cfg = RunConfig(mode="fit", data_path="x.csv", eval_points=eval_points)
    return cfg.validated().eval_points


def _rot_bounds(bounds):
    return rot_select(*_sample(), "bspline", 2, bounds=bounds).kappa_rot


def _fit_x(X):
    # the sample of a d = 1 fit
    part = TensorPartition.build(KnotRule.EVEN, UNIT, 4)
    kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part)
    return fit_estimator(kind, X, np.zeros(len(X))).X


def _rot_x(X):
    return rot_select(X, np.zeros(len(X)), "bspline", 2).kappa_rot


# (input, read(value) -> what the program keeps, a bad value)
FLOATS = [
    ("fit_estimator.X non-numeric", _fit_x, [["a"], [0.5]]),
    ("fit_estimator.X ragged", _fit_x, [[0.1], [0.2, 0.3]]),
    ("fit_estimator.X 3-d", _fit_x, [[[0.1]], [[0.2]]]),
    ("fit_estimator.X NaN", _fit_x, [[float("nan")], [0.5]]),
    ("fit_estimator.X two columns", _fit_x, [[0.1, 0.2], [0.3, 0.4]]),
    ("rot_select.X non-numeric", _rot_x, [["a"], [0.5]]),
    ("rot_select.X ragged", _rot_x, [[0.1], [0.2, 0.3]]),
    ("rot_select.X 3-d", _rot_x, [[[0.1]], [[0.2]]]),
    ("rot_select.X NaN", _rot_x, [[float("nan")], [0.5]]),
    ("RunConfig.eval_points non-numeric", _fit_cfg, (("a",),)),
    ("RunConfig.eval_points ragged", _fit_cfg, ((0.1,), (0.2, 0.3))),
    ("RunConfig.eval_points NaN", _fit_cfg, ((float("nan"),),)),
    ("RunConfig.eval_points empty", _fit_cfg, ()),
    ("TensorPartition.build.bounds non-numeric",
     lambda v: TensorPartition.build("even", v, 3).knots, [["a", 1]]),
    ("TensorPartition.build.bounds three columns",
     lambda v: TensorPartition.build("even", v, 3).knots, [[0, 1, 2]]),
    ("TensorPartition.build.bounds infinite",
     lambda v: TensorPartition.build("even", v, 3).knots, [[0, float("inf")]]),
    ("rot_select.bounds non-numeric", _rot_bounds, [["a", 1]]),
    ("rot_select.bounds three columns", _rot_bounds, [[0, 1, 2]]),
    ("make_grid.bounds non-numeric", lambda v: make_grid(v, 3), [["a", 1]]),
    ("make_grid.bounds ragged", lambda v: make_grid(v, 3), [[0, 1], [0]]),
    ("make_grid.bounds NaN", lambda v: make_grid(v, 3), [[0, float("nan")]]),
    ("make_grid.bounds empty", lambda v: make_grid(v, 3), []),
]


@pytest.mark.parametrize("name, read, bad", FLOATS, ids=[f[0] for f in FLOATS])
def test_float_array_inputs(name, read, bad):
    with pytest.raises(ConfigError):
        read(bad)


def test_float_arrays_kept_as_floats():
    assert _fit_cfg([[0.25], ["0.5"]]) == ((0.25,), (0.5,))
    assert _fit_cfg((0.25, 0.5)) == ((0.25, 0.5),)  # a flat list is one point
    np.testing.assert_array_equal(check_floats([0, 1], "bounds", 2), [[0.0, 1.0]])
    grid = make_grid([[0, 1], [2, 4]], 3)
    assert grid.shape == (9, 2) and grid.dtype == float


class TestChecks:
    def test_whole_keeps_large_ints_exact(self):
        big = 2**60 + 1
        assert check_whole(str(big), "seed", 0) == big
        assert _cfg(seed=str(big)).seed == big
        assert check_whole(np.int64(7), "n", 1) == 7

    @pytest.mark.parametrize("value", [True, None, float("inf"), "2.5", [1]])
    def test_whole_rejects(self, value):
        with pytest.raises(InvalidKappa):
            check_whole(value, "kappa", 0, InvalidKappa)

    def test_whole_minimum(self):
        assert check_whole("1e3", "B", 100) == 1000
        with pytest.raises(ConfigError, match="B must be >= 100, got 50"):
            check_whole(50.0, "B", 100)

    def test_choice_and_level(self):
        assert check_choice(KnotRule, "Quantile") is KnotRule.QUANTILE
        assert check_choice(HCKind, HCKind.HC2) is HCKind.HC2
        with pytest.raises(ConfigError, match="even, quantile"):
            check_choice(KnotRule, KnotRule)
        assert check_level("0.05") == 0.05

    def test_fractional_kappa_is_not_a_selector(self):
        # 2.5 used to fall through to the dpi selector and report "fixed"
        with pytest.raises(InvalidKappa):
            _cfg(kappa=2.5)
        assert _cfg(kappa="rot").kappa == "rot"
