"""Run drivers: config validation, data ingestion, fit and simulate loops."""

import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lspart.harness as harness
import lspart.tuning as tuning
from lspart.dgp import dgp_eval
from lspart.errors import (
    ConfigError,
    DegenerateData,
    InvalidGrid,
    InvalidKappa,
    NumericalError,
    ParseError,
    RankDeficient,
    UnsupportedDerivative,
)
from lspart.harness import (
    RunConfig,
    metrics_csv,
    read_data,
    run_fit,
    run_simulation,
)
from lspart.inference import pointwise_ci
from lspart.partition import data_bounds


def _write_csv(path, X, y):
    d = X.shape[1]
    header = ",".join([f"x{k + 1}" for k in range(d)] + ["y"])
    rows = [header]
    for i in range(X.shape[0]):
        rows.append(",".join(repr(float(v)) for v in X[i]) + f",{float(y[i])!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _spy(fn, calls):
    """``fn`` that also appends its name to ``calls``."""
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapper


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.random((200, 1))
    y = np.sin(3 * X[:, 0]) + 0.3 * rng.standard_normal(200)
    p = tmp_path / "data.csv"
    _write_csv(p, X, y)
    return p


class TestRunConfig:
    def test_fit_needs_data(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="fit").validated()

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="predict").validated()

    def test_enum_coercion(self):
        cfg = RunConfig(
            mode="fit", data_path="x.csv", family="pp", knot_rule="quantile",
            hc_kind="hc2",
        ).validated()
        assert cfg.family.value == "pp"
        assert cfg.knot_rule.value == "quantile"
        assert cfg.hc_kind.value == "hc2"

    def test_kappa_forms(self):
        base = dict(mode="fit", data_path="x.csv")
        assert RunConfig(**base, kappa="7").validated().kappa == 7
        assert RunConfig(**base, kappa="rot").validated().kappa == "rot"
        with pytest.raises(InvalidKappa):
            RunConfig(**base, kappa="fancy").validated()
        with pytest.raises(InvalidKappa):
            RunConfig(**base, kappa=0).validated()
        with pytest.raises(InvalidKappa):
            RunConfig(**base, kappa_max=0).validated()

    def test_j_set_normalized(self):
        cfg = RunConfig(mode="fit", data_path="x.csv", j_set=[2, 0, 2]).validated()
        assert cfg.j_set == (0, 2)
        with pytest.raises(ConfigError):
            RunConfig(mode="fit", data_path="x.csv", j_set=[4]).validated()
        with pytest.raises(ConfigError):
            RunConfig(mode="fit", data_path="x.csv", j_set=[]).validated()

    def test_m_tilde_must_exceed_m(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="fit", data_path="x.csv", m=2, m_tilde=2).validated()
        cfg = RunConfig(
            mode="fit", data_path="x.csv", m=2, m_tilde=2, j_set=(0,)
        ).validated()  # no correction requested, so the pair is never used
        assert cfg.j_set == (0,)

    def test_m_tilde_resolved_once(self):
        base = dict(mode="fit", data_path="x.csv", m=3)
        assert RunConfig(**base).validated().m_tilde == 4
        assert RunConfig(**base, m_tilde="5").validated().m_tilde == 5
        assert RunConfig(**base, m_tilde=5, j_set=(0,)).validated().m_tilde is None
        cfg = RunConfig(**base, j_set=(0, 2)).validated()
        assert cfg.validated() == cfg

    def test_alpha_band_grid(self):
        base = dict(mode="fit", data_path="x.csv")
        with pytest.raises(ConfigError):
            RunConfig(**base, alpha=1.0).validated()
        with pytest.raises(ConfigError):
            RunConfig(**base, band_method="magic").validated()
        with pytest.raises(InvalidGrid):
            RunConfig(**base, grid_size=1).validated()

    def test_simulate_requirements(self):
        with pytest.raises(Exception):
            RunConfig(mode="simulate", model_id=None, n=100).validated()
        with pytest.raises(ConfigError):
            RunConfig(mode="simulate", model_id=1, n=0).validated()
        with pytest.raises(ConfigError):
            RunConfig(mode="simulate", model_id=1, n=50, replications=0).validated()

    def test_negative_q(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="fit", data_path="x.csv", q=(-1,)).validated()

    @pytest.mark.parametrize("run", [run_fit, run_simulation])
    def test_fractional_q(self, data_file, run):
        # not truncated to q = (0,)
        cfg = RunConfig(mode="fit" if run is run_fit else "simulate",
                        data_path=str(data_file), model_id=1, n=100, kappa=3, q=(0.5,))
        with pytest.raises(UnsupportedDerivative):
            run(cfg)

    def test_jobs(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="fit", data_path="x.csv", jobs=0).validated()

    def test_negative_seed(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="simulate", model_id=1, n=50, seed=-1).validated()
        assert RunConfig(mode="fit", data_path="x.csv", seed=0).validated().seed == 0


class TestReadData:
    def test_round_trip(self, data_file):
        X, y = read_data(data_file)
        assert X.shape == (200, 1)
        assert y.shape == (200,)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            read_data(tmp_path / "absent.csv")

    @pytest.mark.parametrize("raw", [b"x1,y\xff\n0.1,0.2\n",
                                     b"x1,y\n0.1,0.2\n0.3,\xff\n"])
    def test_not_utf8_names_file(self, tmp_path, raw):
        p = tmp_path / "latin.csv"
        p.write_bytes(raw)
        with pytest.raises(ParseError, match=r"cannot read .*latin\.csv"):
            read_data(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            read_data(p)

    def test_bad_value_names_line(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("x1,y\na,b\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            read_data(p)

    def test_field_count(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("x1,y\n0.1,0.2\n0.3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3"):
            read_data(p)

    def test_non_finite(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x1,y\n0.1,inf\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            read_data(p)

    def test_non_finite_after_blank_line(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("x1,y\n0.1,1.0\n\n0.2,nan\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 4: non-finite"):
            read_data(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("x1,y\n", encoding="utf-8")
        with pytest.raises(DegenerateData):
            read_data(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("x1,y\n0.1,1.0\n\n0.2,2.0\n", encoding="utf-8")
        X, y = read_data(p)
        assert X.shape == (2, 1)

    def test_byte_order_mark(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM
        body = "x1,x2,y\n0.1,0.2,1.0\n0.5,0.6,2.0\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(body, encoding="utf-8")
        bom.write_text(body, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        for got, want in zip(read_data(bom), read_data(plain)):
            np.testing.assert_array_equal(got, want)

    def test_two_covariates(self, tmp_path):
        p = tmp_path / "d2.csv"
        p.write_text("x1,x2,y\n0.1,0.2,1.0\n0.5,0.6,2.0\n", encoding="utf-8")
        X, y = read_data(p)
        assert X.shape == (2, 2)
        assert_allclose(y, [1.0, 2.0])

    def test_vectorised_parse_equals_row_loop(self, tmp_path, monkeypatch):
        # the fit_csv_3d_hc2 shape, written the way the benchmark writes it
        rng = np.random.default_rng(5)
        data = np.column_stack([rng.random((10_000, 3)), rng.standard_normal(10_000)])
        p = tmp_path / "big.csv"
        np.savetxt(p, data, delimiter=",", fmt="%.17g", header="x1,x2,x3,y",
                   comments="")
        ref = _row_loop(p, 3)
        monkeypatch.setattr(harness, "_parse_rows", None)  # no fallback taken
        X, y = read_data(p)
        assert np.array_equal(X, ref[:, :3]) and np.array_equal(y, ref[:, 3])

    @pytest.mark.parametrize("body", [
        b"# comment\n0.1,1.0\n",
        b'"0.5",1.0\n0.25,2.0\n',
        b" 0.5 , 1.0 \n\t0.25,2.0\t\n",
        b"0.5,1.0\r\n0.25,2.0\r\n",
        b"\n0.5,1.0\n\n\n0.25,2.0\n\n",
        b"0.5,1.0\n   \n0.25,2.0\n",
        b"1_000,1.0\n0.25,2.0\n",
        b"0.5,nan\n",
        b"0.5,1.0\n-inf,2.0\n",
        b"0.5,1.0,\n",
        b"",
        b"\n\n",
    ], ids=["hash", "quoted", "padded", "crlf", "blank", "spaces", "underscore",
            "nan", "inf", "trailing-comma", "header-only", "header-blank"])
    def test_same_answer_as_row_loop(self, tmp_path, body):
        p = tmp_path / "edge.csv"
        p.write_bytes(b"x1,y\n" + body)
        try:
            ref = _row_loop(p, 1)
        except (ParseError, DegenerateData) as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(type(exc)) as info:
                    read_data(p)
            assert str(info.value) == str(exc)
        else:
            X, y = read_data(p)
            assert np.array_equal(X[:, 0], ref[:, 0]) and np.array_equal(y, ref[:, 1])


def _row_loop(path, d):
    """The row-by-row parse alone, as the reference for ``read_data``."""
    with open(path, newline="", encoding="utf-8") as fh:
        fh.readline()
        return harness._parse_rows(fh, d)


class TestSelectKappa:
    def test_fixed_ignores_cap(self, data_file):
        cfg = RunConfig(
            mode="fit", data_path=str(data_file), kappa=9, kappa_max=3
        ).validated()
        X, y = read_data(data_file)
        kappa, info = harness._select_kappa(cfg, X, y, (0,), data_bounds(X))
        assert kappa == 9
        assert info["rule"] == "fixed"
        assert info["capped"] is False

    def test_rot_capped(self, data_file):
        cfg = RunConfig(
            mode="fit", data_path=str(data_file), kappa="rot", kappa_max=2
        ).validated()
        X, y = read_data(data_file)
        kappa, info = harness._select_kappa(cfg, X, y, (0,), data_bounds(X))
        assert kappa <= 2
        assert info["cap"] == 2
        assert info["kappa_rot"] >= 1

    def test_default_cap_only_in_3d(self):
        cfg = RunConfig(mode="simulate", model_id=6, n=100).validated()
        assert harness._effective_cap(cfg, 3) == 5
        assert harness._effective_cap(cfg, 1) is None
        assert harness._effective_cap(cfg, 2) is None

    # (kappa, kappa_max, pilot fails, the whole selection block in key order)
    BLOCKS = {
        "fixed": (9, 3, False, dict(
            rule="fixed", requested=9, kappa=9, kappa_rot=None, kappa_dpi=None,
            rot_fallback=False, cap=None, capped=False)),
        "rot": ("rot", None, False, dict(
            rule="rot", requested="rot", kappa=5, kappa_rot=5, kappa_dpi=None,
            rot_fallback=False, cap=None, capped=False)),
        "rot-capped": ("rot", 2, False, dict(
            rule="rot", requested="rot", kappa=2, kappa_rot=5, kappa_dpi=None,
            rot_fallback=False, cap=2, capped=True)),
        "dpi": ("dpi", 4, False, dict(
            rule="dpi", requested="dpi", kappa=4, kappa_rot=5, kappa_dpi=4,
            rot_fallback=False, cap=4, capped=False)),
        "dpi-rot-fallback": ("dpi", 2, True, dict(
            rule="dpi", requested="dpi", kappa=2, kappa_rot=5, kappa_dpi=5,
            rot_fallback=True, cap=2, capped=True)),
    }

    @pytest.mark.parametrize("case", list(BLOCKS))
    def test_selection_block_is_pinned(self, data_file, monkeypatch, case):
        # the block copies the selector's report, each selector runs once,
        # and a fixed kappa runs none
        kappa, kappa_max, pilot_fails, want = self.BLOCKS[case]
        calls = []
        for name in ("rot_select", "dpi_select"):
            monkeypatch.setattr(harness, name, _spy(getattr(harness, name), calls))
        if pilot_fails:
            def rank_deficient(*args, **kwargs):
                raise RankDeficient("pilot fit refused")

            monkeypatch.setattr(tuning, "fit_estimator", rank_deficient)
        cfg = RunConfig(mode="fit", data_path=str(data_file), kappa=kappa,
                        kappa_max=kappa_max).validated()
        X, y = read_data(data_file)
        got, info = harness._select_kappa(cfg, X, y, (0,), data_bounds(X))
        assert list(info.items()) == list(want.items())
        assert got == want["kappa"]
        assert calls == ([] if case == "fixed" else [f"{kappa}_select"])


class TestRunFit:
    def test_report_structure(self, data_file):
        cfg = RunConfig(
            mode="fit", data_path=str(data_file), kappa=4, seed=3,
            j_set=(0, 1, 2, 3),
        )
        rep = run_fit(cfg)
        assert rep["schema"] == "lspart/1"
        assert rep["mode"] == "fit"
        assert rep["n"] == 200 and rep["d"] == 1
        assert rep["selection"]["rule"] == "fixed"
        assert set(rep["estimates"]) == {"j0", "j1", "j2", "j3"}
        for block in rep["estimates"].values():
            assert len(block["estimate"]) == 3
            assert all(
                lo < hi for lo, hi in zip(block["ci_lo"], block["ci_hi"])
            )
        assert rep["band"] is None
        assert "written_at" in rep["timestamp"]
        assert rep["timestamp"]["runtime_seconds"] > 0

    def test_deterministic_modulo_timestamp(self, data_file, tmp_path):
        cfg = dict(
            mode="fit", data_path=str(data_file), kappa=4, seed=5,
            band_method="plugin", B=120, grid_size=15, j_set=(0, 2),
        )
        a = run_fit(RunConfig(**cfg))
        b = run_fit(RunConfig(**cfg))
        a.pop("timestamp")
        b.pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_output_file(self, data_file, tmp_path):
        out = tmp_path / "report.json"
        cfg = RunConfig(
            mode="fit", data_path=str(data_file), kappa=3, output_path=str(out)
        )
        rep = run_fit(cfg)
        loaded = json.loads(out.read_text(encoding="utf-8"))
        assert loaded == rep

    def test_output_file_bytes(self, data_file, tmp_path):
        # the report is written as one compact dump plus a newline
        out = tmp_path / "report.json"
        rep = run_fit(RunConfig(mode="fit", data_path=str(data_file), kappa=3,
                                output_path=str(out), band_method="plugin",
                                B=150, grid_size=12))
        assert out.read_text(encoding="utf-8") == json.dumps(rep) + "\n"

    def test_unwritable_output_is_config_error(self, data_file, tmp_path):
        out = tmp_path / "absent" / "report.json"
        with pytest.raises(ConfigError, match="cannot write .*report\\.json"):
            run_fit(RunConfig(mode="fit", data_path=str(data_file), kappa=3,
                              j_set=(0,), output_path=str(out)))

    def test_unwritable_output_fails_before_reading(self, data_file, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(harness, "read_data", _refuse)
        (tmp_path / "a_dir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        for out in ("absent/r.json", "a_dir"):
            with pytest.raises(ConfigError, match="cannot write"):
                run_fit(RunConfig(mode="fit", data_path=str(data_file),
                                  output_path=str(tmp_path / out)))
        # permission bits do not bind every user, so the refusal is simulated
        monkeypatch.setattr(harness.os, "access", lambda path, mode: False)
        with pytest.raises(ConfigError, match="permission denied"):
            run_fit(RunConfig(mode="fit", data_path=str(data_file),
                              output_path=str(tmp_path / "r.json")))
        assert sorted(tmp_path.rglob("*")) == before

    def test_band_block(self, data_file):
        cfg = RunConfig(
            mode="fit", data_path=str(data_file), kappa=4, j_set=(0,),
            band_method="bootstrap", B=150, grid_size=12,
        )
        rep = run_fit(cfg)
        band = rep["band"]
        assert len(band["grid"]) == 12
        assert band["j0"]["method"] == "bootstrap"
        assert band["j0"]["quantile"] > 0
        assert all(l <= h for l, h in zip(band["j0"]["lo"], band["j0"]["hi"]))

    def test_custom_eval_points(self, data_file):
        cfg = RunConfig(
            mode="fit", data_path=str(data_file), kappa=3,
            eval_points=((0.3,), (0.6,)), j_set=(0,),
        )
        rep = run_fit(cfg)
        assert rep["eval_points"] == [[0.3], [0.6]]
        assert len(rep["estimates"]["j0"]["estimate"]) == 2

    def test_selector_reported(self, data_file):
        cfg = RunConfig(mode="fit", data_path=str(data_file), kappa="rot")
        rep = run_fit(cfg)
        sel = rep["selection"]
        assert sel["rule"] == "rot"
        assert sel["kappa"] == sel["kappa_rot"] or sel["capped"]

    def test_q_length_guard(self, data_file):
        cfg = RunConfig(mode="fit", data_path=str(data_file), kappa=3, q=(0, 0))
        with pytest.raises(ConfigError):
            run_fit(cfg)

    def test_mode_guard(self):
        cfg = RunConfig(mode="simulate", model_id=1, n=50)
        with pytest.raises(ConfigError):
            run_fit(cfg)

    def test_haar_corrections_and_dpi(self, data_file):
        # the Haar companion basis is the order-2 piecewise polynomial
        cfg = RunConfig(
            mode="fit", data_path=str(data_file), family="haar", m=1,
            kappa="dpi", j_set=(0, 1, 2),
        )
        rep = run_fit(cfg)
        assert rep["selection"]["rule"] == "dpi"
        assert rep["selection"]["rot_fallback"] is False
        assert set(rep["estimates"]) == {"j0", "j1", "j2"}
        for block in rep["estimates"].values():
            assert all(np.isfinite(block["estimate"]))

    def test_haar_plugin_correction_is_pp_order1(self, data_file):
        # Haar is the order-1 piecewise polynomial: its j = 3 is served,
        # equals PP's, and equals j = 1 at m_tilde = m + 1
        reps = [run_fit(RunConfig(mode="fit", data_path=str(data_file), family=f, m=1,
                                  kappa=4, j_set=(0, 1, 3)))
                for f in ("haar", "pp")]
        assert [r["family"] for r in reps] == ["haar", "pp"]
        haar, pp = (r["estimates"] for r in reps)
        for j in ("j0", "j1", "j3"):
            assert haar[j] == pp[j]
        assert_allclose(haar["j3"]["estimate"], haar["j1"]["estimate"], rtol=0, atol=1e-12)


def _sim_cfg(**kw):
    base = dict(
        mode="simulate", model_id=1, n=150, replications=6, kappa=3,
        j_set=(0, 2), seed=1,
    )
    base.update(kw)
    return RunConfig(**base)


class TestRunSimulation:
    def test_rows_and_summary(self):
        rows, summary = run_simulation(_sim_cfg())
        assert [r["j"] for r in rows] == [0, 2]
        r = rows[0]
        assert r["reps"] == 6 and r["failures"] == 0
        assert r["kappa_mean"] == 3.0 and r["kappa_sd"] == 0.0
        assert r["selector"] == "fixed"
        assert len(r["rmse"]) == 3 and len(r["cr"]) == 3 and len(r["il"]) == 3
        assert r["cp"] is None and r["ucr"] is None
        assert summary["schema"] == "lspart/1"
        assert summary["eval_points"] == [[0.25], [0.5], [0.75]]
        assert_allclose(
            summary["truth"], dgp_eval(1, [[0.25], [0.5], [0.75]]), rtol=1e-15
        )
        assert summary["failures"] == []

    def test_parallel_matches_serial(self):
        rows1, s1 = run_simulation(_sim_cfg(jobs=1))
        rows2, s2 = run_simulation(_sim_cfg(jobs=2))
        s1.pop("timestamp")
        s2.pop("timestamp")
        assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)
        assert json.dumps(harness._pyify(rows1)) == json.dumps(harness._pyify(rows2))

    def test_band_metrics(self):
        rows, _ = run_simulation(
            _sim_cfg(replications=4, band_method="plugin", B=150, grid_size=10,
                     j_set=(0,))
        )
        r = rows[0]
        for k in ("cp", "ace", "aw", "ucr"):
            assert r[k] is not None
        assert 0.0 <= r["cp"] <= 1.0
        assert 0.0 <= r["ucr"] <= 1.0
        assert r["aw"] > 0

    def test_ci_hook_forces_full_coverage(self, monkeypatch):
        def infinite_ci(fit, var, pts, q, alpha):
            real = pointwise_ci(fit, var, pts, q, alpha)
            return SimpleNamespace(
                estimates=real.estimates,
                ci_lo=np.full_like(real.estimates, -np.inf),
                ci_hi=np.full_like(real.estimates, np.inf),
            )

        monkeypatch.setattr(harness, "pointwise_ci", infinite_ci)
        rows, _ = run_simulation(_sim_cfg(replications=3))
        for r in rows:
            assert_allclose(r["cr"], 1.0)

    def test_all_failures_abort(self):
        # 80 cells on 60 points leaves empty cells in every replication
        with pytest.raises(NumericalError):
            run_simulation(_sim_cfg(n=60, kappa=80, replications=3))

    def test_inconsistent_band_coverage_is_typed(self):
        # a uniform cover in every replication cannot miss a grid point
        cfg = _sim_cfg(j_set=(0,), band_method="plugin").validated()

        def rep(band_cover):
            entry = {"sq_err": np.zeros(3), "cover": np.ones(3, dtype=bool),
                     "il": np.ones(3), "band_cover": np.array(band_cover),
                     "aw": 1.0, "ucr": True}
            return {"kappa": 3, "per_j": {0: entry}}

        results = [(0, None, rep([True, True])), (1, None, rep([False, True]))]
        with pytest.raises(NumericalError, match=r"coverage 1\.0 .* coverage 0\.5"):
            harness._aggregate(cfg, results, np.zeros(3))

    def test_output_files(self, tmp_path):
        out = tmp_path / "metrics.csv"
        run_simulation(_sim_cfg(replications=2, output_path=str(out)))
        text = out.read_text(encoding="utf-8")
        assert text.startswith("model,selector,j,family,m,m_tilde,n,reps,")
        summary = json.loads((tmp_path / "metrics.csv.json").read_text("utf-8"))
        assert summary["schema"] == "lspart/1"

    def test_unwritable_output_is_config_error(self, tmp_path):
        # the metrics CSV is written first, so no summary is left beside it
        out = tmp_path / "a_directory"
        out.mkdir()
        with pytest.raises(ConfigError, match="cannot write .*a_directory"):
            run_simulation(_sim_cfg(j_set=(0,), output_path=str(out)))
        assert not (tmp_path / "a_directory.json").exists()

    @pytest.mark.parametrize("out", ["absent/m.csv", "a_dir", "b"])
    def test_unwritable_output_fails_before_any_replication(self, tmp_path,
                                                            monkeypatch, out):
        # "b" itself is writable, but its summary path b.json is a directory
        monkeypatch.setattr(harness.dgp, "dgp_sample", _refuse)
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "b.json").mkdir()
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(ConfigError, match="cannot write"):
            run_simulation(_sim_cfg(replications=20, output_path=str(tmp_path / out)))
        assert sorted(tmp_path.rglob("*")) == before

    def test_three_dim_default_cap_binds(self):
        rows, _ = run_simulation(
            RunConfig(
                mode="simulate", model_id=6, n=400, replications=2,
                kappa="rot", j_set=(0,), seed=2,
            )
        )
        assert rows[0]["kappa_mean"] <= 5.0

    def test_mode_guard(self, data_file):
        cfg = RunConfig(mode="fit", data_path=str(data_file))
        with pytest.raises(ConfigError):
            run_simulation(cfg)


class TestMetricsCsv:
    def test_layout_and_blanks(self):
        rows, _ = run_simulation(_sim_cfg(replications=2, j_set=(0,)))
        text = metrics_csv(rows, 3)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:12] == [
            "model", "selector", "j", "family", "m", "m_tilde", "n", "reps",
            "failures", "kappa_mean", "kappa_median", "kappa_sd",
        ]
        assert header[12:21] == [
            "rmse_1", "cr_1", "il_1", "rmse_2", "cr_2", "il_2",
            "rmse_3", "cr_3", "il_3",
        ]
        assert header[21:] == ["cp", "ace", "aw", "ucr"]
        rec = lines[1].split(",")
        assert rec[-4:] == ["", "", "", ""]  # no band requested
        # 17 significant digits survive a float round trip
        assert float(rec[12]) == rows[0]["rmse"][0]

