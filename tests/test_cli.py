"""Command-line interface: flags, exit codes, output modes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lspart.cli import _ints_csv, _points, main
from lspart.errors import ConfigError


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.random((150, 1))
    y = np.sin(3 * X[:, 0]) + 0.3 * rng.standard_normal(150)
    p = tmp_path / "data.csv"
    lines = ["x1,y"] + [
        f"{float(a)!r},{float(b)!r}" for a, b in zip(X[:, 0], y)
    ]
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


class TestParsers:
    def test_ints_csv(self):
        assert _ints_csv("0,2,3", "--j") == (0, 2, 3)
        assert _ints_csv("1", "--q") == (1,)
        with pytest.raises(ConfigError):
            _ints_csv("1,a", "--j")

    def test_points(self):
        assert _points("0.25;0.5") == ((0.25,), (0.5,))
        assert _points("0.2,0.3; 0.5,0.6") == ((0.2, 0.3), (0.5, 0.6))
        with pytest.raises(ConfigError):
            _points("0.1,zap")


class TestFitCommand:
    def test_stdout_json(self, data_file, capsys):
        code = main(["fit", "--data", str(data_file), "--kappa", "4"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "lspart/1"
        assert set(report["estimates"]) == {"j0", "j1", "j2", "j3"}

    def test_out_file_quiet(self, data_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main([
            "fit", "--data", str(data_file), "--kappa", "3", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text(encoding="utf-8"))["mode"] == "fit"

    def test_j_subset_and_eval_points(self, data_file, capsys):
        code = main([
            "fit", "--data", str(data_file), "--kappa", "3",
            "--j", "0,2", "--eval-points", "0.3;0.6",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["estimates"]) == {"j0", "j2"}
        assert report["eval_points"] == [[0.3], [0.6]]

    def test_band_flags(self, data_file, capsys):
        code = main([
            "fit", "--data", str(data_file), "--kappa", "4", "--j", "0",
            "--band", "plugin", "--B", "150", "--grid", "25",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["band"]["j0"]["method"] == "plugin"
        assert report["band"]["j0"]["draws"] == 150

    def test_deterministic_reports(self, data_file, tmp_path):
        args = [
            "fit", "--data", str(data_file), "--kappa", "4", "--seed", "9",
            "--band", "bootstrap", "--B", "120", "--grid", "15", "--j", "0,2",
        ]
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a_path)]) == 0
        assert main(args + ["--out", str(b_path)]) == 0
        a = json.loads(a_path.read_text(encoding="utf-8"))
        b = json.loads(b_path.read_text(encoding="utf-8"))
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b

    def test_config_error_exit_2(self, data_file, capsys):
        code = main(["fit", "--data", str(data_file), "--kappa", "fancy"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_data_error_exit_3(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "none.csv"), "--kappa", "3"])
        assert code == 3
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n0.5,oops\n", encoding="utf-8")
        code = main(["fit", "--data", str(bad), "--kappa", "3"])
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    def test_argparse_rejects_unknown_choice(self, data_file):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(data_file), "--family", "wavelet"])
        assert exc.value.code == 2

    def test_bad_q_exit_2(self, data_file):
        assert main(["fit", "--data", str(data_file), "--q", "a"]) == 2


class TestSimulateCommand:
    def test_stdout_csv(self, capsys):
        code = main([
            "simulate", "--model", "1", "--n", "120", "--reps", "3",
            "--kappa", "3", "--j", "0", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("model,selector,j,family,m,m_tilde,n,reps,")
        assert len(out.splitlines()) == 2

    def test_out_files(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main([
            "simulate", "--model", "1", "--n", "120", "--reps", "2",
            "--kappa", "3", "--j", "0,1", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8").count("\n") == 3
        summary = json.loads((tmp_path / "m.csv.json").read_text("utf-8"))
        assert summary["replications"] == 2

    def test_numerical_failure_exit_4(self, capsys):
        code = main([
            "simulate", "--model", "1", "--n", "60", "--reps", "2",
            "--kappa", "80", "--j", "0",
        ])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--family", "haar", "--m", "1", "--j", "3"],
        ["--q", "2", "--m", "2"],
        ["--band", "bootstrap", "--B", "50"],
    ])
    def test_config_error_in_a_replication_exit_2(self, flags, data_file, capsys):
        # a ConfigError ends the study as it ends a fit; it is not counted as
        # a failed replication (exit 4)
        sim = ["simulate", "--model", "1", "--n", "300", "--reps", "2", "--kappa", "4"]
        assert main(sim + flags) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "replications failed" not in err
        assert main(["fit", "--data", str(data_file), "--kappa", "4"] + flags) == 2

    def test_large_seed_is_exact(self, tmp_path):
        out = tmp_path / "m.csv"
        seed = str(2**60 + 1)
        code = main([
            "simulate", "--model", "1", "--n", "120", "--reps", "1",
            "--kappa", "3", "--j", "0", "--seed", seed, "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "m.csv.json").read_text("utf-8"))
        assert summary["seed"] == 2**60 + 1

    def test_invalid_model_exit_2(self, capsys):
        code = main(["simulate", "--model", "9", "--n", "100", "--kappa", "3"])
        assert code == 2

    def test_negative_seed_exit_2(self, capsys):
        code = main([
            "simulate", "--model", "1", "--n", "200", "--reps", "1",
            "--kappa", "3", "--seed", "-1",
        ])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_jobs_flag(self, capsys):
        code = main([
            "simulate", "--model", "1", "--n", "120", "--reps", "4",
            "--kappa", "3", "--j", "0", "--jobs", "2", "--seed", "5",
        ])
        assert code == 0
        parallel = capsys.readouterr().out
        code = main([
            "simulate", "--model", "1", "--n", "120", "--reps", "4",
            "--kappa", "3", "--j", "0", "--jobs", "1", "--seed", "5",
        ])
        assert code == 0
        assert capsys.readouterr().out == parallel


def test_module_entry_point(data_file):
    # pytest's pythonpath setting does not reach child processes
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lspart.cli",
         "fit", "--data", str(data_file), "--kappa", "3", "--j", "0"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == "lspart/1"


def test_runs_without_scipy(data_file):
    # scipy is a test-only dependency: the package and a fit with leverage,
    # pointwise intervals and a band must not import it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import lspart.cli\n"
        "from lspart.harness import RunConfig, run_fit\n"
        "run_fit(RunConfig(mode='fit', data_path=sys.argv[1], kappa=3, j_set=(0, 2),\n"
        "                  hc_kind='hc2', band_method='bootstrap', B=200))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(data_file)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
