"""The benchmark wraps and imports lspart names from outside the package.

Removing or renaming one of those names, or changing which layers a
workload calls or skips, breaks the benchmark run; these tests make the
same break fail the test suite first.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load("spans").SPANS


@pytest.mark.parametrize("span,module_name,path", SPANS, ids=[s[0] for s in SPANS])
def test_span_target_resolves(span, module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        # the tracer patches the class dict entry, so inherited names do not count
        assert attr in vars(getattr(module, cls_name)), f"{span}: {path} missing"
    else:
        assert callable(getattr(module, path)), f"{span}: {path} missing"


def test_workloads_import():
    workloads = _load("workloads")
    for name in ("mc_sim_1d", "fit_csv_2d", "fit_csv_3d_hc2"):
        assert workloads.make_workload(name).name == name


def test_selftest_passes():
    # the tracer self-test: span targets, documented calls and skips, checks
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
