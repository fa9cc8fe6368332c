"""lspart benchmark: one closed-loop client, one workload per process.

Run from the root of a checkout:

    python3 bench/run.py --workload fit_csv_2d --seed 1 --seconds 30 --trace 0

The benchmark builds nothing: it imports ``lspart`` from ``src/`` of the
checkout and exits with code 2, printing no result, when that is missing.
BLAS runs one thread and ``--jobs`` stays 1, so no process pool runs and the
op uses one core of a machine it may share.

Workloads (sizes are fixed; inputs come from ``--seed``)
    mc_sim_1d       ``harness.run_simulation``: model 1, n = 1000, kappa rot,
                    j = 0,2, wild-bootstrap band with B = 1000 on the default
                    100-point grid, one replication and a fresh seed per op.
                    Dominated by ``inference.band_bootstrap``.
    fit_csv_2d      ``lspart fit`` through ``cli.main`` on a model-4 CSV
                    (d = 2, n = 5000): j = 0..3, HC0, kappa dpi, plug-in band
                    on a 20 x 20 grid with B = 1000. Dominated by
                    ``inference.band_plugin``.
    fit_csv_3d_hc2  ``lspart fit`` on a model-6 CSV (d = 3, n = 10000),
                    kappa 5, j = 0,2, HC2, no band. Dominated by
                    ``fit.leverage``.
The fit workloads cycle through a pool of 4 distinct CSVs, so consecutive
operations never share input.

A run sets up three times and reports the median set-up time. One set-up is
the import of ``lspart`` in a fresh interpreter, the input generation
(writing the CSV pool) and one untimed warm-up op. The timed loop then runs
ops back to back for ``--seconds`` seconds. Outputs of the first and the last
op, and for mc_sim_1d the uniform coverage over all ops, are checked after the
loop (see ``workloads.py``).

Op times are reported in units of a reference kernel (``ref``): a fixed
pure-Python loop plus two numpy sorts that call no lspart code
(``reference_seconds``). Right before every op the untraced loop times
reference samples for 5% of the previous op's time (at least one), and the
op's wall time is divided by their mean. On a shared host the speed of a core
drifts by a third or more within a minute and flips within a second, and the
op's wall time moves with it, while the ratio moves a few percent; a change
to lspart moves the op and not the reference. The wall times themselves are
printed and kept in the result file.

With ``--trace 1`` the loop is split in two halves of equal length. The first
half is untraced and the second runs under ``spans.Tracer``; the per-layer
metrics come from the traced half. One more op then runs under a tracer with
tracemalloc on, which slows allocation-heavy layers several fold, and gives
only the ``peak_mb`` metrics.

Which end-to-end metric each layer should move ("flat": workloads that skip
the layer or spend a negligible share in it, where a change should move
nothing):

    inference.band_bootstrap.*     ops_per_ref, peak_rss_mb on mc_sim_1d;
                                   flat on fit_csv_3d_hc2
    inference.band_plugin.*,       latency_p50_ref on fit_csv_2d;
      fit.gamma_many.*             flat on fit_csv_3d_hc2
    fit.leverage.*,                latency_p50_ref, peak_rss_mb on fit_csv_3d_hc2;
      fit.solve.rhs_cols           flat on mc_sim_1d, fit_csv_2d (HC0)
    fit.gram_banded, fit.cross_gram,  latency on fit_csv_3d_hc2 and fit_csv_2d;
      inference.sigma_mat          a tiny share on mc_sim_1d
    tuning.*                       latency_p50_ref on fit_csv_2d;
                                   flat on fit_csv_3d_hc2 (fixed kappa)
    harness.read_data              latency on both fit_* workloads;
                                   flat on mc_sim_1d
    basis.eval_many,               per-call overhead on mc_sim_1d (about 14
      partition.locate             calls per op)
    tuning.kappa_selected explains a change in any downstream cost when the
    dpi selector picks another kappa.
Each workload's ``calls`` and ``skips`` in ``workloads.py`` list the spans
it must and must not record; ``bench/selftest.py`` checks them.

``bench/spread.py`` runs several seeds and summarizes each metric's median and
quartiles; ``bench/baseline/`` holds its output for the first baseline.

Output
------
The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}, ...}}

``attempted`` counts timed ops. ``failed`` counts the ops that raised or
exited non-zero, plus the checked ops whose check failed, plus one if a
run-level check failed. ``correct`` is ``failed == 0``.

End-to-end metrics (``--trace 0``), from each op's wall time in ``ref``
(divided by the mean reference sample taken right before it):
    ops_per_ref       1/ref  successful ops / sum of op times in ref
    latency_p50_ref   ref    median op time in ref
    latency_tail_ref  ref    op time in ref at the highest percentile with at
                             least ten samples beyond it (the maximum if
                             there are fewer than 11 ops); the result file
                             records which percentile
    peak_rss_mb       MB     ru_maxrss of this process, read after the loop
    setup_s           s      median of the three set-ups, in seconds
The sixth, ``error_rate`` = failed / attempted, is printed on the line before
the JSON and stored in the result file. It is not in ``metrics``, because a
metric there must never be 0.

Per-layer metrics (``--trace 1``), every name on every workload:
    <span>.self_s   s      self seconds per op (span time minus its children)
    <span>.calls    count  calls per op
    for each span <module>.<function> in ``spans.SPANS``, and
    basis.eval_many.rows                  count  rows evaluated per op
    fit.solve.rhs_cols                    count  right-hand sides solved per op
    tuning.kappa_selected                 cells  mean kappa per op
    tuning.dpi_select.rot_fallback_ratio  ratio  fallbacks / dpi_select calls
    <span>.peak_mb                        MB     largest tracemalloc peak of
        one call above its entry, for the spans in ``spans.MEMORY_SPANS``
    trace.overhead_ratio                  ratio  untraced / traced ops_per_s

Result file
-----------
Each run also writes ``bench/out/<workload>_seed<seed>_trace<t>.json``:
``workload``, ``seed``, ``seconds``, ``trace``, ``environment`` (CPU model,
nproc, Python, numpy, scipy and OpenBLAS versions, BLAS threads, git SHA),
``setup_s`` (every set-up), ``phase_seconds`` (wall time of the set-ups,
the timed loop and the checks), ``latencies_s`` (every timed op, in order),
with ``--trace 0`` also ``reference_s`` (the reference samples before each
op) and ``wall`` (ops_per_s, latency_p50_s, latency_tail_s and the mean
reference sample ref_s, in seconds),
``tail`` (percentile and samples beyond it), ``error_rate``, ``problems``
(failure messages), ``metrics`` (as printed), and with ``--trace 1`` also
``traced_ops``, ``ops_per_s_untraced``, ``ops_per_s_traced``, ``top_self_s``
(spans by self time) and ``spans_file``. That file holds one JSON line per
span: name, start, end, parent (index of the enclosing span's line) and op.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REF_LOOP = 50_000  # iterations of the reference kernel's Python loop
REF_SORT = 200_000  # floats in each of its two sorts
# Reference samples before an op fill this share of the previous op's time.
# Host speed flips within a second, so a 1-s op needs several samples.
REF_SHARE = 0.05
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import lspart.cli; "
    "print(time.perf_counter() - t)"
)


def prepare_environment():
    """Run BLAS on one thread and put the checkout's ``src`` first on the path.

    Returns False when the checkout holds no lspart sources. Must run before
    numpy is imported.
    """
    # one thread leaves the second core to the rest of the machine, and makes
    # the op as single-threaded as the reference kernel it is divided by
    for var in BLAS_ENV:
        os.environ[var] = "1"
    if not (SRC / "lspart" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    return True


def _blas_threads():
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "workload_seed": seed,
    }


def import_seconds():
    """Time ``import lspart.cli`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup_once(workload, seed, workdir):
    from workloads import WARMUP

    seconds = import_seconds()
    t0 = time.perf_counter()
    workload.prepare(seed, workdir)
    workload.op(WARMUP)
    return seconds + time.perf_counter() - t0


@functools.cache
def _reference_arrays():
    import numpy as np

    data = np.random.default_rng(0).standard_normal(REF_SORT)
    return data, np.empty_like(data)


def reference_seconds():
    """Wall time of the reference kernel: a pure-Python loop and two in-place
    sorts of a fixed array, about 9 ms on one Xeon server core. It calls no
    lspart code, so only the host's speed moves it."""
    data, buf = _reference_arrays()
    t0 = time.perf_counter()
    s = 0
    for k in range(REF_LOOP):
        s += k * k
    for _ in range(2):
        buf[:] = data
        buf.sort()
    return time.perf_counter() - t0


def reference_samples(budget):
    """Reference samples until they take ``budget`` seconds, at least one."""
    samples = [reference_seconds()]
    while sum(samples) < budget:
        samples.append(reference_seconds())
    return samples


def run_loop(workload, first_op, seconds=None, ops=None, tracer=None, refs=None):
    """Closed loop from op ``first_op``, for ``seconds`` or for ``ops`` ops.
    With a list ``refs``, the reference samples taken before each op are
    appended to it as one list per op.

    Returns (latencies, outputs by op, errors by op, wall seconds).
    """
    latencies, outputs, errors = [], {}, {}
    clock = time.perf_counter
    start = clock()
    i = first_op
    while True:
        done = i - first_op
        if done and (done >= ops if ops is not None else clock() - start >= seconds):
            break
        if refs is not None:
            refs.append(reference_samples(REF_SHARE * (latencies[-1] if latencies else 0.0)))
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            outputs[i] = workload.op(i)
        except Exception as exc:  # an op failure is counted, the loop goes on
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        i += 1
    return latencies, outputs, errors, clock() - start


def tail_latency(latencies):
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least ten samples above it; the maximum below 11 samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def check_outputs(workload, outputs):
    """Check the first and last op, then the whole run; returns
    (failed op ids, run-level problems, all problem messages)."""
    ids = sorted(outputs)
    checked = sorted({ids[0], ids[-1]}) if ids else []
    failed, messages = set(), []
    for i in checked:
        try:
            problems = workload.check(i, outputs[i])
        except Exception as exc:  # a check that raises is a failed check
            problems = [f"op {i}: check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed.add(i)
            messages += problems
    run_problems = workload.check_run([outputs[i] for i in ids])
    return failed, run_problems, messages + run_problems


def end_to_end(workload, seconds, setups):
    """Untraced timed loop; returns (latencies, outputs, errors, metrics, info)."""
    refs = []
    latencies, outputs, errors, _ = run_loop(workload, 0, seconds=seconds, refs=refs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ratios = [lat / statistics.mean(r) for lat, r in zip(latencies, refs)]
    tail, pct, beyond = tail_latency(latencies)
    ops_ok = len(latencies) - len(errors)
    ops_per_s = ops_ok / sum(latencies)
    p50 = statistics.median(latencies)
    ref = statistics.mean(x for r in refs for x in r)
    metrics = {
        "ops_per_ref": (ops_ok / sum(ratios), "1/ref"),
        "latency_p50_ref": (statistics.median(ratios), "ref"),
        "latency_tail_ref": (tail_latency(ratios)[0], "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {"tail": {"percentile": pct, "samples_beyond": beyond,
                     "samples": len(latencies)},
            "reference_s": refs,
            "wall": {"ops_per_s": ops_per_s, "latency_p50_s": p50,
                     "latency_tail_s": tail, "ref_s": ref}}
    return latencies, outputs, errors, metrics, info


def per_layer(workload, seconds, spans_file):
    """Untraced half, traced half, then one op for memory peaks; returns
    (latencies, outputs, errors, metrics, info) over both halves."""
    from spans import Tracer

    lat, outputs, errors, wall = run_loop(workload, 0, seconds=seconds / 2.0)
    # tracemalloc slows allocation-heavy layers several fold, so the traced
    # half runs without it and one more op measures memory
    tracer, mem = Tracer(memory=False), Tracer(memory=True)
    with tracer:
        t_lat, t_out, t_err, t_wall = run_loop(workload, len(lat), seconds=seconds / 2.0,
                                               tracer=tracer)
    with mem:
        run_loop(workload, len(lat) + len(t_lat), ops=1, tracer=mem)
    tracer.write(spans_file)

    rate_untraced = (len(lat) - len(errors)) / wall
    rate_traced = (len(t_lat) - len(t_err)) / t_wall
    kappas = [workload.kappa(t_out[i]) for i in sorted(t_out)]
    metrics = tracer.layer_metrics(len(t_lat), mem.peak_bytes)
    metrics["tuning.kappa_selected"] = (sum(kappas) / len(kappas) if kappas else 0.0,
                                        "cells")
    metrics["trace.overhead_ratio"] = (rate_untraced / rate_traced if rate_traced else 0.0,
                                       "ratio")
    self_s = {k[:-len(".self_s")]: v for k, (v, _) in metrics.items()
              if k.endswith(".self_s")}
    info = {"traced_ops": len(t_lat), "ops_per_s_untraced": rate_untraced,
            "ops_per_s_traced": rate_traced,
            "top_self_s": sorted(self_s.items(), key=lambda kv: -kv[1])[:5],
            "spans_file": str(spans_file.relative_to(ROOT))}
    outputs.update(t_out)
    errors.update(t_err)
    return lat + t_lat, outputs, errors, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not prepare_environment():
        print(f"error: no lspart sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    workload = make_workload(args.workload)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed)}

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setups = [setup_once(workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
        t1 = time.perf_counter()
        if args.trace:
            measured = per_layer(workload, args.seconds, OUT / f"{stem}.spans.jsonl")
        else:
            measured = end_to_end(workload, args.seconds, setups)
        latencies, outputs, errors, metrics, info = measured
        t2 = time.perf_counter()
        failed_ops, run_problems, problems = check_outputs(workload, outputs)
    result["phase_seconds"] = {"setup": t1 - t0, "loop": t2 - t1,
                               "check": time.perf_counter() - t2}

    attempted = len(latencies)
    failed = min(attempted, len(failed_ops | errors.keys()) + bool(run_problems))
    problems = [f"op {i}: {msg}" for i, msg in sorted(errors.items())] + problems
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result.update(info, setup_s=setups, latencies_s=latencies,
                  error_rate=failed / attempted, problems=problems, metrics=metrics)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    for msg in problems[:20]:
        print(f"problem: {msg}")
    print(f"{args.workload} seed {args.seed}: {attempted} ops, "
          f"setups {[round(s, 3) for s in setups]} s")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if "tail" in info:
        t = info["tail"]
        print(f"  (tail at p{t['percentile']:.1f}, {t['samples_beyond']} of "
              f"{t['samples']} samples beyond)")
        for name, value in info["wall"].items():
            print(f"  {'wall ' + name:44s} {value:.6g}")
    print(f"  {'error_rate':44s} {failed / attempted:.6g} fraction")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
