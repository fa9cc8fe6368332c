"""Self-test of the benchmark's tracer at tiny sizes.

    python3 bench/selftest.py

For each workload it runs two traced ops at tiny sizes and checks that:
spans nest (each child lies inside its parent and shares its op id); self
times are non-negative and sum per op to at most the op's wall time; every
span the workload is documented to call appears and every layer it is
documented to skip does not; the per-layer names match ``BENCHMARK.json``;
the tiny outputs pass the correctness checks; and uninstalling the tracer
puts back every wrapped name. Prints one line per workload and exits 1 if
any check fails.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import OUT, ROOT, check_outputs, prepare_environment, run_loop

EXTRA_LAYER = ("tuning.kappa_selected", "trace.overhead_ratio")  # added by run.py


def _bindings():
    """Every attribute of every lspart module and of every wrapped class."""
    from spans import SPANS

    owners = [mod for key, mod in sys.modules.items()
              if key == "lspart" or key.startswith("lspart.")]
    owners += [getattr(sys.modules[module], path.split(".")[0])
               for _, module, path in SPANS if "." in path]
    return {(id(owner), attr): value for owner in owners
            for attr, value in vars(owner).items()}


def trace_problems(tracer, latencies, first_op):
    spans = tracer.spans
    own = tracer.self_times()
    problems = []
    for k, (name, start, end, parent, op) in enumerate(spans):
        if not start <= end:
            problems.append(f"span {k} {name} ends before it starts")
        if own[k] < -1e-9:
            problems.append(f"span {k} {name} has negative self time {own[k]}")
        if parent is None:
            continue
        p_name, p_start, p_end, _, p_op = spans[parent]
        if not (parent < k and p_start <= start and end <= p_end and p_op == op):
            problems.append(f"span {k} {name} is not inside its parent {p_name}")
    for i, wall in enumerate(latencies):
        total = sum(s for rec, s in zip(spans, own) if rec[4] == first_op + i)
        if total > wall:
            problems.append(f"op {first_op + i}: self times {total:.6f} s exceed "
                            f"the op wall time {wall:.6f} s")
    return problems


def main():
    if not prepare_environment():
        print(f"error: no lspart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WARMUP, WORKLOADS, make_workload

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    OUT.mkdir(exist_ok=True)
    ok = True
    for name in WORKLOADS:
        workload = make_workload(name, tiny=True)
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            workload.prepare(1, workdir)
            workload.op(WARMUP)
            before = _bindings()
            tracer = Tracer(memory=True)
            with tracer:
                latencies, outputs, errors, _ = run_loop(workload, 0, ops=2, tracer=tracer)
            after = _bindings()
            problems = [f"op {i}: {msg}" for i, msg in errors.items()]
            problems += check_outputs(workload, outputs)[2]
        problems += trace_problems(tracer, latencies, 0)
        seen = {rec[0] for rec in tracer.spans}
        problems += [f"span {s} not recorded" for s in workload.calls if s not in seen]
        problems += [f"span {s} recorded on a workload that skips it"
                     for s in workload.skips if s in seen]
        reported = set(tracer.layer_metrics(2, tracer.peak_bytes)) | set(EXTRA_LAYER)
        if reported != declared:
            problems.append(f"per-layer names differ from BENCHMARK.json: "
                            f"{sorted(reported ^ declared)}")
        # new names (a warnings registry, say) may appear; old ones must be restored
        if any(after.get(k) is not v for k, v in before.items()):
            problems.append("uninstall did not restore every wrapped name")
        print(f"{name}: {len(tracer.spans)} spans over 2 ops, "
              f"{'ok' if not problems else 'FAIL'}")
        for msg in problems:
            print(f"  {msg}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
