"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/spread.py --workloads mc_sim_1d,fit_csv_2d --seeds 1-10
    python3 bench/spread.py --seeds 1,2 --trace 1 --out FILE

Each (workload, seed) pair runs ``bench/run.py`` in its own process, with
``run_seconds`` from ``BENCHMARK.json`` unless ``--seconds`` is given. For
every metric and workload it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median, and
flags an end-to-end spread above a third of the metric's bound. It also prints
each workload's error rate, failed / attempted over all its runs. ``--out``
writes the environment of the first run, every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs, summary, ok, environment = [], {}, True, None
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if environment is None:
                stem = f"{workload}_seed{seed}_trace{args.trace}"
                with open(BENCH / "out" / f"{stem}.json", encoding="utf-8") as fh:
                    environment = json.load(fh)["environment"]
            runs.append({"workload": workload, "seed": seed, **res})
            results.append(res)
            print(f"{workload} seed {seed}: correct {res['correct']}, "
                  f"{res['attempted']} ops", flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        per_metric = {}
        for name, m in results[0]["metrics"].items():
            per_metric[name] = summarize([r["metrics"][name]["value"] for r in results])
            per_metric[name]["unit"] = m["unit"]
        summary[workload] = {"error_rate": failed / attempted,
                             "all_correct": all(r["correct"] for r in results),
                             "metrics": per_metric}
        ok = ok and summary[workload]["all_correct"]

    for workload, s in summary.items():
        print(f"\n{workload}: error_rate {s['error_rate']:.4g} fraction, "
              f"all correct: {s['all_correct']}")
        for name, m in s["metrics"].items():
            flag = ""
            if name in bounds and m["spread"] is not None and name != "setup_s":
                flag = "  SPREAD > bound/3" if m["spread"] > bounds[name] / 3 else ""
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:44s} {m['median']:.6g} {m['unit']:6s} "
                  f"[{m['q1']:.6g}, {m['q3']:.6g}] spread {spread}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "trace": args.trace,
                       "environment": environment,
                       "summary": summary, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
