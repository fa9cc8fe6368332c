"""Command-line front end: ``lspart fit`` and ``lspart simulate``."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, DataError, NumericalError, check_whole
from .harness import RunConfig, metrics_csv, run_fit, run_simulation


def _ints_csv(text, what):
    return tuple(check_whole(t, what, 0) for t in text.split(",") if t.strip() != "")


def _points(text):
    # points separated by ';', coordinates within a point by ','
    try:
        pts = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if chunk:
                pts.append(tuple(float(t) for t in chunk.split(",")))
        return tuple(pts)
    except ValueError as exc:
        raise ConfigError(f"could not parse eval points {text!r}: {exc}") from exc


def _add_common(p):
    p.add_argument("--family", default="bspline", choices=["bspline", "pp", "haar"])
    p.add_argument("--m", default=2, help="basis order")
    p.add_argument("--m-tilde", default=None, dest="m_tilde",
                   help="bias-correction order (default m+1)")
    p.add_argument("--kappa", default="rot",
                   help="cells per axis: a positive integer, 'rot', or 'dpi'")
    p.add_argument("--kappa-max", default=None, dest="kappa_max",
                   help="cap on selected kappa (default 5 when d=3)")
    p.add_argument("--q", default=None,
                   help="derivative orders, comma separated, one per covariate")
    p.add_argument("--j", default="0,1,2,3",
                   help="estimators to report, comma separated subset of 0,1,2,3")
    p.add_argument("--alpha", default=0.05)
    p.add_argument("--band", default=None, choices=["plugin", "bootstrap"])
    p.add_argument("--B", default=1000, help="band draws")
    p.add_argument("--grid", default=None, help="band grid points per axis")
    p.add_argument("--hc", default="hc0", choices=["hc0", "hc1", "hc2", "hc3"])
    p.add_argument("--knots", default="even", choices=["even", "quantile"])
    p.add_argument("--seed", default=0)
    p.add_argument("--eval-points", default=None, dest="eval_points",
                   help="points like '0.25;0.5;0.75' (coordinates comma separated)")
    p.add_argument("--jobs", default=1, help="parallel replication workers")
    p.add_argument("--out", default=None, help="output file path")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lspart",
        description="Partitioning-based least-squares regression with "
        "bias-aware confidence intervals and uniform bands.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    fit = sub.add_parser("fit", help="fit one CSV dataset and report estimates")
    fit.add_argument("--data", required=True, help="CSV file with header x1,...,xd,y")
    _add_common(fit)
    sim = sub.add_parser("simulate", help="Monte Carlo study over built-in models")
    sim.add_argument("--model", required=True, help="model id 1..7")
    sim.add_argument("--n", required=True, help="sample size")
    sim.add_argument("--reps", default=1, help="replications")
    _add_common(sim)
    return ap


def _config_from(ns):
    common = dict(
        family=ns.family,
        m=ns.m,
        m_tilde=ns.m_tilde,
        knot_rule=ns.knots,
        kappa=ns.kappa,
        kappa_max=ns.kappa_max,
        q=_ints_csv(ns.q, "--q") if ns.q else None,
        j_set=_ints_csv(ns.j, "--j"),
        alpha=ns.alpha,
        band_method=ns.band,
        B=ns.B,
        grid_size=ns.grid,
        hc_kind=ns.hc,
        seed=ns.seed,
        eval_points=_points(ns.eval_points) if ns.eval_points else None,
        output_path=ns.out,
        jobs=ns.jobs,
    )
    if ns.command == "fit":
        return RunConfig(mode="fit", data_path=ns.data, **common)
    return RunConfig(
        mode="simulate", model_id=ns.model, n=ns.n, replications=ns.reps, **common
    )


def main(argv=None):
    ns = build_parser().parse_args(argv)
    try:
        cfg = _config_from(ns)
        if ns.command == "fit":
            report = run_fit(cfg)
            if not cfg.output_path:
                json.dump(report, sys.stdout, indent=2)
                sys.stdout.write("\n")
        else:
            rows, summary = run_simulation(cfg)
            if not cfg.output_path:
                sys.stdout.write(metrics_csv(rows, len(summary["eval_points"])))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
