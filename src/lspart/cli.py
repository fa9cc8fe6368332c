"""Command-line front end: ``lspart fit`` and ``lspart simulate``.

Each flag's dest is a ``RunConfig`` field and an absent flag is left out of
the namespace, so every default is ``RunConfig``'s. Enum flags take the
values of their enum in any case. A ``ConfigError`` exits 2, a
``DataError`` 3 and a ``NumericalError`` 4.
"""

from __future__ import annotations

import argparse
import sys

from .basis import BasisFamily
from .errors import ConfigError, DataError, NumericalError, check_whole
from .harness import RunConfig, metrics_csv, report_text, run_fit, run_simulation
from .inference import HCKind
from .partition import KnotRule


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
    p.add_argument("--family", type=str.lower, choices=[e.value for e in BasisFamily])
    p.add_argument("--m", help="basis order")
    p.add_argument("--m-tilde", help="bias-correction order (default m+1)")
    p.add_argument("--kappa",
                   help="cells per axis: a positive integer, 'rot', or 'dpi'")
    p.add_argument("--kappa-max", help="cap on selected kappa (default 5 when d=3)")
    p.add_argument("--q", help="derivative orders, comma separated, one per covariate")
    p.add_argument("--j", dest="j_set",
                   help="estimators to report, comma separated subset of 0,1,2,3")
    p.add_argument("--alpha")
    p.add_argument("--band", dest="band_method", help="plugin or bootstrap")
    p.add_argument("--B", help="band draws")
    p.add_argument("--grid", dest="grid_size", help="band grid points per axis")
    p.add_argument("--hc", dest="hc_kind", type=str.lower,
                   choices=[e.value for e in HCKind])
    p.add_argument("--knots", dest="knot_rule", type=str.lower,
                   choices=[e.value for e in KnotRule])
    p.add_argument("--seed")
    p.add_argument("--eval-points",
                   help="points like '0.25;0.5;0.75' (coordinates comma separated)")
    p.add_argument("--out", dest="output_path", help="output file path")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lspart",
        description="Partitioning-based least-squares regression with "
        "bias-aware confidence intervals and uniform bands.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # SUPPRESS goes on each subparser: the top-level setting does not reach them
    fit = sub.add_parser("fit", argument_default=argparse.SUPPRESS,
                         help="fit one CSV dataset and report estimates")
    fit.add_argument("--data", dest="data_path", required=True,
                     help="CSV file with header x1,...,xd,y")
    _add_common(fit)
    sim = sub.add_parser("simulate", argument_default=argparse.SUPPRESS,
                         help="Monte Carlo study over built-in models")
    sim.add_argument("--model", dest="model_id", required=True, help="model id 1..7")
    sim.add_argument("--n", required=True, help="sample size")
    sim.add_argument("--reps", dest="replications", help="replications")
    sim.add_argument("--jobs", help="parallel replication workers")
    _add_common(sim)
    return ap


def _config_from(ns):
    opts = vars(ns).copy()
    mode = opts.pop("command")
    if "j_set" in opts:
        opts["j_set"] = _ints_csv(opts["j_set"], "--j")
    # an empty --q or --eval-points means the flag is absent
    q, pts = opts.pop("q", ""), opts.pop("eval_points", "")
    if q:
        opts["q"] = _ints_csv(q, "--q")
    if pts:
        opts["eval_points"] = _points(pts)
    return RunConfig(mode=mode, **opts)


def main(argv=None):
    ns = build_parser().parse_args(argv)
    exit_codes = {ConfigError: 2, DataError: 3, NumericalError: 4}
    try:
        cfg = _config_from(ns)
        if cfg.mode == "fit":
            report = run_fit(cfg)
            if not cfg.output_path:
                sys.stdout.write(report_text(report))
        else:
            rows, summary = run_simulation(cfg)
            if not cfg.output_path:
                sys.stdout.write(metrics_csv(rows, len(summary["eval_points"])))
    except tuple(exit_codes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in exit_codes.items() if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
