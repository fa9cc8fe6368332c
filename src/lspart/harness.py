"""Run drivers: configuration, CSV ingestion, single fits, Monte Carlo loops.

``RunConfig`` holds each option's default, the CLI's too; ``validated``
checks each option once and resolves ``m_tilde``. A fit and a simulation
replication share one pass, :func:`_fit_and_infer`: select kappa, fit, then
per j the variance, pointwise intervals and band, at the q resolved once per
run. A ``ConfigError`` in a replication ends the study, as it ends a fit.

Both modes write their JSON report through :func:`_report`, which nests all
wall-clock information under the single volatile "timestamp" key, so
dropping that key leaves a byte-comparable document. :func:`report_text` is
its one text form, one line of JSON to ``--out`` or stdout alike, which
``python -m json.tool`` indents. An output path that cannot take a file is a
``ConfigError`` before any work (:func:`_check_output`), or at the write if
it fails later; an unreadable or non-UTF-8 data file is a ``ParseError``.
Simulation replications draw their data from streams keyed (master_seed, rep)
and are reduced in replication order, which makes parallel and serial runs
agree bit for bit. Each band call draws from one stream of its own, keyed
(seed, j) in a fit and (master_seed, rep, 1 + j) in a replication; the band
depends only on that key and the number of draws. A study's metrics are
replication means (``rmse`` is the root of the mean squared error).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import dgp
from .basis import BasisFamily, BasisSpec, check_deriv
from .errors import (
    ConfigError,
    DataError,
    DegenerateData,
    InvalidGrid,
    InvalidKappa,
    InvalidModel,
    NumericalError,
    ParseError,
    check_choice,
    check_floats,
    check_level,
    check_whole,
)
from .fit import EstimatorKind, fit_estimator
from .inference import (
    HCKind,
    band_bootstrap,
    band_plugin,
    make_grid,
    pointwise_ci,
    sigma_hat,
)
from .partition import KnotRule, TensorPartition, data_bounds
from .tuning import dpi_select, rot_select

SCHEMA = "lspart/1"

_EVAL_FRACTIONS = (0.25, 0.5, 0.75)


@dataclass
class RunConfig:
    """Everything one run needs; ``validated()`` normalizes and checks."""

    mode: str = "fit"
    data_path: str | None = None
    model_id: int | None = None
    family: BasisFamily = BasisFamily.BSPLINE
    m: int = 2
    m_tilde: int | None = None
    knot_rule: KnotRule = KnotRule.EVEN
    kappa: int | str = "rot"
    kappa_max: int | None = None
    q: tuple | None = None
    j_set: tuple = (0, 1, 2, 3)
    alpha: float = 0.05
    band_method: str | None = None
    B: int = 1000
    grid_size: int | None = None
    hc_kind: HCKind = HCKind.HC0
    replications: int = 1
    n: int | None = None
    seed: int = 0
    eval_points: tuple | None = None
    output_path: str | None = None
    jobs: int = 1

    def validated(self):
        cfg = replace(self)
        if cfg.mode not in ("fit", "simulate"):
            raise ConfigError(f"mode must be fit or simulate, got {cfg.mode!r}")
        cfg.family = check_choice(BasisFamily, cfg.family)
        cfg.knot_rule = check_choice(KnotRule, cfg.knot_rule)
        cfg.hc_kind = check_choice(HCKind, cfg.hc_kind)

        cfg.m = check_whole(cfg.m, "m", 1)
        if cfg.m_tilde is not None:
            cfg.m_tilde = check_whole(cfg.m_tilde, "m_tilde", 1)

        js = cfg.j_set if np.iterable(cfg.j_set) else (cfg.j_set,)
        cfg.j_set = tuple(sorted({check_whole(j, "estimator kind j", 0) for j in js}))
        if not cfg.j_set or max(cfg.j_set) > 3:
            raise ConfigError(f"j_set must be a nonempty subset of 0..3, got {cfg.j_set}")
        # the bias-correction order: none when every j is 0, else m + 1 by default
        if max(cfg.j_set) < 1:
            cfg.m_tilde = None
        elif cfg.m_tilde is None:
            cfg.m_tilde = cfg.m + 1
        elif cfg.m_tilde <= cfg.m:
            raise ConfigError(f"m_tilde {cfg.m_tilde} must exceed m {cfg.m}")

        if cfg.kappa not in ("rot", "dpi"):
            cfg.kappa = check_whole(cfg.kappa, "kappa", 1, InvalidKappa)
        if cfg.kappa_max is not None:
            cfg.kappa_max = check_whole(cfg.kappa_max, "kappa cap", 1, InvalidKappa)

        cfg.alpha = check_level(cfg.alpha)

        if cfg.band_method is not None:
            cfg.band_method = str(cfg.band_method).lower()
            if cfg.band_method not in ("plugin", "bootstrap"):
                raise ConfigError(
                    f"band method must be plugin or bootstrap, got {cfg.band_method!r}")
            cfg.B = check_whole(cfg.B, "B", 100)  # the bands' minimum of draws
        if cfg.grid_size is not None:
            cfg.grid_size = check_whole(cfg.grid_size, "grid size", 2, InvalidGrid)

        if cfg.q is not None:
            cfg.q = check_deriv(cfg.q, len(np.atleast_1d(cfg.q)))
        if cfg.eval_points is not None:
            pts = check_floats(cfg.eval_points, "eval points")
            cfg.eval_points = tuple(tuple(float(v) for v in row) for row in pts)

        cfg.seed = check_whole(cfg.seed, "seed", 0)
        cfg.jobs = check_whole(cfg.jobs, "jobs", 1)

        if cfg.mode == "fit":
            if not cfg.data_path:
                raise ConfigError("fit mode needs a data file")
        else:
            cfg.model_id = check_whole(cfg.model_id, "model id", 1, InvalidModel)
            dgp.dgp_dim(cfg.model_id)
            cfg.n = check_whole(cfg.n, "n", 1)
            cfg.replications = check_whole(cfg.replications, "replications", 1)
        return cfg


def read_data(path):
    """Parse a CSV with header x1,...,xd,y into (X, y).

    The body is parsed in one ``np.loadtxt`` pass. Anything that pass
    rejects, a wrong column count and a non-finite value go through the
    row loop :func:`_parse_rows` instead, which names the offending line.
    A leading byte-order mark (Excel's "CSV UTF-8") is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            body = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if header is None:
        raise ParseError("line 1: empty file")
    cols = [c.strip() for c in header]
    d = len(cols) - 1
    want = [f"x{k + 1}" for k in range(d)] + ["y"]
    if d < 1 or cols != want:
        raise ParseError(f"line 1: header must be x1,...,xd,y; got {','.join(cols)!r}")
    arr = None
    if body.strip():  # loadtxt warns on an input with no rows
        try:
            arr = np.loadtxt(
                io.StringIO(body, newline=""), delimiter=",", comments=None, ndmin=2
            )
        except ValueError:
            pass
    if arr is None or arr.shape[1] != d + 1 or not np.all(np.isfinite(arr)):
        arr = _parse_rows(io.StringIO(body, newline=""), d)
    return arr[:, :d], arr[:, d]


def _parse_rows(body, d):
    """Row-by-row parse of the CSV body after the header: (rows, d + 1)."""
    rows = []
    for lineno, row in enumerate(csv.reader(body), start=2):
        if not row:
            continue
        if len(row) != d + 1:
            raise ParseError(
                f"line {lineno}: expected {d + 1} fields, got {len(row)}"
            )
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, vals)):
            raise ParseError(f"line {lineno}: non-finite value")
        rows.append(vals)
    if not rows:
        raise DegenerateData("no data rows")
    return np.asarray(rows, dtype=float)


def _effective_cap(cfg, d):
    if cfg.kappa_max is not None:
        return cfg.kappa_max
    return 5 if d == 3 else None


def _select_kappa(cfg, X, y, q, bounds):
    info = {"rule": "fixed", "requested": cfg.kappa, "kappa": cfg.kappa,
            "kappa_rot": None, "kappa_dpi": None, "rot_fallback": False,
            "cap": None, "capped": False}
    if isinstance(cfg.kappa, int):
        # an explicit size is taken literally; the cap only binds selectors
        return cfg.kappa, info
    if cfg.kappa == "rot":
        rep = rot_select(X, y, cfg.family, cfg.m, q, bounds=bounds)
    else:
        rep = dpi_select(X, y, cfg.family, cfg.m, q, knots=cfg.knot_rule, bounds=bounds)
    selected, cap = rep.selected(), _effective_cap(cfg, len(q))
    capped = cap is not None and selected > cap
    info.update(rule=cfg.kappa, kappa=cap if capped else selected,
                kappa_rot=rep.kappa_rot, kappa_dpi=rep.kappa_dpi,
                rot_fallback=rep.rot_fallback, cap=cap, capped=capped)
    return info["kappa"], info


def _eval_points(cfg, bounds):
    """The configured evaluation points, else the quartiles of each axis."""
    if cfg.eval_points is None:
        lo, hi = bounds[:, 0], bounds[:, 1]
        return np.stack([lo + f * (hi - lo) for f in _EVAL_FRACTIONS], axis=0)
    pts = np.asarray(cfg.eval_points, dtype=float)
    d = bounds.shape[0]
    if pts.shape[1] != d:
        raise ConfigError(f"eval points have {pts.shape[1]} coordinates, need {d}")
    return pts


def _fit_and_infer(cfg, X, y, bounds, q, pts, band_seed):
    """Select kappa and fit; per j, ``sigma_hat``, ``pointwise_ci`` at ``pts``
    and the requested band, seeded ``band_seed(j)``, on the grid. Returns
    (fit, selection, grid, per_j), per_j[j] = (pointwise, band or None)."""
    kappa, selection = _select_kappa(cfg, X, y, q, bounds)
    part = TensorPartition.build(cfg.knot_rule, bounds, kappa, data=X)
    kind = EstimatorKind(BasisSpec(cfg.family, cfg.m, part), cfg.m_tilde)
    for j in cfg.j_set:
        kind.require_j(j)
    fit = fit_estimator(kind, X, y)
    grid = make_grid(bounds, cfg.grid_size) if cfg.band_method else None
    band_fn = band_plugin if cfg.band_method == "plugin" else band_bootstrap
    per_j = {}
    for j in cfg.j_set:
        var = sigma_hat(fit, j, cfg.hc_kind)
        pw = pointwise_ci(fit, var, pts, q, cfg.alpha)
        band = None
        if cfg.band_method:
            band = band_fn(fit, var, grid, q, cfg.alpha, cfg.B, seed=band_seed(j))
        per_j[j] = (pw, band)
    return fit, selection, grid, per_j


def _pyify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    return obj


def _check_output(*paths):
    """``ConfigError`` before any work if a path cannot take a file: its
    directory is missing, it is a directory, or it may not be written.
    Creates and changes no file."""
    for path in paths:
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            why = "it is a directory"
        elif not os.path.isdir(folder):
            why = f"no directory {folder}"
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            why = "permission denied"
        else:
            continue
        raise ConfigError(f"cannot write {path}: {why}")


def _write(path, text):
    """Write ``text`` to ``path``; an unwritable path is a ``ConfigError``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def report_text(report):
    """One line of JSON for ``--out`` and stdout; ``json.tool`` indents it."""
    return json.dumps(report) + "\n"


def _report(mode, body, t0, path):
    """The JSON report of a run: schema and mode, ``body``, then the volatile
    timestamp; written to ``path`` as :func:`report_text` when it is set."""
    report = _pyify({
        "schema": SCHEMA,
        "mode": mode,
        **body,
        "timestamp": {
            "written_at": datetime.now(timezone.utc).isoformat(),
            "runtime_seconds": time.perf_counter() - t0,
        },
    })
    if path:
        _write(path, report_text(report))
    return report


def run_fit(config):
    """Fit one dataset and return (and optionally write) the JSON report."""
    t0 = time.perf_counter()
    cfg = config.validated()
    if cfg.mode != "fit":
        raise ConfigError("run_fit needs a fit-mode config")
    if cfg.output_path:
        _check_output(cfg.output_path)
    X, y = read_data(cfg.data_path)
    n, d = X.shape
    q = check_deriv(cfg.q, d)
    bounds = data_bounds(X)
    pts = _eval_points(cfg, bounds)
    fit, selection, grid, per_j = _fit_and_infer(
        cfg, X, y, bounds, q, pts, lambda j: (cfg.seed, j)
    )
    part = fit.kind.main_spec.partition
    estimates = {}
    bands = {}
    for j, (pw, band) in per_j.items():
        estimates[f"j{j}"] = {
            "estimate": pw.estimates,
            "se": pw.se,
            "ci_lo": pw.ci_lo,
            "ci_hi": pw.ci_hi,
        }
        if band is not None:
            bands[f"j{j}"] = {
                "method": band.method,
                "draws": band.draws,
                "quantile": band.quantile,
                "estimate": band.estimates,
                "lo": band.lo,
                "hi": band.hi,
            }

    return _report("fit", {
        "n": n,
        "d": d,
        "family": cfg.family.value,
        "m": cfg.m,
        "m_tilde": cfg.m_tilde,
        "knot_rule": cfg.knot_rule.value,
        "q": list(q),
        "j_set": list(cfg.j_set),
        "alpha": cfg.alpha,
        "hc": cfg.hc_kind.value,
        "seed": cfg.seed,
        "selection": selection,
        "knots": [k for k in part.knots],
        "mesh": part.mesh_stats(),
        "eval_points": pts,
        "estimates": estimates,
        "band": ({"grid": grid, **bands} if cfg.band_method else None),
    }, t0, cfg.output_path)


# -- simulation ---------------------------------------------------------------


def _simulate_rep(args):
    """One replication; returns (rep, error message or None, metrics or None).

    ``args`` is ``(cfg, rep, q, pts, truth_pts)``: the derivative order, the
    evaluation points and the truth there are resolved once per study. Only
    a data or numerical failure fails the replication alone.
    """
    cfg, rep, q, pts, truth_pts = args
    try:
        rng = np.random.default_rng([cfg.seed, rep])
        X, y = dgp.dgp_sample(cfg.model_id, cfg.n, rng)
        _, selection, grid, per_j = _fit_and_infer(
            cfg, X, y, data_bounds(X), q, pts, lambda j: (cfg.seed, rep, 1 + j)
        )
        truth_grid = dgp.dgp_eval(cfg.model_id, grid) if grid is not None else None
        metrics = {}
        for j, (pw, band) in per_j.items():
            entry = {
                "sq_err": (pw.estimates - truth_pts) ** 2,
                "cover": (pw.ci_lo <= truth_pts) & (truth_pts <= pw.ci_hi),
                "il": pw.ci_hi - pw.ci_lo,
            }
            if band is not None:
                cover = band.covers(truth_grid)
                entry.update(band_cover=cover, ucr=cover.all(),
                             aw=np.mean(2.0 * band.half_widths))
            metrics[j] = entry
        return rep, None, {"kappa": selection["kappa"], "per_j": metrics}
    except (DataError, NumericalError, np.linalg.LinAlgError) as exc:
        return rep, f"{type(exc).__name__}: {exc}", None


def _aggregate(cfg, results, truth_pts):
    """Reduce per-replication metrics, in replication order, to MetricsRows."""
    ok = [res for _, err, res in results if err is None]
    failures = [(rep, err) for rep, err, _ in results if err is not None]
    R = len(results)
    if len(failures) > 0.2 * R:
        raise NumericalError(
            f"{len(failures)} of {R} replications failed; first: {failures[0][1]}"
        )
    if not ok:
        raise NumericalError("all replications failed")

    kappas = np.array([res["kappa"] for res in ok], dtype=float)
    selector = cfg.kappa if isinstance(cfg.kappa, str) else "fixed"
    rows = []
    for j in cfg.j_set:
        mean = {key: np.mean([res["per_j"][j][key] for res in ok], axis=0)
                for key in ok[0]["per_j"][j]}
        row = {
            "model": cfg.model_id,
            "selector": selector,
            "j": j,
            "family": cfg.family.value,
            "m": cfg.m,
            "m_tilde": cfg.m_tilde,
            "n": cfg.n,
            "reps": R,
            "failures": len(failures),
            "kappa_mean": float(np.mean(kappas)),
            "kappa_median": float(np.median(kappas)),
            "kappa_sd": float(np.std(kappas)),
            "rmse": np.sqrt(mean["sq_err"]),
            "cr": mean["cover"],
            "il": mean["il"],
            "cp": None,
            "ace": None,
            "aw": None,
            "ucr": None,
        }
        if cfg.band_method:
            point_cov, ucr = mean["band_cover"], float(mean["ucr"])
            if ucr > float(np.min(point_cov)) + 1e-12:
                raise NumericalError(
                    f"uniform coverage {ucr} exceeds the smallest pointwise band "
                    f"coverage {float(np.min(point_cov))}"
                )
            row["cp"] = float(np.mean(point_cov >= 1.0 - cfg.alpha))
            row["ace"] = float(np.mean(np.abs(point_cov - (1.0 - cfg.alpha))))
            row["aw"] = float(mean["aw"])
            row["ucr"] = ucr
        rows.append(row)
    return rows, failures


def metrics_csv(rows, num_eval_points):
    """Render MetricsRows to CSV text, one row per (model, selector, j)."""
    # the first nine columns name the study; the metrics after them are
    # written to 17 significant digits, and a missing value is left blank
    per_point = [(f"{k}_{p + 1}", k, p)
                 for p in range(num_eval_points) for k in ("rmse", "cr", "il")]
    columns = (
        ["model", "selector", "j", "family", "m", "m_tilde", "n", "reps",
         "failures", "kappa_mean", "kappa_median", "kappa_sd"]
        + [name for name, _, _ in per_point]
        + ["cp", "ace", "aw", "ucr"]
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        cells = {**row, **{name: row[k][p] for name, k, p in per_point}}
        vals = [cells[c] for c in columns]
        writer.writerow(
            ["" if v is None else v for v in vals[:9]]
            + ["" if v is None else f"{v:.17g}" for v in vals[9:]]
        )
    return buf.getvalue()


def run_simulation(config):
    """Monte Carlo study; returns (rows, summary) and optionally writes both.

    With ``output_path`` set, the metrics table lands there and the JSON
    summary next to it with a .json suffix.
    """
    t0 = time.perf_counter()
    cfg = config.validated()
    if cfg.mode != "simulate":
        raise ConfigError("run_simulation needs a simulate-mode config")
    if cfg.output_path:
        _check_output(cfg.output_path, f"{cfg.output_path}.json")
    d = dgp.dgp_dim(cfg.model_id)
    q = check_deriv(cfg.q, d)

    pts = _eval_points(cfg, np.array([[0.0, 1.0]] * d))
    truth_pts = dgp.dgp_eval(cfg.model_id, pts)

    args = [(cfg, rep, q, pts, truth_pts) for rep in range(cfg.replications)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_simulate_rep, args))
    else:
        results = [_simulate_rep(a) for a in args]

    rows, failures = _aggregate(cfg, results, truth_pts)
    if cfg.output_path:
        _write(cfg.output_path, metrics_csv(rows, pts.shape[0]))
    summary = _report("simulate", {
        "model": cfg.model_id,
        "n": cfg.n,
        "replications": cfg.replications,
        "selector": rows[0]["selector"],
        "family": cfg.family.value,
        "m": cfg.m,
        "j_set": list(cfg.j_set),
        "alpha": cfg.alpha,
        "hc": cfg.hc_kind.value,
        "band_method": cfg.band_method,
        "seed": cfg.seed,
        "eval_points": pts,
        "truth": truth_pts,
        "rows": rows,
        "failures": [{"rep": rep, "error": msg} for rep, msg in failures],
    }, t0, cfg.output_path and f"{cfg.output_path}.json")
    return rows, summary

