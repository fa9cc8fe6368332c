"""The benchmark's three workloads and the correctness checks on their outputs.

Each workload is one closed-loop client: the next operation starts when the
previous one returns. Inputs come from the workload seed only. Operation ``i``
(``i >= 0`` in the timed loop, ``WARMUP`` for the untimed warm-up) never
shares its input with operation ``i - 1``, so a cache keyed on the data
cannot help.

The checks are independent of the random stream the program draws from:
they compare the report with a refit through the public library API, test
dense-oracle identities, and test band quantiles and coverage against
windows that hold for any stream.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from lspart import cli, dgp, harness
from lspart.basis import BasisFamily
from lspart.fit import EstimatorKind, fit_estimator
from lspart.inference import (
    HCKind,
    make_grid,
    normal_quantile,
    pointwise_ci,
    quadratic_form,
    sigma_hat,
)
from lspart.partition import KnotRule, TensorPartition
from lspart.tuning import dpi_select, rot_select

WARMUP = -1
POOL = 4  # distinct CSVs a fit workload cycles through

# Relative tolerance for a refit and for the dense-oracle identities: far
# above roundoff, far below any real change in the numbers.
RTOL = 1e-8
# Slack on band quantiles for Monte Carlo error with B >= 1000 draws (about
# four standard errors of the 95% quantile of a supremum).
BAND_SLACK = 0.25
# Uniform coverage of mc_sim_1d is about 0.92 (nominal 0.95); the window's
# floor sits more than five binomial standard errors below it at 40 ops.
COVERAGE_FLOOR = 0.75
COVERAGE_MIN_OPS = 40

SCHEMA = "lspart/1"
FIT_KEYS = ("schema", "mode", "n", "d", "family", "m", "m_tilde", "q", "j_set",
            "alpha", "hc", "selection", "eval_points", "estimates", "band",
            "timestamp")
SIM_KEYS = ("schema", "mode", "model", "n", "replications", "selector", "j_set",
            "alpha", "hc", "eval_points", "truth", "rows", "failures", "timestamp")


def _close(a, b, rtol=RTOL):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * scale))


def hat_diagonal(A):
    """Diagonal of the hat matrix A (A'A)^+ A' from an eigendecomposition of
    A'A; the dense oracle for the program's leverage."""
    lam, V = np.linalg.eigh(A.T @ A)
    keep = lam > lam[-1] * 1e-10
    AV = A @ V[:, keep]
    return np.sum(AV**2 / lam[keep], axis=1)


def _band_quantile_problem(quantile, alpha, G):
    lo = normal_quantile(1.0 - alpha / 2.0) - BAND_SLACK
    hi = normal_quantile(1.0 - alpha / (2.0 * G)) + BAND_SLACK
    if not lo <= quantile <= hi:
        return (f"band quantile {quantile:.4f} outside the pointwise/Bonferroni "
                f"window [{lo:.4f}, {hi:.4f}] for G = {G}")
    return None


def _oracle_problems(fit, var, pts, q, j):
    """Dense-oracle identities at ``pts`` for kind ``j``."""
    out = []
    gamma = fit.gamma_many(pts, q, j)
    if not _close(fit.estimate_many(pts, q, j), gamma @ fit.rhs_for(j)):
        out.append(f"j{j}: estimate_many != gamma_many @ rhs_for")
    if not _close(var.omega_many(pts, q), quadratic_form(gamma, var.sigma_mat)):
        out.append(f"j{j}: omega_many != quadratic_form(gamma, sigma_mat)")
    if var.hc in (HCKind.HC2, HCKind.HC3):
        w = var.weights if var.hc is HCKind.HC2 else np.sqrt(var.weights)
        lev = 1.0 - 1.0 / w
        oracle = hat_diagonal(fit.design_for(j).dense())
        if not np.max(np.abs(lev - oracle)) <= 1e-7:
            out.append(f"j{j}: leverage differs from the dense hat diagonal by "
                       f"{np.max(np.abs(lev - oracle)):.3e}")
    return out


def _pointwise_problems(label, est, se, lo, hi):
    est, se, lo, hi = (np.asarray(v, dtype=float) for v in (est, se, lo, hi))
    if not all(np.all(np.isfinite(v)) for v in (est, se, lo, hi)):
        return [f"{label}: non-finite estimate, se or interval"]
    if not (np.all(se > 0) and np.all(lo < est) and np.all(est < hi)):
        return [f"{label}: need se > 0 and ci_lo < estimate < ci_hi"]
    return []


def _bounds(X):
    return np.stack([X.min(axis=0), X.max(axis=0)], axis=1)


def _refit(X, y, kappa, m, m_tilde):
    part = TensorPartition.build(KnotRule.EVEN, _bounds(X), kappa, data=X)
    kind = EstimatorKind.default(BasisFamily.BSPLINE, m, part, m_tilde)
    return fit_estimator(kind, X, y)


class SimulateWorkload:
    """One Monte Carlo replication per op through ``harness.run_simulation``."""

    # spans this workload must record, and layers it skips entirely
    calls = ("harness.run_simulation", "dgp.dgp_sample", "tuning.rot_select",
             "fit.fit_estimator", "partition.locate", "basis.eval_many",
             "fit.gram_banded", "fit.factor", "fit.solve", "fit.gamma_many",
             "fit.cross_gram", "inference.sigma_hat", "inference.omega_many",
             "inference.pointwise_ci", "inference.band_bootstrap")
    skips = ("harness.read_data", "fit.leverage", "tuning.dpi_select",
             "inference.band_plugin", "cli.main")

    def __init__(self, name, n=1000, draws=1000):
        self.name = name
        self.model = 1
        self.n = n
        self.draws = draws
        self.seed = None

    def prepare(self, seed, workdir):
        self.seed = int(seed)

    def op_seed(self, i):
        return int(np.random.SeedSequence([self.seed, i + 1]).generate_state(1)[0])

    def _config(self, i):
        return harness.RunConfig(
            mode="simulate", model_id=self.model, n=self.n, kappa="rot",
            j_set=(0, 2), band_method="bootstrap", B=self.draws,
            replications=1, seed=self.op_seed(i),
        )

    def op(self, i):
        _, summary = harness.run_simulation(self._config(i))
        return summary

    def kappa(self, summary):
        return summary["rows"][0]["kappa_mean"]

    def check(self, i, summary):
        missing = [k for k in SIM_KEYS if k not in summary]
        if missing or summary["schema"] != SCHEMA or summary["failures"]:
            return [f"summary schema: missing {missing}, failures {summary.get('failures')}"]
        problems = []
        cfg = self._config(i).validated()
        X, y = dgp.dgp_sample(self.model, self.n, np.random.default_rng([cfg.seed, 0]))
        kappa = rot_select(X, y, BasisFamily.BSPLINE, cfg.m, bounds=_bounds(X)).kappa_rot
        fit = _refit(X, y, kappa, cfg.m, None)
        pts = np.asarray(summary["eval_points"], dtype=float)
        truth = np.asarray(summary["truth"], dtype=float)
        grid = make_grid(_bounds(X), None)
        for row in summary["rows"]:
            j = row["j"]
            label = f"op {i} j{j}"
            var = sigma_hat(fit, j, cfg.hc_kind)
            pw = pointwise_ci(fit, var, pts, None, cfg.alpha)
            problems += _pointwise_problems(label, pw.estimates, pw.se, pw.ci_lo, pw.ci_hi)
            if row["kappa_mean"] != kappa:
                problems.append(f"{label}: kappa {row['kappa_mean']} != refit {kappa}")
            if not (_close(row["rmse"], np.abs(pw.estimates - truth))
                    and _close(row["il"], pw.ci_hi - pw.ci_lo)
                    and _close(row["cr"], (pw.ci_lo <= truth) & (truth <= pw.ci_hi))):
                problems.append(f"{label}: rmse/il/cr differ from the refit")
            problems += _oracle_problems(fit, var, pts, None, j)
            se_grid = np.sqrt(var.omega_many(grid) / fit.n)
            if not (math.isfinite(row["aw"]) and row["aw"] > 0):
                problems.append(f"{label}: band width {row['aw']} not positive")
                continue
            # aw = mean(2 q se(x_g)), so the band quantile q is recoverable
            msg = _band_quantile_problem(row["aw"] / (2.0 * np.mean(se_grid)),
                                         cfg.alpha, grid.shape[0])
            if msg:
                problems.append(f"{label}: {msg}")
        return problems

    def check_run(self, summaries):
        if len(summaries) < COVERAGE_MIN_OPS:
            return []
        rate = float(np.mean([row["ucr"] for s in summaries for row in s["rows"]]))
        if rate < COVERAGE_FLOOR:
            return [f"uniform coverage {rate:.3f} over {len(summaries)} ops is "
                    f"below {COVERAGE_FLOOR}"]
        return []


class FitCsvWorkload:
    """``lspart fit`` in-process through ``cli.main`` on a pool of CSVs."""

    def __init__(self, name, model, n, flags, calls, skips):
        self.name = name
        self.model = model
        self.n = n
        self.flags = list(flags)
        self.calls = calls
        self.skips = skips
        self.paths = []
        self.workdir = None

    def prepare(self, seed, workdir):
        self.workdir = workdir
        self.paths = []
        d = dgp.dgp_dim(self.model)
        header = ",".join([f"x{k + 1}" for k in range(d)] + ["y"])
        for k in range(POOL):
            X, y = dgp.dgp_sample(self.model, self.n, [int(seed), k])
            path = os.path.join(workdir, f"{self.name}_{k}.csv")
            np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g",
                       header=header, comments="")
            self.paths.append(path)

    def op(self, i):
        out = os.path.join(self.workdir, f"report_{i}.json")
        argv = ["fit", "--data", self.paths[i % POOL], *self.flags, "--out", out]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"lspart fit exited with code {code}")
        return out

    def kappa(self, out):
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)["selection"]["kappa"]

    def check(self, i, out):
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        missing = [k for k in FIT_KEYS if k not in report]
        if missing or report["schema"] != SCHEMA or report["mode"] != "fit":
            return [f"report schema: missing {missing}"]
        problems = []
        data = np.loadtxt(self.paths[i % POOL], delimiter=",", skiprows=1, ndmin=2)
        X, y = data[:, :-1], data[:, -1]
        sel = report["selection"]
        kappa = sel["kappa"]
        if sel["rule"] == "dpi":
            rerun = dpi_select(X, y, BasisFamily.BSPLINE, report["m"], bounds=_bounds(X))
            if rerun.selected() != kappa:
                problems.append(f"dpi selected {kappa}, refit selects {rerun.selected()}")
        fit = _refit(X, y, kappa, report["m"], report["m_tilde"])
        pts = np.asarray(report["eval_points"], dtype=float)
        q, alpha = tuple(report["q"]), report["alpha"]
        band = report["band"]
        for j in report["j_set"]:
            label = f"op {i} j{j}"
            got = report["estimates"][f"j{j}"]
            problems += _pointwise_problems(label, got["estimate"], got["se"],
                                            got["ci_lo"], got["ci_hi"])
            var = sigma_hat(fit, j, HCKind(report["hc"]))
            pw = pointwise_ci(fit, var, pts, q, alpha)
            if not all(_close(got[k], v) for k, v in (
                    ("estimate", pw.estimates), ("se", pw.se),
                    ("ci_lo", pw.ci_lo), ("ci_hi", pw.ci_hi))):
                problems.append(f"{label}: report differs from the refit")
            problems += _oracle_problems(fit, var, pts, q, j)
            if band is None:
                continue
            grid = np.asarray(band["grid"], dtype=float)
            b = band[f"j{j}"]
            msg = _band_quantile_problem(b["quantile"], alpha, grid.shape[0])
            if msg:
                problems.append(f"{label}: {msg}")
            est = fit.estimate_many(grid, q, j)
            half = b["quantile"] * np.sqrt(var.omega_many(grid, q) / fit.n)
            if not (_close(b["estimate"], est) and _close(b["lo"], est - half)
                    and _close(b["hi"], est + half)):
                problems.append(f"{label}: band differs from the refit")
        return problems

    def check_run(self, outputs):
        return []


def make_workload(name, tiny=False):
    """The workload called ``name``; ``tiny`` shrinks it for the self-test."""
    if name == "mc_sim_1d":
        return SimulateWorkload(name, n=300 if tiny else 1000,
                                draws=200 if tiny else 1000)
    fit_calls = ("cli.main", "harness.run_fit", "harness.read_data",
                 "fit.fit_estimator", "partition.locate", "basis.eval_many",
                 "fit.gram_banded", "fit.factor", "fit.solve", "fit.gamma_many",
                 "fit.cross_gram", "inference.sigma_hat", "inference.omega_many",
                 "inference.pointwise_ci")
    if name == "fit_csv_2d":
        return FitCsvWorkload(
            name, model=4, n=1500 if tiny else 5000,
            flags=["--kappa", "dpi", "--band", "plugin", "--grid", "16" if tiny else "20",
                   "--B", "200" if tiny else "1000"],
            calls=fit_calls + ("tuning.dpi_select", "tuning.rot_select",
                               "biascorrect.leading_bias_many",
                               "biascorrect.projected_bias_term_many",
                               "inference.sigma_mat", "inference.band_plugin"),
            skips=("fit.leverage", "inference.band_bootstrap",
                   "harness.run_simulation", "dgp.dgp_sample"),
        )
    if name == "fit_csv_3d_hc2":
        return FitCsvWorkload(
            name, model=6, n=3000 if tiny else 10000,
            flags=["--kappa", "3" if tiny else "5", "--j", "0,2", "--hc", "hc2"],
            calls=fit_calls + ("fit.leverage",),
            skips=("tuning.rot_select", "tuning.dpi_select", "inference.band_plugin",
                   "inference.band_bootstrap", "biascorrect.leading_bias_many",
                   "harness.run_simulation", "dgp.dgp_sample"),
        )
    raise KeyError(name)


WORKLOADS = ("mc_sim_1d", "fit_csv_2d", "fit_csv_3d_hc2")
