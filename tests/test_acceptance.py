"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single line

    ACCEPTANCE <k> <slug>: PASS|FAIL

before asserting, so a summary survives in captured output either way
(run with -s to stream the lines). Monte Carlo settings are scaled-down
but seeded, so every number here is reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest

import lspart.harness as harness
from lspart.basis import BasisFamily, BasisSpec
from lspart.dgp import dgp_eval, dgp_sample
from lspart.fit import EstimatorKind, fit_estimator
from lspart.harness import RunConfig, read_data, run_fit, run_simulation
from lspart.inference import (
    HCKind,
    band_bootstrap,
    band_plugin,
    make_grid,
    pointwise_ci,
    quadratic_form,
    sigma_hat,
)
from lspart.partition import KnotRule, TensorPartition
from lspart.tuning import dpi_select, eta_constant, rot_select
from oracles import polynomial_reproduction_check

MASTER = 20260816


def _report(num, slug, ok, detail=""):
    line = f"ACCEPTANCE {num} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)


def _data_bounds(X):
    return np.stack([X.min(axis=0), X.max(axis=0)], axis=1)


def test_criterion_1_basis_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng([MASTER, 1])
    worst_unity = 0.0
    worst_repro = 0.0
    for d in (1, 2):
        for m in (1, 2, 3, 4):
            kappa = 5 if d == 1 else 3
            part = TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * d, kappa)
            spec = BasisSpec(BasisFamily.BSPLINE, m, part)
            pts = rng.random((10_000, d))
            rows = spec.eval_many(pts)
            unity = np.max(np.abs(rows.values.sum(axis=1) - 1.0))
            worst_unity = max(worst_unity, float(unity))
            for degree in range(m):
                resid = polynomial_reproduction_check(spec, degree)
                worst_repro = max(worst_repro, float(resid))
    elapsed = time.perf_counter() - t0
    ok = worst_unity < 1e-12 and worst_repro < 1e-8 and elapsed < 5.0
    _report(
        1, "basis-correctness", ok,
        f"unity {worst_unity:.2e}, reproduction {worst_repro:.2e}, {elapsed:.1f}s",
    )
    assert worst_unity < 1e-12
    assert worst_repro < 1e-8
    assert elapsed < 5.0


def _dense_two_stage(fit, pts):
    """Independent dense evaluation of the projection-corrected estimate."""
    P = fit.kind.main_spec.eval_many(fit.X).dense()
    Pt = fit.kind.bc_spec.eval_many(fit.X).dense()
    n = fit.n
    Q = P.T @ P / n
    Qt = Pt.T @ Pt / n
    beta0 = np.linalg.solve(Q, P.T @ fit.y / n)
    beta1 = np.linalg.solve(Qt, Pt.T @ fit.y / n)
    mu1 = Pt @ beta1
    c = np.linalg.solve(Q, P.T @ mu1 / n)
    rows0 = fit.kind.main_spec.eval_many(pts).dense()
    rows1 = fit.kind.bc_spec.eval_many(pts).dense()
    return rows0 @ (beta0 - c) + rows1 @ beta1


def test_criterion_2_oracle_equivalences():
    rng = np.random.default_rng([MASTER, 2])

    # (a) projection correction equals the two-stage dense evaluation
    worst_a = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4)) if d == 1 else int(rng.integers(1, 3))
        family = (BasisFamily.BSPLINE, BasisFamily.PP)[int(rng.integers(2))]
        rule = (KnotRule.EVEN, KnotRule.QUANTILE)[int(rng.integers(2))]
        n = int(rng.integers(80, 201))
        while True:
            kappa = int(rng.integers(1, 5))
            probe = BasisSpec(
                family, m + 1,
                TensorPartition.build(KnotRule.EVEN, [[0.0, 1.0]] * d, kappa),
            )
            if probe.K <= 30:
                break
        X = rng.random((n, d))
        y = np.sin(3 * X.sum(axis=1)) + 0.4 * rng.standard_normal(n)
        part = TensorPartition.build(rule, _data_bounds(X), kappa, data=X)
        kind = EstimatorKind.default(family, m, part)
        fit = fit_estimator(kind, X, y)
        pts = X.min(axis=0) + rng.random((5, d)) * (X.max(axis=0) - X.min(axis=0))
        gap = np.max(np.abs(fit.estimate_many(pts, j=2) - _dense_two_stage(fit, pts)))
        worst_a = max(worst_a, float(gap))

    # (b) nested piecewise-polynomial spaces: both corrections coincide
    worst_b = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 4))
        rule = (KnotRule.EVEN, KnotRule.QUANTILE)[int(rng.integers(2))]
        n = int(rng.integers(100, 201))
        kappa = int(rng.integers(1, 5))
        X = rng.random((n, 1))
        y = np.cos(4 * X[:, 0]) + 0.3 * rng.standard_normal(n)
        part = TensorPartition.build(rule, _data_bounds(X), kappa, data=X)
        kind = EstimatorKind.default(BasisFamily.PP, m, part)
        fit = fit_estimator(kind, X, y)
        pts = np.linspace(X[:, 0].min(), X[:, 0].max(), 9)[:, None]
        gap = np.max(np.abs(fit.estimate_many(pts, j=2) - fit.estimate_many(pts, j=1)))
        worst_b = max(worst_b, float(gap))

    # (c) accumulated variance equals the dense quadratic form
    worst_c = 0.0
    for _ in range(10):
        n = int(rng.integers(150, 301))
        kappa = int(rng.integers(2, 8))
        X = rng.random((n, 1))
        y = np.sin(5 * X[:, 0]) + 0.5 * rng.standard_normal(n)
        part = TensorPartition.build(KnotRule.EVEN, _data_bounds(X), kappa)
        kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part)
        fit = fit_estimator(kind, X, y)
        pts = X.min(0) + np.linspace(0.05, 0.95, 7)[:, None] * (X.max(0) - X.min(0))
        for j in (0, 1, 2, 3):
            var = sigma_hat(fit, j)
            D = fit.design_for(j).dense()
            assert D.shape[1] <= 50
            sigma_dense = (D * var.wre2[:, None]).T @ D / n
            gamma = fit.gamma_many(pts, None, j)
            ref = quadratic_form(gamma, sigma_dense)
            got = var.omega_many(pts)
            rel = np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300))
            worst_c = max(worst_c, float(rel))

    ok = worst_a < 1e-10 and worst_b < 1e-8 and worst_c < 1e-12
    _report(
        2, "oracle-equivalences", ok,
        f"two-stage {worst_a:.2e}, nested {worst_b:.2e}, variance {worst_c:.2e}",
    )
    assert worst_a < 1e-10
    assert worst_b < 1e-8
    assert worst_c < 1e-12


def test_criterion_3_bias_correction_efficacy():
    t0 = time.perf_counter()
    R, n = 500, 1000
    est = {j: np.empty(R) for j in range(4)}
    for rep in range(R):
        rng = np.random.default_rng([MASTER, 3, rep])
        X, y = dgp_sample(1, n, rng)
        rot = rot_select(X, y, BasisFamily.BSPLINE, 2)
        part = TensorPartition.build(KnotRule.EVEN, _data_bounds(X), rot.kappa_rot)
        kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part, 3)
        fit = fit_estimator(kind, X, y)
        for j in range(4):
            est[j][rep] = fit.estimate([0.5], j=j)
    elapsed = time.perf_counter() - t0
    truth = dgp_eval(1, [0.5])[0]
    bias = {j: abs(float(np.mean(est[j])) - truth) for j in range(4)}
    ratios = {j: bias[j] / bias[0] for j in (1, 2, 3)}
    ok = all(r <= 1.1 for r in ratios.values()) and elapsed < 180.0
    _report(
        3, "bias-correction-efficacy", ok,
        "|bias|/|bias0| " + ", ".join(f"j{j}={r:.3f}" for j, r in ratios.items())
        + f", {elapsed:.0f}s",
    )
    for j in (1, 2, 3):
        assert ratios[j] <= 1.1, f"j={j}: {bias[j]:.5f} vs {bias[0]:.5f}"
    assert elapsed < 180.0


def test_criterion_4_pointwise_coverage():
    R, n = 500, 1000
    truth = dgp_eval(1, [0.5])[0]
    cov_rbc = np.empty(R, dtype=bool)
    cov_under = np.empty(R, dtype=bool)
    cov_naive = np.empty(R, dtype=bool)
    for rep in range(R):
        rng = np.random.default_rng([MASTER, 4, rep])
        X, y = dgp_sample(1, n, rng)
        k = dpi_select(X, y, BasisFamily.BSPLINE, 2).selected()
        bounds = _data_bounds(X)

        part = TensorPartition.build(KnotRule.EVEN, bounds, k)
        kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part, 3)
        fit = fit_estimator(kind, X, y)
        ci = pointwise_ci(fit, sigma_hat(fit, 2), [[0.5]])
        cov_rbc[rep] = ci.ci_lo[0] <= truth <= ci.ci_hi[0]
        ci0 = pointwise_ci(fit, sigma_hat(fit, 0), [[0.5]])
        cov_naive[rep] = ci0.ci_lo[0] <= truth <= ci0.ci_hi[0]

        part_u = TensorPartition.build(KnotRule.EVEN, bounds, 2 * k)
        fit_u = fit_estimator(
            EstimatorKind(BasisSpec(BasisFamily.BSPLINE, 2, part_u)), X, y
        )
        ci_u = pointwise_ci(fit_u, sigma_hat(fit_u, 0), [[0.5]])
        cov_under[rep] = ci_u.ci_lo[0] <= truth <= ci_u.ci_hi[0]

    cr_rbc = float(cov_rbc.mean())
    cr_under = float(cov_under.mean())
    cr_naive = float(cov_naive.mean())  # reported only: may undercover
    ok = 0.92 <= cr_rbc <= 0.975 and 0.92 <= cr_under <= 0.975
    _report(
        4, "pointwise-coverage", ok,
        f"corrected {cr_rbc:.3f}, undersmoothed {cr_under:.3f}, "
        f"uncorrected-at-selected-size {cr_naive:.3f} (not asserted)",
    )
    assert 0.92 <= cr_rbc <= 0.975
    assert 0.92 <= cr_under <= 0.975


def test_criterion_5_uniform_coverage():
    t0 = time.perf_counter()
    R, n = 500, 1000
    ucr_p = np.empty(R, dtype=bool)
    ucr_b = np.empty(R, dtype=bool)
    for rep in range(R):
        rng = np.random.default_rng([MASTER, 5, rep])
        X, y = dgp_sample(1, n, rng)
        k = dpi_select(X, y, BasisFamily.BSPLINE, 2).selected()
        bounds = _data_bounds(X)
        part = TensorPartition.build(KnotRule.EVEN, bounds, k)
        kind = EstimatorKind.default(BasisFamily.BSPLINE, 2, part, 3)
        fit = fit_estimator(kind, X, y)
        var = sigma_hat(fit, 2)
        grid = make_grid(bounds, 100)
        truth = dgp_eval(1, grid)
        bp = band_plugin(fit, var, grid, draws=1000, seed=(MASTER, 5, rep, 1))
        bb = band_bootstrap(fit, var, grid, draws=1000, seed=(MASTER, 5, rep, 2))
        ucr_p[rep] = bp.covers(truth).all()
        ucr_b[rep] = bb.covers(truth).all()
    elapsed = time.perf_counter() - t0
    up, ub = float(ucr_p.mean()), float(ucr_b.mean())
    ok = 0.90 <= up <= 0.99 and abs(ub - up) <= 0.03 and elapsed < 900.0
    _report(
        5, "uniform-coverage", ok,
        f"plugin {up:.3f}, bootstrap {ub:.3f}, {elapsed:.0f}s",
    )
    assert 0.90 <= up <= 0.99
    assert abs(ub - up) <= 0.03
    assert elapsed < 900.0


def test_criterion_6_variance_consistency():
    R, n = 1000, 2000
    mu = np.empty(R)
    om = np.empty(R)
    for rep in range(R):
        rng = np.random.default_rng([MASTER, 6, rep])
        X, y = dgp_sample(1, n, rng)
        part = TensorPartition.build(KnotRule.EVEN, _data_bounds(X), 8)
        fit = fit_estimator(
            EstimatorKind(BasisSpec(BasisFamily.BSPLINE, 2, part)), X, y
        )
        mu[rep] = fit.estimate([0.5], j=0)
        om[rep] = sigma_hat(fit, 0, HCKind.HC0).omega_many([[0.5]])[0]
    mc_var = float(np.var(mu, ddof=1))
    mean_pred = float(np.mean(om)) / n
    ratio = mean_pred / mc_var
    ok = abs(ratio - 1.0) <= 0.15
    _report(6, "variance-consistency", ok, f"predicted/actual {ratio:.3f}")
    assert abs(ratio - 1.0) <= 0.15


def test_criterion_7_imse_rate():
    R = 200
    NS = (500, 2000, 8000)
    kappa_grid = list(range(1, 15))
    grid = np.linspace(0.0, 1.0, 101)[:, None]
    truth = dgp_eval(1, grid)
    med_emp, med_dpi = [], []
    for n in NS:
        best = np.empty(R)
        kd = np.empty(R)
        for rep in range(R):
            rng = np.random.default_rng([MASTER, 7, n, rep])
            X, y = dgp_sample(1, n, rng)
            bounds = _data_bounds(X)
            inside = (grid[:, 0] >= bounds[0, 0]) & (grid[:, 0] <= bounds[0, 1])
            ise = np.empty(len(kappa_grid))
            for c, k in enumerate(kappa_grid):
                part = TensorPartition.build(KnotRule.EVEN, bounds, k)
                fit = fit_estimator(
                    EstimatorKind(BasisSpec(BasisFamily.BSPLINE, 2, part)), X, y
                )
                err = fit.estimate_many(grid[inside]) - truth[inside]
                ise[c] = np.mean(err**2)
            best[rep] = kappa_grid[int(np.argmin(ise))]
            kd[rep] = dpi_select(X, y, BasisFamily.BSPLINE, 2).selected()
        med_emp.append(float(np.median(best)))
        med_dpi.append(float(np.median(kd)))
    assert max(med_emp) < kappa_grid[-1]  # argmin not clipped at the grid edge
    ln = np.log(NS)
    slope_emp = float(np.polyfit(ln, np.log(med_emp), 1)[0])
    slope_dpi = float(np.polyfit(ln, np.log(med_dpi), 1)[0])
    ok = 0.12 <= slope_emp <= 0.28 and 0.12 <= slope_dpi <= 0.28
    _report(
        7, "imse-rate", ok,
        f"empirical slope {slope_emp:.3f}, plug-in slope {slope_dpi:.3f}, "
        f"medians {med_emp} / {med_dpi}",
    )
    assert 0.12 <= slope_emp <= 0.28, f"empirical slope {slope_emp:.3f}"
    # The plug-in bias constant averages squared derivative estimates from
    # a pilot fit, so it is consistent only if the pilot's sampling variance
    # vanishes relative to the squared bias. A pilot at kappa_rot ~
    # n^(1/(2m+d)) leaves that ratio O(1): B_hat came out ~11x too large at
    # n=500 and ~1.6x at n=8000, which flattened the slope to ~0.066. The
    # selector therefore sizes its pilot at ceil(kappa_rot^((2m+d)/(2m+d+2)))
    # cells, which grows like n^(1/(2m+d+2)); the slope is then ~0.15.
    assert 0.12 <= slope_dpi <= 0.28, f"plug-in slope {slope_dpi:.3f}"


def test_criterion_8_eta_constants():
    a = eta_constant(BasisFamily.BSPLINE, 2, (2,), (2,))
    b = eta_constant(BasisFamily.PP, 1, (1,), (1,))
    gap_a = abs(a - 1.0 / 720.0)
    gap_b = abs(b - 1.0 / 12.0)
    ok = gap_a < 1e-10 and gap_b < 1e-10
    _report(8, "eta-constants", ok, f"spline {gap_a:.2e}, polynomial {gap_b:.2e}")
    assert gap_a < 1e-10
    assert gap_b < 1e-10


def test_criterion_9_determinism(tmp_path):
    rng = np.random.default_rng([MASTER, 9])
    X = rng.random((200, 1))
    y = np.sin(3 * X[:, 0]) + 0.3 * rng.standard_normal(200)
    data = tmp_path / "d.csv"
    lines = ["x1,y"] + [
        f"{float(a)!r},{float(b)!r}" for a, b in zip(X[:, 0], y)
    ]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")

    fit_cfg = dict(
        mode="fit", data_path=str(data), kappa=4, seed=11,
        band_method="plugin", B=200, grid_size=20, j_set=(0, 2),
    )
    a = run_fit(RunConfig(**fit_cfg))
    b = run_fit(RunConfig(**fit_cfg))
    a.pop("timestamp")
    b.pop("timestamp")
    fit_same = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    sim_cfg = dict(
        mode="simulate", model_id=1, n=200, replications=8, kappa=3,
        j_set=(0, 2), seed=13, band_method="bootstrap", B=150, grid_size=10,
    )
    rows_serial, s1 = run_simulation(RunConfig(**sim_cfg, jobs=1))
    rows_par, s2 = run_simulation(RunConfig(**sim_cfg, jobs=2))
    s1.pop("timestamp")
    s2.pop("timestamp")
    sim_same = json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)
    rows_same = json.dumps(harness._pyify(rows_serial)) == json.dumps(
        harness._pyify(rows_par)
    )

    ok = fit_same and sim_same and rows_same
    _report(
        9, "determinism", ok,
        f"fit {fit_same}, summary {sim_same}, metrics {rows_same}",
    )
    assert fit_same
    assert sim_same
    assert rows_same
