"""End-to-end acceptance gate.

Each test prints one ``ACCEPTANCE n: PASS/FAIL - detail`` line on the real
stdout (so the lines survive pytest capture) and then asserts. Budgets are
enforced with wall-clock checks; the Monte-Carlo criteria run far under
their targets on commodity hardware.
"""

import math
import sys
import time

import numpy as np
import pytest
import scipy.integrate
from conftest import report_acceptance

from condbands import (
    EstimatorConfig,
    InsufficientLocalData,
    bochner_check,
    cdf_band,
    cdf_estimate,
    coverage_experiment,
    draw,
    draw_conditional,
    em_constant_experiment,
    KERNELS,
    get_kernel,
    local_weights,
    reference_bandwidth,
    sim_model,
    sup_experiment,
    true_cdf,
    true_quantile,
    true_regression,
)

M1 = sim_model("m1")
M2 = sim_model("m2")
EPA = get_kernel("epanechnikov")


def _report(num: int, passed: bool, detail: str) -> bool:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {detail}"
    report_acceptance(line)
    print(line, file=sys.__stdout__, flush=True)
    return passed


def test_criterion_01_weight_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    names = sorted(KERNELS)
    checked = 0
    worst_sum = 0.0
    worst_first = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 201))
        kernel = get_kernel(names[rng.integers(len(names))])
        order = int(rng.integers(0, 3))
        h = float(rng.uniform(0.05, 0.95))
        cfg = EstimatorConfig(kernel=kernel, bandwidth=h, order=order)
        xs = rng.normal(size=n)
        ys = rng.random(size=n)
        x = float(rng.uniform(-1.5, 1.5))
        from condbands import Sample

        sample = Sample(xs=xs, ys=ys)
        try:
            lw = local_weights(sample, x, cfg)
        except InsufficientLocalData:
            continue
        checked += 1
        u = (x - xs) / h
        worst_sum = max(worst_sum, abs(lw.weights.sum() - 1.0))
        if order >= 1:
            worst_first = max(worst_first, abs(float(lw.weights @ u)))
    elapsed = time.perf_counter() - start
    ok = checked >= 100 and worst_sum <= 1e-10 and worst_first <= 1e-10 and elapsed < 10
    assert _report(
        1, ok,
        f"{checked}/200 weight vectors, max|sum-1|={worst_sum:.2e}, "
        f"max|first moment|={worst_first:.2e}, {elapsed:.1f}s (<10s)",
    )


def test_criterion_02_wls_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    names = sorted(KERNELS)
    done = 0
    worst = 0.0
    attempts = 0
    while done < 100 and attempts < 500:
        attempts += 1
        n = int(rng.integers(30, 400))
        kernel = get_kernel(names[rng.integers(len(names))])
        h = float(rng.uniform(0.15, 0.6))
        cfg = EstimatorConfig(kernel=kernel, bandwidth=h, order=1)
        xs = rng.uniform(-1.5, 1.5, size=n)
        ys = rng.random(size=n)
        x = float(rng.uniform(-1.0, 1.0))
        t = float(rng.random())
        from condbands import Sample

        sample = Sample(xs=xs, ys=ys)
        d = xs - x
        k = kernel.eval(-d / h)
        a00, a01, a11 = k.sum(), float(k @ d), float(k @ (d * d))
        gram = np.array([[a00, a01], [a01, a11]])
        if abs(np.linalg.det(gram)) < 1e-10:
            continue
        z = (ys <= t).astype(float)
        rhs = np.array([float(k @ z), float(k @ (d * z))])
        intercept = float(np.linalg.solve(gram, rhs)[0])
        try:
            est = cdf_estimate(sample, x, t, cfg)
        except InsufficientLocalData:
            continue
        done += 1
        worst = max(worst, abs(est - intercept))
    elapsed = time.perf_counter() - start
    ok = done == 100 and worst <= 1e-9 and elapsed < 10
    assert _report(
        2, ok,
        f"{done} order-1 fits vs direct 2x2 solve, max gap={worst:.2e} "
        f"(tol 1e-9), {elapsed:.1f}s (<10s)",
    )


def test_criterion_03_exact_constants():
    start = time.perf_counter()
    worst = 0.0
    for name in sorted(KERNELS):
        kernel = get_kernel(name)
        a, b = kernel.support if kernel.support is not None else (-np.inf, np.inf)
        l2_quad, _ = scipy.integrate.quad(lambda u: kernel.eval(u) ** 2, a, b)
        worst = max(worst, abs(kernel.l2_norm_sq - l2_quad))
        for j in range(5):
            mom_quad, _ = scipy.integrate.quad(
                lambda u, j=j: (u ** j) * kernel.eval(u), a, b
            )
            worst = max(worst, abs(kernel.moments[j] - mom_quad))
    phi_1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    theta = math.sqrt(EPA.l2_norm_sq) / math.sqrt(2.0 * phi_1)
    theta_gap = abs(theta - 1.1135)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and theta_gap <= 1e-3 and elapsed < 60
    assert _report(
        3, ok,
        f"kernel constants vs quadrature max gap={worst:.2e} (tol 1e-9), "
        f"theta={theta:.6f} vs 1.1135 (gap {theta_gap:.2e}), {elapsed:.1f}s (<60s)",
    )


def test_criterion_04_band_nesting_and_clipping():
    start = time.perf_counter()
    sample = draw(M1, 500, 42)
    cfg = EstimatorConfig(
        kernel=EPA, bandwidth=reference_bandwidth(500), order=1
    )
    grid = np.linspace(-1.0, 1.0, 41)
    eps = 0.5
    table = cdf_band(sample, grid, "jumps", cfg, epsilon=eps, clip=True)
    rows = len(table)
    base = table.halfwidth / (1.0 + eps)
    lo_minus = np.clip(table.estimate - (1.0 - eps) * base, 0.0, 1.0)
    hi_minus = np.clip(table.estimate + (1.0 - eps) * base, 0.0, 1.0)
    in_unit = bool(
        np.all(table.lower >= 0.0) and np.all(table.upper <= 1.0)
        and np.all(table.lower <= table.upper)
    )
    nested = bool(np.all(table.lower <= lo_minus) and np.all(hi_minus <= table.upper))
    zero_eps = cdf_band(sample, grid, "jumps", cfg, epsilon=0.0, clip=True)
    same_estimates = np.array_equal(zero_eps.estimate, table.estimate)
    inner = bool(
        np.all(table.lower <= zero_eps.lower) and np.all(zero_eps.upper <= table.upper)
    )
    elapsed = time.perf_counter() - start
    ok = rows > 1000 and in_unit and nested and same_estimates and inner
    assert _report(
        4, ok,
        f"{rows} rows over 41-point grid: clipped in [0,1]={in_unit}, "
        f"(1-eps) inside (1+eps)={nested and inner}, {elapsed:.1f}s",
    )


def test_criterion_05_sup_statistic_trend():
    start = time.perf_counter()
    meds = {}
    gaps = {}
    for n in (200, 5000):
        cfg = EstimatorConfig(kernel=EPA, bandwidth=reference_bandwidth(n), order=1)
        report = sup_experiment(M1, n, 50, cfg, seed=7, workers=2)
        summary = report.summaries[0]
        meds[n] = summary["stochastic_error"]["median"]
        gaps[n] = summary["stochastic_abs_gap"]["median"]
    elapsed = time.perf_counter() - start
    ok = 0.4 <= meds[5000] <= 2.5 and gaps[5000] <= gaps[200] and elapsed < 600
    assert _report(
        5, ok,
        f"median stochastic sup stat: n=200 {meds[200]:.3f}, n=5000 {meds[5000]:.3f} "
        f"(bracket [0.4,2.5]); median |stat-1|: {gaps[200]:.3f} -> {gaps[5000]:.3f}; "
        f"{elapsed:.1f}s (<600s)",
    )


def test_criterion_06_coverage_trend():
    start = time.perf_counter()
    cov = {}
    nesting = {}
    for n in (200, 2000):
        cfg = EstimatorConfig(kernel=EPA, bandwidth=reference_bandwidth(n), order=1)
        report = coverage_experiment(M1, n, 100, 0.5, cfg, seed=11, workers=2)
        cov[n] = report.summaries[0]["upper_coverage"]
        nesting[n] = report.flags["nesting_holds_every_rep"]
    elapsed = time.perf_counter() - start
    ok = cov[2000] >= cov[200] and all(nesting.values()) and elapsed < 600
    assert _report(
        6, ok,
        f"simultaneous 1.5-band coverage: n=200 {cov[200]:.2f} -> n=2000 {cov[2000]:.2f} "
        f"(monotone), nesting every rep={all(nesting.values())}, {elapsed:.1f}s (<600s)",
    )


def test_criterion_07_small_bandwidth_limits():
    start = time.perf_counter()
    h_seq = (0.4, 0.2, 0.1, 0.05)
    report = bochner_check(M1, 0.0, h_seq, EPA, t=0.5)
    first = report.summaries[0]["residuals"]
    last = report.summaries[-1]["residuals"]
    even_keys = ("density_moment_0", "density_moment_2", "response_moment_0")
    improves = all(last[k] < first[k] for k in even_keys)
    odd_keys = ("density_moment_1", "response_moment_1")
    odd_small = all(
        s["residuals"][k] < 1e-6 for s in report.summaries for k in odd_keys
    )
    elapsed = time.perf_counter() - start
    ok = improves and odd_small and report.flags["odd_moments_negligible"] and elapsed < 60
    assert _report(
        7, ok,
        f"even-moment residuals shrink from h=0.4 to h=0.05 ({improves}), "
        f"odd moments < 1e-6 at every h ({odd_small}), {elapsed:.1f}s (<60s)",
    )


def test_criterion_08_normalized_sup_constant():
    start = time.perf_counter()
    n = 5000
    cfg = EstimatorConfig(kernel=EPA, bandwidth=reference_bandwidth(n), order=0)
    report = em_constant_experiment(M1, n, 30, cfg, seed=3, workers=2)
    theta = report.reference["value"]
    med0 = report.summaries[0]["order0"]["median"]
    ratio = med0 / theta
    elapsed = time.perf_counter() - start
    ok = 0.5 <= ratio <= 2.0 and abs(theta - 1.1135) <= 1e-3 and elapsed < 900
    assert _report(
        8, ok,
        f"median normalized sup {med0:.3f} vs theta {theta:.4f} "
        f"(ratio {ratio:.2f}, factor-2 bracket), {elapsed:.1f}s (<900s)",
    )


def _ecdf_sup_gap(model, x, ys):
    order = np.sort(ys)
    n = order.size
    right = np.abs(true_cdf(model, x, order) - np.arange(1, n + 1) / n)
    left = np.abs(true_cdf(model, x, order) - np.arange(0, n) / n)
    return float(max(right.max(), left.max()))


def test_criterion_09_closed_forms_vs_simulation():
    start = time.perf_counter()
    n = 100_000
    alphas = np.linspace(0.1, 0.9, 9)
    worst_cdf = worst_mean = worst_q = 0.0
    for model in (M1, M2):
        for x in (0.0, 1.0):
            ys = draw_conditional(model, x, n, seed=31)
            if model.kind == "m2" and x == 0.0:
                # the conditional law is a unit atom at zero
                atom_ok = (
                    bool(np.all(ys == 0.0))
                    and true_cdf(model, 0.0, np.array([0.0]))[0] == 1.0
                    and true_cdf(model, 0.0, np.array([-1e-12]))[0] == 0.0
                    and true_quantile(model, 0.0, 0.5) == 0.0
                    and true_regression(model, 0.0) == 0.0
                )
                assert atom_ok
                continue
            worst_cdf = max(worst_cdf, _ecdf_sup_gap(model, x, ys))
            worst_mean = max(
                worst_mean, abs(float(ys.mean()) - true_regression(model, x))
            )
            emp_q = np.quantile(ys, alphas)
            true_q = np.array([true_quantile(model, x, a) for a in alphas])
            worst_q = max(worst_q, float(np.abs(emp_q - true_q).max()))
    elapsed = time.perf_counter() - start
    ok = worst_cdf <= 0.01 and worst_mean <= 0.01 and worst_q <= 0.01 and elapsed < 60
    assert _report(
        9, ok,
        f"closed forms vs {n} draws: sup cdf gap {worst_cdf:.4f}, mean gap "
        f"{worst_mean:.4f}, quantile gap {worst_q:.4f} (all <= 0.01), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_10_parallel_determinism():
    start = time.perf_counter()
    cfg = EstimatorConfig(kernel=EPA, bandwidth=reference_bandwidth(300), order=1)
    runs = [
        coverage_experiment(M1, 300, 6, 0.5, cfg, seed=123, workers=w).to_json()
        for w in (1, 3, 1)
    ]
    sup_runs = [
        sup_experiment(M1, 200, 4, cfg, seed=9, workers=w).to_json()
        for w in (1, 2)
    ]
    em_runs = [
        em_constant_experiment(M1, 200, 3, cfg, seed=4, workers=w).to_json()
        for w in (1, 2)
    ]
    identical = (
        len(set(runs)) == 1 and len(set(sup_runs)) == 1 and len(set(em_runs)) == 1
    )
    elapsed = time.perf_counter() - start
    assert _report(
        10, identical,
        f"coverage/sup/em reports byte-identical across worker counts "
        f"and reruns, {elapsed:.1f}s",
    )
