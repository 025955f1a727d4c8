import json
import math
import re
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from conftest import counting_kernel
from scipy.integrate import quad

import condbands.experiments
import condbands.simulation
from condbands import (
    EstimatorConfig,
    InsufficientLocalData,
    InvalidBandwidth,
    QuadratureFailure,
    band_halfwidth,
    bochner_check,
    cdf_band,
    cdf_curve,
    centering_curve,
    centering_oracle,
    coverage_experiment,
    draw,
    em_constant_experiment,
    get_kernel,
    marginal_density,
    oracle_density_provider,
    quantile_band,
    reference_bandwidth,
    regression_band,
    sim_model,
    smoothed_moment,
    sup_experiment,
    true_cdf,
)
from condbands.bands import fit_grid
from condbands.experiments import (
    _normalized_sups,
    _reference_rows,
    _step_sup_deviations,
    _sup_scale,
    step_sup_deviation,
)

EPA = get_kernel("epanechnikov")
UNI = get_kernel("uniform")
M1 = sim_model("m1")
M2 = sim_model("m2")
PHI_1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)


def cfg(kernel=EPA, h=0.3, order=1):
    return EstimatorConfig(kernel=kernel, bandwidth=h, order=order)


def _sup_statistic(sample, model, c, grid, reference):
    """Sup over the grid and all t of |estimate - reference| / L(x), the
    statistic of sup_experiment; ``reference`` is None for the truth and p
    for the order-p centering."""
    orders = () if reference is None else (reference,)
    rows = _reference_rows(model, c, reference is None, orders)
    return _normalized_sups(sample, grid, c, rows)[0]


def _em_statistic(sample, model, c, grid, order):
    """sqrt(n h / log(1/h)) times the sup deviation of the order-``order``
    fit from its centering, the statistic of em_constant_experiment."""
    rows = _reference_rows(model, c, False, (order,))

    def deviation(x, fit, half):
        curve = fit.curve(sample, monotonize=False)
        return _step_sup_deviations(curve.values[None], rows(x, curve.jump_ts))[0]

    devs, _ = fit_grid(sample, grid, replace(c, order=order), deviation)
    return _sup_scale(sample.n, c.bandwidth) * float(max(devs))


# ---------------------------------------------------------------------------
# Quadrature centering
# ---------------------------------------------------------------------------

def test_centering_extreme_t():
    c = cfg()
    for order in (0, 1):
        assert centering_oracle(M1, 0.0, 2.0, c, order) == pytest.approx(1.0, abs=1e-10)
        assert centering_oracle(M1, 0.0, -1.0, c, order) == pytest.approx(0.0, abs=1e-10)


def test_centering_monotone_in_h():
    # at x = 0 the m1 conditional law is uniform; smoothing mixes in
    # neighbours whose distribution lies above, so the centering exceeds
    # 0.5 and shrinks toward it with the bandwidth
    vals = []
    for h in (0.4, 0.2, 0.1):
        c = EstimatorConfig(kernel=EPA, bandwidth=h, order=0)
        vals.append(centering_oracle(M1, 0.0, 0.5, c, 0))
    assert all(v > 0.5 for v in vals)
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] == pytest.approx(0.5, abs=5e-3)


def test_centering_order_validation():
    with pytest.raises(ValueError):
        centering_oracle(M1, 0.0, 0.5, cfg(order=2))
    with pytest.raises(ValueError):
        centering_curve(M1, 0.0, np.array([0.5]), EPA, 0.3, 2)
    with pytest.raises(InvalidBandwidth):
        smoothed_moment(M1, EPA, 1.0, 0.0, 0)
    with pytest.raises(InvalidBandwidth):
        smoothed_moment(M1, EPA, 1.5, 0.0, 0, 0.5)
    with pytest.raises(InvalidBandwidth):
        centering_curve(M1, 0.0, np.array([0.5]), EPA, 1.0, 1)


def test_centering_refuses_a_location_without_design_mass():
    # f_X(x - h u) underflows to 0 across the window at x = 40; at x = 36 the
    # smoothed moments are near 1e-280, so m0 m2 - m1^2 underflows to 0
    with pytest.raises(InsufficientLocalData, match=r"^smoothed density vanishes at x = 40$"):
        centering_oracle(M1, 40, 0.5, cfg(order=0))
    with pytest.raises(InsufficientLocalData, match=r"^smoothed moment matrix degenerate at x = 36$"):
        centering_oracle(M1, 36, 0.5, cfg(order=1))
    with pytest.raises(InsufficientLocalData, match=r"^smoothed density vanishes at x = 40\.0$"):
        centering_curve(M1, 40.0, np.array([0.5]), EPA, 0.3, 0)


@pytest.mark.parametrize("value,err", [(0.5, 2e-8), (math.nan, 0.0)], ids=["error", "nan"])
def test_quadrature_failure_is_reported(monkeypatch, value, err):
    monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kwargs: (value, err))
    tail = re.escape(f" quadrature error {err:.2e} exceeds 1e-08")
    with pytest.raises(QuadratureFailure, match=f"^moment{tail}$"):
        smoothed_moment(M1, EPA, 0.3, 0.0, 0)
    with pytest.raises(QuadratureFailure, match=f"^response{tail}$"):
        smoothed_moment(M1, EPA, 0.3, 0.0, 1, 0.5)
    with pytest.raises(QuadratureFailure):
        centering_oracle(M1, 0.0, 0.5, cfg())


@pytest.mark.parametrize("kernel", [EPA, UNI, get_kernel("gaussian")])
@pytest.mark.parametrize("order", [0, 1])
def test_centering_curve_matches_adaptive_quadrature(kernel, order):
    ts = np.array([0.1, 0.35, 0.5, 0.8])
    c = EstimatorConfig(kernel=kernel, bandwidth=0.3, order=order)
    fast = centering_curve(M1, 0.3, ts, kernel, 0.3, order)
    slow = np.array([centering_oracle(M1, 0.3, t, c, order) for t in ts])
    assert np.abs(fast - slow).max() <= 1e-10


@pytest.mark.parametrize("kernel", [EPA, UNI], ids=["epanechnikov", "uniform"])
@pytest.mark.parametrize("order", [0, 1])
def test_centering_curve_matches_the_oracle_in_the_far_tail(kernel, order):
    # far out f_X falls steeply across the window, so the raw node masses
    # are tiny: the centering weights must come from masses that sum to one,
    # or the fit's absolute degeneracy gate rejects the location
    ts = np.array([0.01, 0.05, 0.1, 0.35, 0.8])
    c = EstimatorConfig(kernel=kernel, bandwidth=0.3, order=order)
    for x in (3.0, 5.0, 6.0):
        fast = centering_curve(M1, x, ts, kernel, 0.3, order)
        slow = np.array([centering_oracle(M1, x, t, c, order) for t in ts])
        assert np.abs(fast - slow).max() <= 1e-10


def test_centering_curve_m2_within_loose_tolerance():
    # the m2 conditional law has kinks, so the fixed-order rule is only
    # approximate there; the adaptive path stays authoritative
    ts = np.array([-0.2, 0.1, 0.4])
    c = EstimatorConfig(kernel=EPA, bandwidth=0.3, order=1)
    fast = centering_curve(M2, 0.7, ts, EPA, 0.3, 1)
    slow = np.array([centering_oracle(M2, 0.7, t, c, 1) for t in ts])
    assert np.abs(fast - slow).max() <= 1e-3


@pytest.mark.parametrize("j", [0, 1])
def test_m2_smoothed_response_matches_quadrature_split_at_the_kinks(j):
    # |x - h u| meets t at u = -0.2 and u = 0.6, and 0 at u = 0.2: all
    # three kinks of the m2 law lie inside the kernel support (-1, 1)
    x, h, t = 0.1, 0.5, 0.2
    kinks = [(x - t) / h, x / h, (x + t) / h]
    assert all(-1.0 < u < 1.0 for u in kinks)

    def integrand(u):
        v = abs(x - h * u)
        cdf = 1.0 if v == 0.0 else min(max((t + v) / (2.0 * v), 0.0), 1.0)
        return u ** j * EPA.eval(u) * marginal_density(M2, x - h * u) * cdf

    expected, _ = quad(integrand, -1.0, 1.0, points=kinks, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert smoothed_moment(M2, EPA, h, x, j, t) == pytest.approx(expected, rel=0, abs=1e-12)


def test_centering_matches_monte_carlo():
    # the smoothed moments are expectations of the plug-in terms; check
    # them against a large direct average within three standard errors
    h, x, t = 0.3, 0.3, 0.5
    rng = np.random.default_rng(2024)
    n = 1_000_000
    sample = draw(M1, n, rng)
    u = (x - sample.xs) / h
    k_vals = EPA.eval(u) / h
    m0_terms = k_vals
    r0_terms = k_vals * (sample.ys <= t)
    for terms, target in (
        (m0_terms, smoothed_moment(M1, EPA, h, x, 0)),
        (r0_terms, smoothed_moment(M1, EPA, h, x, 0, t)),
    ):
        se = terms.std() / math.sqrt(n)
        assert abs(terms.mean() - target) <= 3.0 * se


# ---------------------------------------------------------------------------
# Sup statistics
# ---------------------------------------------------------------------------

def test_step_sup_deviation_hand_case():
    values = np.array([0.5, 1.0])
    refs = np.array([0.2, 0.7])
    # right sides give 0.3 twice, left limits give 0.2 and 0.2
    assert step_sup_deviation(values, refs) == pytest.approx(0.3, abs=1e-15)
    # a reference crossing between jumps is caught through the left limit
    assert step_sup_deviation(np.array([1.0]), np.array([0.9])) == pytest.approx(0.9)


def _naive_step_sup(values, refs):
    """step_sup_deviation with Python floats, one point at a time."""
    best, prev = 0.0, 0.0
    for v, r in zip(values.tolist(), refs.tolist()):
        best = max(best, abs(v - r), abs(prev - r))
        prev = v
    return best


def test_step_sup_deviations_are_the_naive_sups_bit_for_bit():
    # the stacked pass against several references, with one curve per
    # reference or one curve for all of them, gives each pair's own sup
    rng = np.random.default_rng(5)
    # at the second jump the left limit 0.2 is furthest from the reference
    assert step_sup_deviation(np.array([0.2, 0.9]), np.array([0.1, 0.8])) == abs(0.2 - 0.8)
    for size in (1, 2, 7, 400):
        values = rng.uniform(-0.2, 1.2, size=(3, size))
        refs = rng.random((3, size))
        stacked = _step_sup_deviations(values, refs)
        shared = _step_sup_deviations(values[:1], refs)
        for i in range(3):
            assert stacked[i] == _naive_step_sup(values[i], refs[i])
            assert shared[i] == _naive_step_sup(values[0], refs[i])
            assert step_sup_deviation(values[i], refs[i]) == stacked[i]


def test_step_sup_deviation_matches_brute_force():
    rng = np.random.default_rng(77)
    sample = draw(M1, 300, rng)
    from condbands import cdf_curve, true_cdf

    curve = cdf_curve(sample, 0.0, cfg(h=0.35, order=0), monotonize=False)
    refs = true_cdf(M1, 0.0, curve.jump_ts)
    exact = step_sup_deviation(curve.values, refs)
    t_scan = np.linspace(-0.1, 1.1, 20001)
    brute = np.abs(curve.value_at(t_scan) - true_cdf(M1, 0.0, t_scan)).max()
    assert brute <= exact + 1e-12
    assert exact - brute <= 1e-3


def test_normalized_sups_divide_each_location_by_its_halfwidth():
    # per reference row, the largest deviation-to-halfwidth ratio over the
    # kept locations, as the public functions give it location by location;
    # -6 lies outside every window and is skipped, and a grid with no kept
    # location is refused
    sample = draw(M1, 300, 11)
    c = cfg(h=reference_bandwidth(300))
    grid = np.array([-6.0, -0.5, 0.0, 0.5])
    truth = _reference_rows(M1, c, True, ())

    def rows(x, ts):
        return np.concatenate([truth(x, ts), np.zeros((1, ts.size))])

    ratios = {0: [], 1: []}
    for x in grid[1:]:
        curve = cdf_curve(sample, x, c, monotonize=False)
        half = band_halfwidth(sample, x, c)
        ratios[0].append(step_sup_deviation(curve.values, true_cdf(M1, x, curve.jump_ts)) / half)
        ratios[1].append(step_sup_deviation(curve.values, np.zeros(curve.values.size)) / half)
    assert _normalized_sups(sample, grid, c, rows) == (max(ratios[0]), max(ratios[1]), 1)
    with pytest.raises(InsufficientLocalData, match="every grid location"):
        _normalized_sups(sample, [-6.0, 6.0], c, rows)


def test_sup_statistic_permutation_invariant():
    sample = draw(M1, 400, 13)
    rng = np.random.default_rng(0)
    perm = rng.permutation(sample.n)
    from condbands import Sample

    shuffled = Sample(xs=sample.xs[perm], ys=sample.ys[perm])
    c = cfg(h=reference_bandwidth(400))
    grid = np.linspace(-1, 1, 11)
    a = _sup_statistic(sample, M1, c, grid, None)
    b = _sup_statistic(shuffled, M1, c, grid, None)
    assert a == pytest.approx(b, rel=1e-12)


def _recomputed_sups(model, sample, c, grid, order):
    """Sup over the grid of each location's deviations from the truth and
    from the order-``order`` centering, over the half-width, recomputed
    location by location with the public functions."""
    truth, centering = [], []
    for x in grid:
        curve = cdf_curve(sample, x, c, monotonize=False)
        half = band_halfwidth(sample, x, c)
        truth.append(step_sup_deviation(curve.values, true_cdf(model, x, curve.jump_ts)) / half)
        refs = centering_curve(model, x, curve.jump_ts, c.kernel, c.bandwidth, order)
        centering.append(step_sup_deviation(curve.values, refs) / half)
    return max(truth), max(centering)


@pytest.mark.parametrize("model", [M1, M2], ids=["m1", "m2"])
@pytest.mark.parametrize("order", [0, 1])
def test_sup_statistic_equals_a_per_location_recomputation(model, order):
    # each location's references, also where sup_experiment asks for both at
    # once and reuses its centerings over replications, must be the values
    # the public functions give location by location; in the uniform case,
    # m1's truth at x = 1 read from a many-row matrix is 1 ulp away from
    # true_cdf and moves the total error
    grid = np.linspace(-1.0, 1.0, 7)
    reps = 3
    for kernel, n, seed in ((EPA, 400, 21), (UNI, 150, 40)):
        c = cfg(kernel, h=reference_bandwidth(n), order=order)
        totals, stochs = [], []
        for r in range(reps):
            sample = draw(model, n, np.random.SeedSequence(seed, spawn_key=(r,)))
            total, stoch = _recomputed_sups(model, sample, c, grid, order)
            assert _sup_statistic(sample, model, c, grid, None) == total
            assert _sup_statistic(sample, model, c, grid, order) == stoch
            totals.append(total)
            stochs.append(stoch)
        summary = sup_experiment(model, n, reps, c, grid, seed=seed).summaries[0]
        assert summary["total_error"] == condbands.experiments._stats(np.array(totals))
        assert summary["stochastic_error"] == condbands.experiments._stats(np.array(stochs))


@pytest.mark.parametrize("model", [M1, M2], ids=["m1", "m2"])
def test_em_constant_equals_a_per_location_recomputation(model):
    # em-constant's order-0 and order-1 statistics, with each location's
    # centerings built once and reused over replications, must equal a
    # recomputation of every replication location by location, with each
    # order's centering from the public centering_curve: the experiment
    # evaluates both orders at once, and on m1 each order's row is still
    # its own one-row sum, so the bits match
    grid = np.linspace(-1.0, 1.0, 7)
    reps = 3
    for kernel, n, seed in ((EPA, 400, 21), (UNI, 150, 40)):
        h = reference_bandwidth(n)
        scale = math.sqrt(n * h / math.log(1.0 / h))
        stats = {0: [], 1: []}
        for r in range(reps):
            sample = draw(model, n, np.random.SeedSequence(seed, spawn_key=(r,)))
            devs = {0: [], 1: []}
            for x in grid:
                curves = [
                    cdf_curve(sample, x, cfg(kernel, h=h, order=p), monotonize=False)
                    for p in (0, 1)
                ]
                for p in (0, 1):
                    ref = centering_curve(model, x, curves[p].jump_ts, kernel, h, p)
                    devs[p].append(step_sup_deviation(curves[p].values, ref))
            for p in (0, 1):
                stats[p].append(scale * max(devs[p]))
        report = em_constant_experiment(model, n, reps, cfg(kernel, h=h), x_grid=grid, seed=seed)
        summary = report.summaries[0]
        assert summary["skipped_locations"] == 0
        assert summary["order0"] == condbands.experiments._stats(np.array(stats[0]))
        assert summary["order1"] == condbands.experiments._stats(np.array(stats[1]))


@pytest.mark.parametrize("model", [M1, M2], ids=["m1", "m2"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_coverage_equals_a_per_location_recomputation(model, order):
    # coverage takes each location's deviation from the truth alone, in the
    # same pass that serves several references elsewhere; it must equal the
    # public true_cdf and step_sup_deviation location by location, also on a
    # grid with a location outside every window
    grid = np.array([-6.0, -1.0, -0.4, 0.0, 0.3, 1.0])
    reps = 3
    for kernel, n, seed in ((EPA, 400, 21), (UNI, 150, 40)):
        c = cfg(kernel, h=reference_bandwidth(n), order=order)
        lams = []
        for r in range(reps):
            sample = draw(model, n, np.random.SeedSequence(seed, spawn_key=(r,)))
            devs = []
            for x in grid[1:]:
                curve = cdf_curve(sample, x, c, monotonize=False)
                truth = true_cdf(model, x, curve.jump_ts)
                devs.append(step_sup_deviation(curve.values, truth) / band_halfwidth(sample, x, c))
            lams.append(max(devs))
        summary = coverage_experiment(model, n, reps, 0.5, c, grid, seed=seed).summaries[0]
        assert summary["skipped_locations"] == reps
        assert summary["statistic"] == condbands.experiments._stats(np.array(lams))
        assert summary["upper_coverage"] == float(np.mean(np.array(lams) <= 1.5))


def test_em_constant_with_order0_only_locations_equals_a_recomputation():
    # in the tail some windows hold enough points for a constant fit but not
    # for a linear one, so those locations compare only their order-0 curve
    # with its centering; every statistic must still equal a recomputation
    # location by location with the public functions
    n, reps, seed = 200, 4, 1
    h = reference_bandwidth(n)
    scale = math.sqrt(n * h / math.log(1.0 / h))
    grid = np.linspace(1.6, 3.6, 11)
    stats, skipped, order0_only = {0: [], 1: []}, 0, 0
    for r in range(reps):
        sample = draw(M1, n, np.random.SeedSequence(seed, spawn_key=(r,)))
        kept, gone = fit_grid(sample, grid, cfg(EPA, h=h, order=0), lambda x, fit, half: x)
        devs = {0: [], 1: []}
        for x in kept:
            for p in (0, 1):
                try:
                    curve = cdf_curve(sample, x, cfg(EPA, h=h, order=p), monotonize=False)
                except InsufficientLocalData:
                    order0_only += 1
                    continue
                ref = centering_curve(M1, x, curve.jump_ts, EPA, h, p)
                devs[p].append(step_sup_deviation(curve.values, ref))
        skipped += 2 * len(gone) + len(kept) - len(devs[1])
        for p in (0, 1):
            stats[p].append(scale * max(devs[p]))
    assert order0_only > 0
    summary = em_constant_experiment(M1, n, reps, cfg(EPA, h=h), x_grid=grid, seed=seed).summaries[0]
    assert summary["skipped_locations"] == skipped
    assert summary["order0"] == condbands.experiments._stats(np.array(stats[0]))
    assert summary["order1"] == condbands.experiments._stats(np.array(stats[1]))


def test_normalized_sup_statistic_positive():
    sample = draw(M1, 500, 3)
    c = EstimatorConfig(kernel=EPA, bandwidth=reference_bandwidth(500), order=0)
    val = _em_statistic(sample, M1, c, np.linspace(-1, 1, 41), 0)
    assert val > 0.0


def test_experiments_default_to_41_points_on_the_interval():
    c = cfg(h=reference_bandwidth(150))
    assert sup_experiment(M1, 150, 1, c).params["x_grid"] == [-1.0, 1.0, 41]
    em = em_constant_experiment(M1, 150, 1, c, interval=(-0.5, 0.5))
    assert em.params["x_grid"] == [-0.5, 0.5, 41]
    grid = condbands.experiments._as_grid(None)
    assert grid.size == 41 and grid[0] == -1.0 and grid[-1] == 1.0
    assert 0.0 in grid


# ---------------------------------------------------------------------------
# Bochner residuals
# ---------------------------------------------------------------------------

def test_bochner_check_structure_and_flags():
    report = bochner_check(M1, 0.0, (0.4, 0.1), EPA, t=0.5)
    assert report.kind == "bochner"
    assert [s["bandwidth"] for s in report.summaries] == [0.4, 0.1]
    res = report.summaries[-1]["residuals"]
    assert set(res) == {
        "density_moment_0",
        "density_moment_1",
        "density_moment_2",
        "response_moment_0",
        "response_moment_1",
    }
    assert report.flags["density_moment_0_improves"]
    assert report.flags["response_moment_0_improves"]
    assert report.flags["odd_moments_negligible"]
    limits = report.reference["value"]
    assert limits["density_moment_0"] == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    assert limits["density_moment_2"] == pytest.approx(0.2 / math.sqrt(2 * math.pi))


def test_bochner_density_ratio_near_one_at_smallest_h():
    report = bochner_check(M1, 0.0, (0.4, 0.2, 0.1, 0.05), EPA)
    fx = 1.0 / math.sqrt(2.0 * math.pi)
    residual = report.summaries[-1]["residuals"]["density_moment_0"]
    assert residual / fx < 0.01


def test_bochner_check_validation():
    with pytest.raises(ValueError):
        bochner_check(M1, 0.0, (), EPA)
    with pytest.raises(ValueError):
        bochner_check(M1, 0.0, (0.1, 0.4), EPA)  # not decreasing
    with pytest.raises(InvalidBandwidth):
        bochner_check(M1, 0.0, (1.2, 0.4), EPA)
    with pytest.raises(InvalidBandwidth, match=r"bandwidth must lie in \(0, 1\), got 1.2"):
        bochner_check(M1, 0.0, (1.2, 0.4), EPA)
    for x, t in ((math.nan, 0.5), (math.inf, 0.5), (0.0, -math.inf)):
        with pytest.raises(ValueError, match="x and t must be finite"):
            bochner_check(M1, x, (0.3,), EPA, t=t)


@pytest.mark.parametrize("model,x,kernel", [
    (M1, 50.0, EPA), (M2, -40.0, UNI), (M1, 1e308, get_kernel("gaussian")),
])
def test_bochner_check_refuses_an_x_where_the_design_density_vanishes(model, x, kernel):
    # f_X(x) underflows to 0 there, so every limit and residual would be 0 and
    # every flag true; far enough out x * x overflows, which must not warn
    with pytest.raises(InsufficientLocalData, match=r"design density f_X\(.*\) = 0.000e\+00"):
        bochner_check(model, x, (0.4, 0.1), kernel)


# ---------------------------------------------------------------------------
# Replicated experiments
# ---------------------------------------------------------------------------

def test_coverage_experiment_report():
    c = EstimatorConfig(kernel=EPA, bandwidth=reference_bandwidth(300), order=1)
    report = coverage_experiment(M1, 300, 5, 0.5, c, seed=99)
    assert report.kind == "coverage"
    assert report.n_values == [300]
    summary = report.summaries[0]
    assert summary["reps"] == 5
    assert 0.0 <= summary["lower_coverage"] <= summary["upper_coverage"] <= 1.0
    assert report.flags["nesting_holds_every_rep"]
    with pytest.raises(ValueError):
        coverage_experiment(M1, 300, 5, 1.5, c, seed=99)
    with pytest.raises(ValueError):
        coverage_experiment(M1, 300, 0, 0.5, c, seed=99)


def test_experiment_determinism_across_workers():
    c = EstimatorConfig(kernel=EPA, bandwidth=reference_bandwidth(250), order=1)
    one = coverage_experiment(M1, 250, 4, 0.5, c, seed=5, workers=1)
    two = coverage_experiment(M1, 250, 4, 0.5, c, seed=5, workers=3)
    again = coverage_experiment(M1, 250, 4, 0.5, c, seed=5, workers=1)
    assert one.to_json() == two.to_json() == again.to_json()
    other_seed = coverage_experiment(M1, 250, 4, 0.5, c, seed=6)
    assert other_seed.to_json() != one.to_json()


def test_sup_experiment_report():
    c = EstimatorConfig(kernel=EPA, bandwidth=reference_bandwidth(300), order=1)
    report = sup_experiment(M1, 300, 4, c, seed=17)
    summary = report.summaries[0]
    assert {"total_error", "stochastic_error"} <= set(summary)
    assert summary["total_error"]["count"] == 4
    assert report.reference["value"] == 1.0
    doc = json.loads(report.to_json())
    assert doc["kind"] == "sup"
    assert doc["summaries"][0]["stochastic_error"]["median"] > 0


def test_sup_experiment_fits_each_location_once():
    # one kernel pass per location and replication serves both references;
    # each location's centering adds one pass over its quadrature nodes, once
    # per experiment, not once per replication
    n, reps = 300, 3
    kernel, calls = counting_kernel(EPA)
    c = EstimatorConfig(kernel=kernel, bandwidth=reference_bandwidth(n), order=1)
    grid = np.linspace(-1.0, 1.0, 9)
    sup_experiment(M1, n, reps, c, grid, seed=4)
    assert len(calls) == (reps + 1) * grid.size


def test_em_constant_fits_each_location_once():
    # the order-0 and order-1 fits share one kernel pass per location and
    # replication, and both orders' centerings share one more pass over the
    # quadrature nodes, once per location and experiment
    n, reps = 300, 3
    kernel, calls = counting_kernel(EPA)
    c = EstimatorConfig(kernel=kernel, bandwidth=reference_bandwidth(n), order=1)
    grid = np.linspace(-1.0, 1.0, 9)
    em_constant_experiment(M1, n, reps, c, x_grid=grid, seed=4)
    assert len(calls) == (reps + 1) * grid.size


def test_a_location_skipped_in_every_replication_builds_no_centering(monkeypatch):
    # +-6 lies outside every window; the kept locations build their
    # centering once, at the first replication, whatever the count
    built = []
    real = condbands.experiments._centering

    def recording(model, x, kernel, h, orders):
        built.append((float(x), orders))
        return real(model, x, kernel, h, orders)

    monkeypatch.setattr(condbands.experiments, "_centering", recording)
    c = cfg(h=reference_bandwidth(200))
    grid = [-6.0, 0.0, 0.5, 6.0]
    sup = sup_experiment(M1, 200, 3, c, grid, seed=1)
    assert sup.summaries[0]["skipped_locations"] == 2 * 3
    assert built == [(0.0, (1,)), (0.5, (1,))]
    built.clear()
    em_constant_experiment(M1, 200, 3, c, x_grid=grid, seed=1)
    assert built == [(0.0, (0, 1)), (0.5, (0, 1))]
    built.clear()
    coverage_experiment(M1, 200, 3, 0.5, c, grid, seed=1)
    assert built == []


def test_em_constant_builds_each_kept_locations_centering_once(monkeypatch):
    # in the tail some locations are fitted at order 0 only in some
    # replications; each kept location still builds one centering, for
    # both orders, the first time a replication keeps it
    built = []
    real = condbands.experiments._centering

    def recording(model, x, kernel, h, orders):
        built.append((float(x), orders))
        return real(model, x, kernel, h, orders)

    monkeypatch.setattr(condbands.experiments, "_centering", recording)
    n, reps, seed = 200, 4, 1
    c = cfg(EPA, h=reference_bandwidth(n))
    grid = np.linspace(1.6, 3.6, 11)
    kept = set()
    for r in range(reps):
        sample = draw(M1, n, np.random.SeedSequence(seed, spawn_key=(r,)))
        kept.update(fit_grid(sample, grid, cfg(EPA, h=c.bandwidth, order=0),
                             lambda x, fit, half: float(x))[0])
    em_constant_experiment(M1, n, reps, c, x_grid=grid, seed=seed)
    assert len(kept) == 9
    assert sorted(built) == sorted((x, (0, 1)) for x in kept)


def test_one_true_cdf_matrix_per_location(monkeypatch):
    # the truth is a one-row matrix at x; m1's centerings are weighted sums
    # of the rows of one matrix over the quadrature nodes, while m2 sums its
    # nodes from sorted running sums and builds no matrix over them
    calls = []
    real = condbands.simulation.true_cdf_grid

    def counting(model, xs, ts):
        calls.append((model.kind, len(xs)))
        return real(model, xs, ts)

    monkeypatch.setattr(condbands.simulation, "true_cdf_grid", counting)
    monkeypatch.setattr(condbands.experiments, "true_cdf_grid", counting)
    n, reps = 300, 3
    c = cfg(h=reference_bandwidth(n))
    grid = np.linspace(-1.0, 1.0, 9)
    locations = reps * grid.size
    nodes = [("m1", 64)] * locations
    runs = {
        "sup": lambda model: sup_experiment(model, n, reps, c, grid, seed=4),
        "em-constant": lambda model: em_constant_experiment(model, n, reps, c, x_grid=grid, seed=4),
        # coverage needs the truth alone: one row at x and no quadrature nodes
        "coverage": lambda model: coverage_experiment(model, n, reps, 0.5, c, grid, seed=4),
    }
    expected = {
        ("sup", "m1"): [("m1", 1)] * locations + nodes,
        ("em-constant", "m1"): nodes,
        ("coverage", "m1"): [("m1", 1)] * locations,
        ("sup", "m2"): [("m2", 1)] * locations,
        ("em-constant", "m2"): [],
        ("coverage", "m2"): [("m2", 1)] * locations,
    }
    for model in (M1, M2):
        for kind, run in runs.items():
            calls.clear()
            run(model)
            assert sorted(calls) == expected[kind, model.kind], kind
            # no m2 call evaluates more than the one row at x
            assert all(rows == 1 for k, rows in calls if k == "m2")


def test_sup_experiment_rejects_order_two_before_any_fit():
    kernel, calls = counting_kernel(EPA)
    c = EstimatorConfig(kernel=kernel, bandwidth=0.3, order=2)
    with pytest.raises(ValueError, match="centering is available for orders 0 and 1, got 2"):
        sup_experiment(M1, 200, 2, c)
    assert calls == []


@pytest.mark.parametrize("workers", [0, -3])
def test_replicated_experiments_reject_workers_below_one(workers):
    c = cfg()
    with pytest.raises(ValueError, match="workers"):
        sup_experiment(M1, 200, 2, c, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        coverage_experiment(M1, 200, 2, 0.5, c, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        em_constant_experiment(M1, 200, 2, c, workers=workers)


@pytest.mark.parametrize("name, n, reps, workers", [
    ("reps", 200, 2.5, 1),
    ("n", 200.0, 2, 1),
    ("n", np.float64(200.0), 2, 1),
    ("workers", 200, 2, 1.5),
    ("workers", 200, 2, "2"),
], ids=["reps-2.5", "n-200.0", "n-numpy-float", "workers-1.5", "workers-str"])
def test_replicated_experiments_reject_non_integral_counts(name, n, reps, workers):
    c = cfg()
    match = f"{name} must be an integer"
    with pytest.raises(ValueError, match=match):
        sup_experiment(M1, n, reps, c, workers=workers)
    with pytest.raises(ValueError, match=match):
        coverage_experiment(M1, n, reps, 0.5, c, workers=workers)
    with pytest.raises(ValueError, match=match):
        em_constant_experiment(M1, n, reps, c, workers=workers)


def test_replicated_experiments_accept_numpy_integer_counts():
    c = cfg(h=reference_bandwidth(150))
    grid = np.linspace(-0.5, 0.5, 3)
    plain = sup_experiment(M1, 150, 2, c, grid, seed=2, workers=1)
    numpy_ints = sup_experiment(
        M1, np.int64(150), np.int32(2), c, grid, seed=2, workers=np.int64(1)
    )
    assert numpy_ints.to_json() == plain.to_json()


SCALAR_SETTINGS = {
    "cdf_band-epsilon": lambda v: cdf_band(draw(M1, 200, 1), [0.0], [0.5], cfg(), epsilon=v),
    "quantile_band-alpha": lambda v: quantile_band(
        draw(M1, 200, 1), [0.0], v, cfg(), oracle_density_provider(M1)),
    "bandwidth": lambda v: cdf_band(draw(M1, 200, 1), [0.0], [0.5], cfg(h=v)),
    "coverage_experiment-epsilon": lambda v: coverage_experiment(M1, 200, 1, v, cfg()),
}


@pytest.mark.parametrize("scalar", [np.float32, np.float64, float])
@pytest.mark.parametrize("entry", SCALAR_SETTINGS)
def test_numpy_scalar_settings_are_reported_as_python_floats(entry, scalar):
    # json cannot write a numpy float32; the setting must reach it as the equal Python float
    value = scalar(0.3)
    run = SCALAR_SETTINGS[entry]
    assert run(value).to_json() == run(float(value)).to_json()


def test_replications_run_on_the_calling_thread_at_any_worker_count():
    # workers is accepted for compatibility only: every kernel evaluation
    # happens on the caller's thread and the report does not depend on it
    n = 150
    kernel, calls = counting_kernel(EPA)
    c = EstimatorConfig(kernel=kernel, bandwidth=reference_bandwidth(n), order=1)
    grid = np.linspace(-0.5, 0.5, 3)
    runs = {
        "sup": lambda w: sup_experiment(M1, n, 4, c, grid, seed=2, workers=w),
        "coverage": lambda w: coverage_experiment(M1, n, 4, 0.5, c, grid, seed=2, workers=w),
        "em-constant": lambda w: em_constant_experiment(M1, n, 4, c, x_grid=grid, seed=2, workers=w),
    }
    for kind, run in runs.items():
        reports = []
        for workers in (1, 2):
            calls.clear()
            reports.append(run(workers).to_json())
            assert calls, kind
            assert {thread for thread, _ in calls} == {threading.get_ident()}, kind
            if kind == "sup":
                # a fit per location and replication, a centering per location
                assert len(calls) == (4 + 1) * grid.size
        assert reports[0] == reports[1], kind


def test_em_constant_records_skipped_locations():
    # +-6 lies outside every window: 2 locations, 2 fits, 2 replications
    c = EstimatorConfig(kernel=EPA, bandwidth=reference_bandwidth(200), order=1)
    grid = [-6.0, 0.0, 6.0]
    em = em_constant_experiment(M1, 200, 2, c, x_grid=grid, seed=1)
    sup = sup_experiment(M1, 200, 2, c, grid, seed=1)
    assert em.summaries[0]["skipped_locations"] == 8
    assert sup.summaries[0]["skipped_locations"] == 4
    assert em_constant_experiment(M1, 200, 2, c, seed=1).summaries[0]["skipped_locations"] == 0


def test_em_constant_needs_a_location_with_a_linear_fit():
    # the uniform window at the sample maximum holds that point alone: the
    # constant fit is kept there, the linear one is not
    sample = draw(M1, 20, np.random.SeedSequence(3, spawn_key=(0,)))
    top, second = np.sort(sample.xs)[::-1][:2]
    c = cfg(UNI, h=min(0.5, (top - second) / 2.0), order=0)
    assert fit_grid(sample, [top], c, lambda x, fit, half: x) == ([top], [])
    with pytest.raises(InsufficientLocalData, match="every grid location"):
        em_constant_experiment(M1, 20, 1, c, x_grid=[top], seed=3)


def test_em_constant_matches_separate_fits_per_order():
    # in the tail some windows hold too few points for a linear fit but
    # enough for a constant one: order 1 is skipped there on its own, and
    # each order's statistic is the one a separate fit of that order gives
    n, reps, seed = 200, 4, 1
    c = EstimatorConfig(kernel=EPA, bandwidth=reference_bandwidth(n), order=1)
    grid = np.linspace(1.6, 3.6, 11)
    em = em_constant_experiment(M1, n, reps, c, x_grid=grid, seed=seed)
    stats, skipped = {0: [], 1: []}, {0: 0, 1: 0}
    for r in range(reps):
        sample = draw(M1, n, np.random.SeedSequence(seed, spawn_key=(r,)))
        for order in (0, 1):
            c_order = EstimatorConfig(kernel=EPA, bandwidth=c.bandwidth, order=order)
            skipped[order] += len(fit_grid(sample, grid, c_order, lambda x, fit, half: None)[1])
            stats[order].append(_em_statistic(sample, M1, c, grid, order))
    summary = em.summaries[0]
    assert skipped[1] > skipped[0]
    assert summary["skipped_locations"] == skipped[0] + skipped[1]
    for order in (0, 1):
        assert summary[f"order{order}"]["median"] == pytest.approx(np.median(stats[order]), rel=1e-12)


def test_em_constant_references():
    c0 = EstimatorConfig(kernel=EPA, bandwidth=reference_bandwidth(200), order=0)
    report = em_constant_experiment(M1, 200, 2, c0, seed=1)
    # l2 norm over sqrt(2 inf phi) on [-1, 1]
    assert report.reference["value"] == pytest.approx(1.1135, abs=1e-3)
    cu = EstimatorConfig(kernel=UNI, bandwidth=reference_bandwidth(200), order=0)
    report_u = em_constant_experiment(M1, 200, 2, cu, seed=1)
    assert report_u.reference["value"] == pytest.approx(1.437, abs=1e-3)
    assert {"order0", "order1"} <= set(report.summaries[0])
    with pytest.raises(ValueError):
        em_constant_experiment(M1, 200, 2, c0, interval=(1.0, -1.0))
    for interval in ((-math.inf, 1.0), (-1.0, math.nan), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="interval must be finite"):
            em_constant_experiment(M1, 200, 2, c0, interval=interval)


EMPTY_GRID_CALLS = {
    "cdf_band": lambda s, c, g: cdf_band(s, g, "jumps", c),
    "regression_band": lambda s, c, g: regression_band(s, g, c, (0.0, 1.0)),
    "quantile_band": lambda s, c, g: quantile_band(s, g, 0.5, c, oracle_density_provider(M1)),
    "sup_experiment": lambda s, c, g: sup_experiment(M1, 100, 1, c, x_grid=g),
    "coverage_experiment": lambda s, c, g: coverage_experiment(M1, 100, 1, 0.5, c, x_grid=g),
    "em_constant_experiment": lambda s, c, g: em_constant_experiment(M1, 100, 1, c, x_grid=g),
}


@pytest.mark.parametrize("entry", EMPTY_GRID_CALLS)
def test_empty_grid_is_a_value_error_at_every_entry_point(entry):
    with pytest.raises(ValueError, match="x_grid must not be empty"):
        EMPTY_GRID_CALLS[entry](draw(M1, 100, 1), cfg(), [])


@pytest.mark.parametrize("entry", ["sup_experiment", "coverage_experiment", "em_constant_experiment"])
def test_a_grid_that_is_not_a_linspace_is_reported_point_by_point(entry):
    # a rerun from the report must use the same grid: [first, last, count] means a linspace
    run = EMPTY_GRID_CALLS[entry]
    nudged = np.linspace(-0.5, 0.5, 5)
    nudged[1] = np.nextafter(nudged[1], 1.0)
    assert run(None, cfg(), [0.0, 0.1, 1.0]).params["x_grid"] == [0.0, 0.1, 1.0]
    assert run(None, cfg(), nudged).params["x_grid"] == nudged.tolist()
    assert run(None, cfg(), np.linspace(-0.5, 0.5, 5)).params["x_grid"] == [-0.5, 0.5, 5]
    assert run(None, cfg(), [0.25]).params["x_grid"] == [0.25, 0.25, 1]
    # np.linspace overflows on this span, and no warning escapes
    assert run(None, cfg(), [-1e308, 0.0, 1e308]).params["x_grid"] == [-1e308, 0.0, 1e308]


@pytest.mark.parametrize("grid, message", [
    (0.0, "be one-dimensional"),
    ([[0.0, 0.5]], "be one-dimensional"),
    (["0", "0.5"], "hold numbers, not text"),
    (np.array([b"0", b"0.5"]), "hold numbers, not text"),
], ids=["scalar", "2d", "str", "bytes"])
@pytest.mark.parametrize("entry", EMPTY_GRID_CALLS)
def test_grid_of_another_shape_is_a_value_error_at_every_entry_point(entry, grid, message):
    # numeric text ran as the numbers it spells
    with pytest.raises(ValueError, match=f"x_grid must {message}"):
        EMPTY_GRID_CALLS[entry](draw(M1, 100, 1), cfg(), grid)


BAD_PAIRS = {
    "one-entry": (0.0,), "three-entry": (0.0, 1.0, 9.0), "str": "01", "bytes": b"01",
    "str-entries": ["0", "1"], "bytes-entries": (b"0", bytearray(b"1")),
    "str-array": np.array(["0", "1"]), "object-str-array": np.array(["0", 1.0], dtype=object),
}
BAD_GRIDS = {
    "scalar": 0.4, "nested": [[0.4, 0.2]], "empty": [], "str-entries": ["0.4", "0.2"],
    "bytes-array": np.array([b"0.4", b"0.2"]), "object-str-array": np.array([0.4, "0.2"], dtype=object),
}
# entry point -> (argument, call with the argument set to a value, values it refuses)
SHAPE_ARGUMENTS = {
    "regression_band": ("y_range", lambda v: regression_band(draw(M1, 100, 1), [0.0], cfg(), v),
                        BAD_PAIRS),
    "em_constant_experiment": ("interval", lambda v: em_constant_experiment(
        M1, 100, 1, cfg(), interval=v), BAD_PAIRS),
    "fit_grid": ("x_grid", lambda v: fit_grid(draw(M1, 100, 1), v, cfg(), lambda *row: row),
                 BAD_GRIDS),
    "cdf_band": ("t_grid", lambda v: cdf_band(draw(M1, 100, 1), [0.0], v, cfg()), BAD_GRIDS),
    "bochner_check": ("h_sequence", lambda v: bochner_check(M1, 0.0, v, EPA), BAD_GRIDS),
}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{kind}")
    for entry, (_, _, bad) in SHAPE_ARGUMENTS.items() for kind, value in bad.items()
])
def test_pair_and_grid_arguments_of_another_shape_are_value_errors(entry, value):
    # a one-entry pair was an IndexError, a three-entry one dropped its last
    # entry, a two-character str or bytes ran as the pair of its characters
    # ("01" as (0.0, 1.0), b"01" as (48.0, 49.0)), and a scalar h_sequence
    # was a TypeError; numeric text entries ran as the numbers they spell
    name, call, _ = SHAPE_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must (be a pair|not be empty|be one-dim|hold numbers)"):
        call(value)


def test_numbers_of_any_numeric_type_still_pass():
    # the text guard refuses nothing numeric: numpy scalars and numeric
    # object arrays give the bits of plain float grids and pairs
    sample, c = draw(M1, 100, 1), cfg()
    base = cdf_band(sample, [0.0, 0.5], [0.25, 0.5], c)
    for x_grid, t_grid in (
        (np.array([0, 0.5], dtype=object), [np.float32(0.25), 0.5]),
        ([np.int64(0), np.float64(0.5)], np.array([0.25, 0.5], dtype=object)),
    ):
        other = cdf_band(sample, x_grid, t_grid, c)
        assert np.array_equal(other.estimate, base.estimate)
    plain = regression_band(sample, [0.0], c, (0.0, 1.0))
    assert regression_band(sample, [0.0], c, (np.int64(0), np.float32(1))).estimate == plain.estimate
    grid = np.linspace(-0.5, 0.5, 3)
    report = sup_experiment(M1, 100, 1, c, grid)
    assert sup_experiment(M1, 100, 1, c, grid.astype(object)).to_json() == report.to_json()


def test_report_json_is_sorted_and_plain():
    c = EstimatorConfig(kernel=EPA, bandwidth=0.3, order=1)
    report = sup_experiment(M1, 150, 2, c, seed=8)
    text = report.to_json()
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, indent=2) == text
