import copy
import dataclasses
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condbands import (
    EstimatorConfig,
    InsufficientLocalData,
    InvalidBandwidth,
    NoCrossing,
    Sample,
    cdf_band,
    cdf_curve,
    cdf_estimate,
    get_kernel,
    local_moments,
    local_responses,
    local_weights,
    quantile_estimate,
    reference_bandwidth,
    regression_estimate,
)
from condbands.estimator import CdfCurve

EPA = get_kernel("epanechnikov")
UNI = get_kernel("uniform")
GAU = get_kernel("gaussian")


def cfg(kernel=EPA, h=0.5, order=1):
    return EstimatorConfig(kernel=kernel, bandwidth=h, order=order)


# ---------------------------------------------------------------------------
# Sample / config validation
# ---------------------------------------------------------------------------

def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(xs=[], ys=[])
    with pytest.raises(ValueError):
        Sample(xs=[0.0, 1.0], ys=[0.0])
    with pytest.raises(ValueError):
        Sample(xs=[np.nan], ys=[0.0])
    with pytest.raises(ValueError):
        Sample(xs=[0.0], ys=[np.inf])
    s = Sample(xs=[1.0, 2.0], ys=[0.1, 0.2])
    assert s.n == 2
    with pytest.raises(ValueError):
        s.xs[0] = 5.0  # arrays are read-only


def test_config_validation():
    with pytest.raises(InvalidBandwidth):
        cfg(h=1.0)
    with pytest.raises(InvalidBandwidth):
        cfg(h=0.0)
    with pytest.raises(InvalidBandwidth):
        cfg(h=-0.3)
    with pytest.raises(ValueError):
        cfg(order=3)


def test_reference_bandwidth():
    assert reference_bandwidth(100) == pytest.approx(0.3981071705534972, rel=1e-12)
    assert reference_bandwidth(500) == pytest.approx(0.28853998118144273, rel=1e-12)
    assert 0.0 < reference_bandwidth(2) < 1.0
    with pytest.raises(InvalidBandwidth):
        reference_bandwidth(1)


# ---------------------------------------------------------------------------
# Local moments and responses
# ---------------------------------------------------------------------------

def test_single_point_moment():
    s = Sample(xs=[0.0], ys=[0.3])
    m = local_moments(s, 0.0, cfg(h=0.5, order=0), jmax=0)
    # (1 / (n h)) K(0) = 0.75 / 0.5
    assert m[0] == pytest.approx(1.5, rel=1e-15)


def test_uniform_boundary_convention_in_moments():
    # scaled distance exactly -1/2 contributes, exactly +1/2 does not
    c = cfg(kernel=UNI, h=0.5, order=0)
    s_left = Sample(xs=[0.0, 0.25], ys=[0.0, 0.0])  # u = 0, -1/2
    assert local_moments(s_left, 0.0, c, 0)[0] == pytest.approx(2.0, rel=1e-15)
    s_right = Sample(xs=[0.0, -0.25], ys=[0.0, 0.0])  # u = 0, +1/2
    assert local_moments(s_right, 0.0, c, 0)[0] == pytest.approx(1.0, rel=1e-15)


def test_moment_jmax_validation():
    s = Sample(xs=[0.0], ys=[0.0])
    with pytest.raises(ValueError):
        local_moments(s, 0.0, cfg(), jmax=5)
    with pytest.raises(ValueError):
        local_responses(s, 0.0, 0.0, cfg(), jmax=3)


def test_responses_match_moments_at_extremes():
    rng = np.random.default_rng(3)
    s = Sample(xs=rng.normal(size=40), ys=rng.random(40))
    c = cfg(h=0.4)
    m = local_moments(s, 0.1, c, jmax=2)
    r_hi = local_responses(s, 0.1, 2.0, c, jmax=2)
    r_lo = local_responses(s, 0.1, -1.0, c, jmax=2)
    assert np.allclose(r_hi, m, atol=1e-14)
    assert np.allclose(r_lo, 0.0)


def test_single_point_response():
    s = Sample(xs=[0.0], ys=[0.3])
    c = cfg(h=0.5, order=0)
    assert local_responses(s, 0.0, 0.3, c, 0)[0] == pytest.approx(1.5, rel=1e-15)
    assert local_responses(s, 0.0, 0.29, c, 0)[0] == 0.0


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def test_single_point_order0_weight():
    s = Sample(xs=[0.0], ys=[0.3])
    w = local_weights(s, 0.1, cfg(h=0.5, order=0))
    assert w.weights.shape == (1,)
    assert w.weights[0] == pytest.approx(1.0)


def test_order1_single_point_degenerate():
    s = Sample(xs=[0.0], ys=[0.3])
    with pytest.raises(InsufficientLocalData):
        local_weights(s, 0.0, cfg(h=0.5, order=1))


def test_empty_window_degenerate():
    s = Sample(xs=[0.0, 0.1], ys=[0.3, 0.4])
    with pytest.raises(InsufficientLocalData):
        local_weights(s, 50.0, cfg(h=0.5, order=0))


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_non_finite_location_rejected(x, order):
    s = Sample(xs=[-0.2, 0.0, 0.1, 0.3], ys=[0.3, 0.4, 0.5, 0.6])
    with pytest.raises(ValueError, match="location x must be finite"):
        local_weights(s, x, cfg(order=order))


def test_symmetric_design_order1_equals_order0():
    # symmetric scaled distances kill the first local moment, reducing
    # the order-1 weights to the order-0 ones
    s = Sample(xs=[-0.125, 0.0, 0.125], ys=[0.1, 0.2, 0.3])
    c0 = cfg(kernel=UNI, h=0.5, order=0)
    c1 = cfg(kernel=UNI, h=0.5, order=1)
    w0 = local_weights(s, 0.0, c0).weights
    w1 = local_weights(s, 0.0, c1).weights
    assert np.allclose(w0, w1, atol=1e-14)
    assert np.allclose(w0, 1.0 / 3.0)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("kernel", [EPA, UNI, GAU])
def test_weight_identities_seeded(order, kernel):
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(5, 120))
        s = Sample(xs=rng.normal(size=n), ys=rng.random(n))
        h = float(rng.uniform(0.15, 0.9))
        x = float(rng.uniform(-1.2, 1.2))
        c = cfg(kernel=kernel, h=h, order=order)
        try:
            w = local_weights(s, x, c)
        except InsufficientLocalData:
            continue
        checked += 1
        u = (x - s.xs) / h
        assert abs(w.weights.sum() - 1.0) <= 1e-10
        if order >= 1:
            assert abs((w.weights * u).sum()) <= 1e-10
        if order == 2:
            assert abs((w.weights * u * u).sum()) <= 1e-8 * max(1.0, (u * u).max())
        # no weight outside the kernel window
        assert np.all(w.weights[kernel.eval(u) == 0.0] == 0.0)
        # the fit carries d0(x) and the curve the public functions return
        assert np.array_equal(w.in_window, kernel.eval(u) > 0.0)
        assert w.density == local_moments(s, x, c, jmax=0)[0]
        for monotonize in (False, True):
            ours, public = w.curve(s, monotonize), cdf_curve(s, x, c, monotonize)
            assert np.array_equal(ours.jump_ts, public.jump_ts)
            assert np.array_equal(ours.values, public.values)
    assert checked >= 20


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from([0, 1, 2]),
    h=st.floats(0.1, 0.9),
    x=st.floats(-1.5, 1.5),
)
def test_weight_identities_property(seed, order, h, x):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    s = Sample(xs=rng.normal(size=n), ys=rng.random(n))
    c = cfg(kernel=GAU, h=h, order=order)
    try:
        w = local_weights(s, x, c)
    except InsufficientLocalData:
        return
    u = (x - s.xs) / h
    assert abs(w.weights.sum() - 1.0) <= 1e-10
    if order >= 1:
        assert abs((w.weights * u).sum()) <= 1e-10


# ---------------------------------------------------------------------------
# Kernel windows
# ---------------------------------------------------------------------------

def _direct_fit(s, x, c):
    """Weights and d0(x) over the whole sample, without any window."""
    u = (x - s.xs) / c.bandwidth
    k = c.kernel.eval(u)
    nh = s.n * c.bandwidth
    m = [float((u**j * k).sum()) / nh for j in range(5)]
    if c.order == 0:
        return k / (m[0] * nh), m[0]
    if c.order == 1:
        return (m[2] - u * m[1]) * k / (nh * (m[0] * m[2] - m[1] ** 2)), m[0]
    a1 = m[2] * m[4] - m[3] ** 2
    a2 = m[2] * m[3] - m[1] * m[4]
    a3 = m[1] * m[3] - m[2] ** 2
    denom = a1 * m[0] + a2 * m[1] + a3 * m[2]
    return (a1 + a2 * u + a3 * u * u) * k / (nh * denom), m[0]


def _edge_design(x, h, kernel, offset, rng):
    """X clustered within +-40 ulps of both ends of the support around x,
    duplicated, plus interior points; responses with ties."""
    a, b = kernel.support
    edges = [x - b * h, x - a * h]
    near = [np.nextafter(e, np.inf if k > 0 else -np.inf) for e in edges for k in (1, -1)]
    xs = [e + j * np.spacing(e) for e in edges for j in range(-40, 41)] + near
    xs += list(x + h * b * np.linspace(-0.9, 0.9, 13))
    xs += list(offset + rng.uniform(-3.0, 3.0, 40))
    xs = np.array(xs + xs[::7])
    ys = rng.integers(0, 25, xs.size) / 24.0
    return Sample(xs=xs, ys=ys)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, -1e6, 1e12])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("kernel", [EPA, UNI])
def test_window_is_exactly_the_kernel_support(kernel, order, offset):
    rng = np.random.default_rng([order, int(abs(offset)) % 9973])
    h = 0.3
    c = cfg(kernel=kernel, h=h, order=order)
    for x in (offset + 0.1, offset - 0.7 * h):
        s = _edge_design(x, h, kernel, offset, rng)
        fit = local_weights(s, x, c)
        support = kernel.eval((x - s.xs) / h) > 0.0
        assert np.array_equal(np.sort(fit.window.index), np.flatnonzero(support))
        assert np.array_equal(fit.in_window, support)
        w, d0 = _direct_fit(s, x, c)
        assert np.max(np.abs(fit.weights - w)) <= 1e-12
        assert abs(fit.density - d0) <= 1e-12 * max(1.0, d0)
        assert fit.density == local_moments(s, x, c, jmax=0)[0]
        curve = fit.curve(s, monotonize=False)
        jumps = np.unique(np.concatenate([s.ys[support], [s.ys.min(), s.ys.max()]]))
        assert np.array_equal(curve.jump_ts, jumps)
        direct = np.array([w[s.ys <= t].sum() for t in jumps])
        assert np.max(np.abs(curve.values - direct)) <= 1e-12
        assert abs(fit.regression(s) - float(w @ s.ys)) <= 1e-12


@pytest.mark.parametrize("kernel", [EPA, UNI])
def test_empty_window_is_insufficient_local_data(kernel):
    # the nearest X sits one ulp outside the support on either side
    h, x = 0.3, 1e6 + 0.1
    a, b = kernel.support
    lo = np.nextafter(x - b * h, -np.inf)
    while kernel.eval((x - lo) / h) > 0.0:
        lo = np.nextafter(lo, -np.inf)
    hi = x - a * h
    while kernel.eval((x - hi) / h) > 0.0:
        hi = np.nextafter(hi, np.inf)
    far = list(x + 10.0 + np.linspace(-0.1, 0.1, 7))
    s = Sample(xs=[lo - 1.0, lo, hi, hi + 1.0] + far, ys=np.linspace(0.1, 0.9, 11))
    for order in (0, 1, 2):
        c = cfg(kernel=kernel, h=h, order=order)
        with pytest.raises(InsufficientLocalData):
            local_weights(s, x, c)
        assert local_moments(s, x, c, jmax=2).tolist() == [0.0, 0.0, 0.0]
        table = cdf_band(s, [x, x + 10.0], np.array([0.25]), c)
        assert table.metadata["skipped_locations"] == [x]


@pytest.mark.parametrize("kernel", [EPA, UNI, GAU])
def test_fit_at_another_order_matches_a_direct_fit(kernel):
    rng = np.random.default_rng(3)
    s = Sample(xs=rng.normal(size=300), ys=rng.random(300))
    for x in (-0.8, 0.0, 0.4):
        base = local_weights(s, x, cfg(kernel=kernel, h=0.4, order=0))
        for order in (0, 1, 2):
            direct = local_weights(s, x, cfg(kernel=kernel, h=0.4, order=order))
            other = base.at_order(order)
            assert other.order == order
            assert np.array_equal(other.window.index, direct.window.index)
            assert np.array_equal(other.window_weights, direct.window_weights)
            assert other.density == direct.density
    with pytest.raises(ValueError):
        base.at_order(3)


def test_sample_caches_are_read_only_and_outside_equality():
    xs, ys = [0.3, -0.1, 0.3, 0.0], [0.5, 0.2, 0.2, 0.9]
    s = Sample(xs=xs, ys=ys)
    assert s.x_order.tolist() == [1, 3, 0, 2]
    assert s.xs_sorted.tolist() == [-0.1, 0.0, 0.3, 0.3]
    assert s.y_rank.tolist() == [2, 0, 1, 3]
    assert s.y_range == (0.2, 0.9)
    for arr in (s.x_order, s.xs_sorted, s.y_rank):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert [f.name for f in dataclasses.fields(s)] == ["xs", "ys"]
    assert "x_order" not in repr(s)


@pytest.mark.parametrize("clone", [
    lambda s: pickle.loads(pickle.dumps(s)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_sample_copies_stay_read_only_without_caches(clone):
    s = Sample(xs=[0.3, -0.1, 0.3, 0.0], ys=[0.5, 0.2, 0.2, 0.9])
    _ = s.x_order, s.xs_sorted, s.y_rank, s.y_range  # fill the caches first
    c = clone(s)
    # Sample == compares arrays elementwise, so compare them one by one
    assert np.array_equal(c.xs, s.xs) and np.array_equal(c.ys, s.ys)
    assert not c.xs.flags.writeable and not c.ys.flags.writeable
    assert set(vars(c)) == {"xs", "ys"}
    for arr in (c.x_order, c.xs_sorted, c.y_rank):
        assert not arr.flags.writeable
    assert c.y_rank.tolist() == s.y_rank.tolist()


def test_sample_caches_computed_from_many_threads_agree():
    # threads that race to fill a fresh sample's caches all see the same
    # arrays, and fit exactly as a serial caller does
    rng = np.random.default_rng(8)
    xs, ys = rng.normal(size=2000), rng.random(2000)
    c = cfg(h=0.3)
    grid = np.linspace(-1.0, 1.0, 9)
    serial = [local_weights(Sample(xs=xs, ys=ys), x, c).curve(Sample(xs=xs, ys=ys)) for x in grid]
    shared = Sample(xs=xs, ys=ys)
    barrier = threading.Barrier(8)

    def fit_all():
        barrier.wait(timeout=10)
        return [local_weights(shared, x, c).curve(shared) for x in grid]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(fit_all) for _ in range(8)]]
    finally:
        sys.setswitchinterval(old)
    for curves in results:
        for ours, ref in zip(curves, serial):
            assert np.array_equal(ours.jump_ts, ref.jump_ts)
            assert np.array_equal(ours.values, ref.values)


def _columns(n, case):
    """A design column and a response column of length n for ``case``."""
    rng = np.random.default_rng(n)
    xs, ys = rng.normal(size=n), rng.random(n)
    if case == "repeated":
        xs, ys = np.round(xs, 1), np.round(ys, 2)
    elif case == "signed_zeros":
        xs[::3], xs[1::3] = 0.0, -0.0
        ys[::4], ys[2::4] = -0.0, 0.0
    elif case == "constant":
        xs[:] = 0.25
        ys[:] = -1.5
    return xs, ys


@pytest.mark.parametrize("n", [1, 2, 600, 1 << 16, 70_000])
@pytest.mark.parametrize("case", ["distinct", "repeated", "signed_zeros", "constant"])
def test_sample_orders_are_the_stable_argsort(n, case):
    # the default sort may order equal values any way, so ties, -0.0 == 0.0
    # among them, must still give the stable order; up to 2**16 points the
    # ranks are uint16, beyond that intp
    xs, ys = _columns(n, case)
    s = Sample(xs=xs, ys=ys)
    assert np.array_equal(s.x_order, np.argsort(xs, kind="stable"))
    assert s.xs_sorted.tobytes() == xs[np.argsort(xs, kind="stable")].tobytes()
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(ys, kind="stable")] = np.arange(n)
    assert np.array_equal(s.y_rank, rank)
    assert s.y_rank.dtype == (np.uint16 if n <= 1 << 16 else np.intp)


# ---------------------------------------------------------------------------
# Point estimates
# ---------------------------------------------------------------------------

def test_cdf_estimate_extremes_and_order0_range():
    rng = np.random.default_rng(5)
    s = Sample(xs=rng.normal(size=60), ys=rng.random(60))
    c = cfg(h=0.4, order=0)
    assert cdf_estimate(s, 0.0, -0.5, c) == 0.0
    assert cdf_estimate(s, 0.0, 1.5, c) == pytest.approx(1.0, abs=1e-12)
    mid = cdf_estimate(s, 0.0, 0.5, c)
    assert 0.0 <= mid <= 1.0


def test_order1_linear_reproduction():
    rng = np.random.default_rng(9)
    xs = rng.normal(size=80)
    ys = 0.3 + 0.2 * xs
    s = Sample(xs=xs, ys=ys)
    for x in (-0.5, 0.0, 0.7):
        est = regression_estimate(s, x, cfg(h=0.5, order=1))
        assert est == pytest.approx(0.3 + 0.2 * x, abs=1e-8)


def test_order2_quadratic_reproduction():
    rng = np.random.default_rng(13)
    xs = rng.normal(size=120)
    ys = 0.1 - 0.4 * xs + 0.25 * xs * xs
    s = Sample(xs=xs, ys=ys)
    for x in (-0.4, 0.2):
        est = regression_estimate(s, x, cfg(h=0.6, order=2))
        truth = 0.1 - 0.4 * x + 0.25 * x * x
        assert est == pytest.approx(truth, abs=1e-8)


def test_regression_constant_and_single_point():
    s = Sample(xs=[0.0, 0.2, -0.1], ys=[0.7, 0.7, 0.7])
    assert regression_estimate(s, 0.0, cfg(h=0.5, order=0)) == pytest.approx(0.7)
    s1 = Sample(xs=[0.0], ys=[0.42])
    assert regression_estimate(s1, 0.05, cfg(h=0.5, order=0)) == pytest.approx(0.42)


def test_shift_equivariance():
    rng = np.random.default_rng(17)
    xs = rng.normal(size=70)
    ys = rng.random(70)
    for shift in (-4.0, 1.5, 8.0):
        for order in (0, 1, 2):
            c = cfg(kernel=GAU, h=0.4, order=order)
            base = cdf_estimate(Sample(xs=xs, ys=ys), 0.2, 0.5, c)
            moved = cdf_estimate(Sample(xs=xs + shift, ys=ys), 0.2 + shift, 0.5, c)
            assert abs(base - moved) <= 1e-10


def _wls_intercept(s, x, t, h, kernel):
    # independent check: weighted least squares of the response indicator
    # on (1, X - x), solved through the normal equations
    d = s.xs - x
    w = kernel.eval(-d / h)
    z = (s.ys <= t).astype(float)
    a = np.array([[w.sum(), (w * d).sum()], [(w * d).sum(), (w * d * d).sum()]])
    b = np.array([(w * z).sum(), (w * z * d).sum()])
    return np.linalg.solve(a, b)[0]


def test_order1_matches_wls_oracle():
    rng = np.random.default_rng(23)
    done = 0
    while done < 100:
        n = int(rng.integers(8, 150))
        s = Sample(xs=rng.normal(size=n), ys=rng.random(n))
        h = float(rng.uniform(0.2, 0.9))
        x = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.1, 0.9))
        c = cfg(kernel=GAU, h=h, order=1)
        try:
            ours = cdf_estimate(s, x, t, c)
        except InsufficientLocalData:
            continue
        assert ours == pytest.approx(_wls_intercept(s, x, t, h, GAU), abs=1e-9)
        done += 1


# ---------------------------------------------------------------------------
# Curves and quantiles
# ---------------------------------------------------------------------------

def test_curve_order0_monotone_and_ends_at_one():
    rng = np.random.default_rng(29)
    s = Sample(xs=rng.normal(size=100), ys=rng.random(100))
    curve = cdf_curve(s, 0.0, cfg(h=0.4, order=0), monotonize=False)
    assert np.all(np.diff(curve.values) >= -1e-14)
    assert curve.values[-1] == pytest.approx(1.0, abs=1e-12)
    assert curve.values[0] >= 0.0
    # sentinels from the full sample are present
    assert curve.jump_ts[0] == s.ys.min()
    assert curve.jump_ts[-1] == s.ys.max()


def test_curve_evaluation_between_jumps():
    s = Sample(xs=[0.0, 0.01, -0.01], ys=[0.2, 0.5, 0.8])
    curve = cdf_curve(s, 0.0, cfg(h=0.5, order=0))
    assert curve.value_at(0.1) == 0.0
    assert curve.value_at(0.2) == pytest.approx(curve.value_at(0.35))
    assert curve.value_at(0.9) == pytest.approx(1.0)
    vals = curve.value_at(np.array([0.1, 0.3, 0.9]))
    assert vals.shape == (3,)


def test_curve_ties_accumulate():
    s = Sample(xs=[0.0, 0.01, -0.01, 0.02], ys=[0.5, 0.5, 0.5, 0.9])
    curve = cdf_curve(s, 0.0, cfg(kernel=UNI, h=0.5, order=0))
    assert np.unique(curve.jump_ts).size == curve.jump_ts.size
    assert curve.value_at(0.5) == pytest.approx(0.75, abs=1e-12)


def reference_curve(fit, sample, monotonize):
    """The concatenate-based ``LocalWeights.curve`` that the in-place builder
    replaced, with its window ordered by response and then sample index
    through ``lexsort`` instead of the sample's cached ranks."""
    index = fit.window.index
    order = np.lexsort((index, sample.ys[index]))
    ymin, ymax = sample.y_range
    ys_ext = np.concatenate(([ymin], sample.ys[index[order]], [ymax]))
    cum = np.cumsum(np.concatenate(([0.0], fit.window_weights[order], [0.0])))
    last = np.flatnonzero(np.append(ys_ext[1:] != ys_ext[:-1], True))
    jump_ts, values = ys_ext[last], cum[last]
    if monotonize:
        values = np.clip(np.maximum.accumulate(values), 0.0, 1.0)
    return jump_ts, values


@pytest.mark.parametrize("kernel", [EPA, UNI, GAU], ids=lambda k: k.name)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_curve_is_the_concatenating_builder_bit_for_bit(kernel, order):
    # responses with many ties, equal to the range ends too, and windows whose
    # sample indices are in X order (compact kernels) or sample order
    # (Gaussian); 600 points rank in uint16 and radix-sort each window, and
    # 70 000 rank in intp and take the default sort
    rng = np.random.default_rng(order)
    for n, rank_dtype in ((600, np.uint16), (70_000, np.intp)):
        xs = rng.normal(size=n)
        ys = np.round(rng.random(n), 2)
        ys[:5] = ys.min()
        ys[5:10] = -0.0
        s = Sample(xs=xs, ys=ys)
        assert s.y_rank.dtype == rank_dtype
        for x in np.linspace(-1.5, 1.5, 13):
            fit = local_weights(s, x, cfg(kernel=kernel, h=0.3, order=order))
            for monotonize in (False, True):
                curve = fit.curve(s, monotonize)
                jump_ts, values = reference_curve(fit, s, monotonize)
                assert curve.jump_ts.tobytes() == jump_ts.tobytes()
                assert curve.values.tobytes() == values.tobytes()
                assert curve.monotonized is monotonize and curve.order == order


def test_raw_curve_can_overshoot_and_monotonize_fixes_it():
    # one-sided design gives the far edge of the window a negative weight
    s = Sample(xs=[-0.5, -0.6, -0.7, -0.95], ys=[0.2, 0.4, 0.6, 0.8])
    c = cfg(kernel=EPA, h=0.9, order=1)
    w = local_weights(s, 0.0, c).weights
    assert (w < 0).any()
    raw = cdf_curve(s, 0.0, c, monotonize=False)
    assert (np.diff(raw.values) < 0).any()
    fixed = cdf_curve(s, 0.0, c, monotonize=True)
    assert np.all(np.diff(fixed.values) >= 0)
    assert fixed.values.min() >= 0.0 and fixed.values.max() <= 1.0
    assert fixed.monotonized and not raw.monotonized


def test_quantile_basic_inversion():
    curve = CdfCurve(
        x=0.0,
        jump_ts=np.array([-1.0, 1.0]),
        values=np.array([0.5, 1.0]),
        order=0,
        monotonized=True,
    )
    assert quantile_estimate(curve, 0.5) == -1.0
    assert quantile_estimate(curve, 0.51) == 1.0
    with pytest.raises(ValueError):
        quantile_estimate(curve, 0.0)
    with pytest.raises(ValueError):
        quantile_estimate(curve, 1.0)


def test_quantile_no_crossing():
    curve = CdfCurve(
        x=0.0,
        jump_ts=np.array([0.0, 1.0]),
        values=np.array([0.1, 0.2]),
        order=1,
        monotonized=False,
    )
    with pytest.raises(NoCrossing):
        quantile_estimate(curve, 0.5)


def test_quantile_consistency_on_monotonized_curve():
    rng = np.random.default_rng(31)
    s = Sample(xs=rng.normal(size=200), ys=rng.random(200))
    curve = cdf_curve(s, 0.0, cfg(h=0.35, order=1))
    for alpha in (0.1, 0.5, 0.9):
        q = quantile_estimate(curve, alpha)
        assert curve.value_at(q) >= alpha
        below = curve.jump_ts < q
        if below.any():
            assert curve.values[below].max() < alpha
