import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condbands import (
    EstimatorConfig,
    InsufficientLocalData,
    InvalidBandwidth,
    NoCrossing,
    Sample,
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
