import copy
import dataclasses
import json
import pickle
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import counting_kernel
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
    density_plugin,
    centering_curve,
    centering_oracle,
    certainty_halfwidth,
    draw,
    draw_conditional,
    get_kernel,
    kernel_window,
    local_moments,
    local_weights,
    quantile_estimate,
    reference_bandwidth,
    regression_estimate,
    sim_model,
    sup_experiment,
)
from condbands.estimator import ORDERS, CdfCurve, _check_integer
from condbands.experiments import CENTERING_ORDERS

EPA = get_kernel("epanechnikov")
UNI = get_kernel("uniform")
GAU = get_kernel("gaussian")


def cfg(kernel=EPA, h=0.5, order=1):
    return EstimatorConfig(kernel=kernel, bandwidth=h, order=order)


def _window_mask(fit):
    """The n-long mask of the observations in the fit's kernel window."""
    mask = np.zeros(fit.n, dtype=bool)
    mask[fit.window.index] = True
    return mask


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


SMALL = Sample(xs=[-0.2, 0.0, 0.1, 0.3], ys=[0.1, 0.4, 0.2, 0.9])
M1 = sim_model("m1")

# entry point -> (argument name, call with the argument set to a value)
INTEGER_ARGUMENTS = {
    "EstimatorConfig": ("order", lambda v: cfg(order=v)),
    "local_moments": ("jmax", lambda v: local_moments(SMALL, 0.0, cfg(), jmax=v)),
    "draw": ("n", lambda v: draw(M1, v, 0)),
    "draw_conditional": ("n", lambda v: draw_conditional(M1, 0.0, v, 0)),
    "centering_curve": ("order", lambda v: centering_curve(M1, 0.0, [0.5], EPA, 0.5, v)),
    "centering_oracle": ("order", lambda v: centering_oracle(M1, 0.0, 0.5, cfg(order=0), v)),
    "sup_experiment": ("reps", lambda v: sup_experiment(M1, 50, v, cfg(order=0))),
    "reference_bandwidth": ("n", reference_bandwidth),
    "certainty_halfwidth": ("n", lambda v: certainty_halfwidth(0.6, 0.3, v, 1.0)),
}


@pytest.mark.parametrize("value", [1.0, 2.5, True, False], ids=repr)
@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_integer_arguments_must_be_integers(entry, value):
    # a float or a bool used to pass the range check and fail inside numpy,
    # or to be taken as 0 or 1
    name, call = INTEGER_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        call(value)


# the entry points whose integer must also be one of listed values, each
# with a value outside them and the one message form of the refusal
CHOICE_ARGUMENTS = [
    ("EstimatorConfig", 3, "order must be one of 0, 1, 2, got 3"),
    ("EstimatorConfig", -1, "order must be one of 0, 1, 2, got -1"),
    ("local_moments", 5, "jmax must be one of 0, 1, 2, 3, 4, got 5"),
    ("centering_oracle", 2, "order must be one of 0, 1, got 2"),
    ("centering_curve", 2, "order must be one of 0, 1, got 2"),
    ("sup_experiment", 2, "order must be one of 0, 1, got 2"),
]
CHOICE_CALLS = {
    **{entry: call for entry, (_, call) in INTEGER_ARGUMENTS.items()},
    "sup_experiment": lambda v: sup_experiment(M1, 50, 2, cfg(order=v)),
}


@pytest.mark.parametrize("numpy", [False, True], ids=["int", "numpy"])
@pytest.mark.parametrize("entry,value,message", CHOICE_ARGUMENTS)
def test_choice_arguments_name_the_values_they_take(entry, value, message, numpy):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CHOICE_CALLS[entry](np.int64(value) if numpy else value)


def test_the_listed_values_are_each_rules_own():
    assert ORDERS == (0, 1, 2) and CENTERING_ORDERS == (0, 1)
    assert all(type(_check_integer("order", np.int16(p), among=ORDERS)) is int for p in ORDERS)
    assert type(_check_integer("jmax", np.uint8(4), among=range(5))) is int
    assert local_moments(SMALL, 0.0, cfg(), jmax=np.uint8(4)).shape == (5,)
    assert _check_integer("n", np.int32(7), least=1) == 7


def test_a_numpy_integer_order_is_kept_as_an_int():
    c = cfg(order=np.int64(1))
    assert type(c.order) is int and c == cfg(order=1)
    table = cdf_band(SMALL, [0.0], "jumps", c)
    assert json.loads(table.to_json())["metadata"]["order"] == 1
    assert type(local_weights(SMALL, 0.0, dataclasses.replace(c, order=np.int8(0))).order) is int


def test_reference_bandwidth():
    assert reference_bandwidth(100) == pytest.approx(0.3981071705534972, rel=1e-12)
    assert reference_bandwidth(500) == pytest.approx(0.28853998118144273, rel=1e-12)
    assert 0.0 < reference_bandwidth(2) < 1.0
    with pytest.raises(InvalidBandwidth):
        reference_bandwidth(1)


# ---------------------------------------------------------------------------
# Local moments and the response indicator
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


def test_responses_match_moments_at_extremes():
    # above every response 1{Y_i <= t} keeps the whole window, so the
    # estimate is the sum of the weights; below every response it keeps none
    rng = np.random.default_rng(3)
    s = Sample(xs=rng.normal(size=40), ys=rng.random(40))
    for order in (0, 1, 2):
        c = cfg(h=0.4, order=order)
        w = local_weights(s, 0.1, c)
        assert cdf_estimate(s, 0.1, 2.0, c) == float(w.window_weights.sum())
        assert cdf_estimate(s, 0.1, 2.0, c) == pytest.approx(1.0, abs=1e-14)
        assert cdf_estimate(s, 0.1, -1.0, c) == 0.0


def test_single_point_response():
    # the indicator 1{Y_i <= t} counts a response equal to t
    s = Sample(xs=[0.0], ys=[0.3])
    c = cfg(h=0.5, order=0)
    assert cdf_estimate(s, 0.0, 0.3, c) == 1.0
    assert cdf_estimate(s, 0.0, 0.29, c) == 0.0


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


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_non_finite_location_message_prints_a_plain_float(x):
    # a grid point is a numpy float, whose repr would name its type
    s = Sample(xs=[-0.2, 0.0, 0.1, 0.3], ys=[0.3, 0.4, 0.5, 0.6])
    with pytest.raises(ValueError, match=f"^location x must be finite, got {x}$"):
        local_weights(s, np.float64(x), cfg())


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
        assert np.array_equal(_window_mask(w), kernel.eval(u) > 0.0)
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
        assert np.array_equal(_window_mask(fit), support)
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
    # em-constant's order-1 fit: local_weights right after the order-0 fit gets
    # that fit's window back from the sample's window slot, and its weights and
    # d0(x) are those of a fit on a fresh sample, bit for bit
    rng = np.random.default_rng(3)
    xs, ys = rng.normal(size=300), rng.random(300)
    s = Sample(xs=xs, ys=ys)
    c0 = cfg(kernel=kernel, h=0.4, order=0)
    for x in (-0.8, 0.0, 0.4):
        for order in (0, 1, 2):
            c = dataclasses.replace(c0, order=order)
            base = local_weights(s, x, c0)
            other = local_weights(s, x, c)
            direct = local_weights(Sample(xs=xs, ys=ys), x, c)
            assert other.window is base.window
            assert other.order == order
            assert np.array_equal(other.window.index, direct.window.index)
            assert other.window_weights.tobytes() == direct.window_weights.tobytes()
            assert other.weights.tobytes() == direct.weights.tobytes()
            assert other.density.hex() == direct.density.hex()
    with pytest.raises(ValueError):
        dataclasses.replace(c0, order=3)


def _reference_window(s, x, c):
    """The kernel window with a full K > 0 mask over the sorted candidate
    run, and whether the mask dropped a candidate.  A kernel without a
    support runs over the whole sorted sample."""
    h = c.bandwidth
    a, b = c.kernel.support or (-np.inf, np.inf)
    pad = 16.0 * np.finfo(float).eps * (abs(x) + h * max(-a, b))
    lo, hi = s.xs_sorted.searchsorted((x - b * h - pad, x - a * h + pad))
    u = (x - s.xs_sorted[lo:hi]) / h
    index = s.x_order[lo:hi]
    k = c.kernel.eval(u)
    keep = k > 0.0
    return index[keep], u[keep], k[keep], not keep.all()


def _reference_fit(s, x, c):
    """Window, weights and d0(x) by ``.sum()`` power sums and the one-line
    weight expressions; raises InsufficientLocalData as the fit does."""
    index, u, k, _ = _reference_window(s, x, c)
    nh = s.n * c.bandwidth
    sums = np.empty(2 * c.order + 1)
    sums[0] = k.sum()
    uj = u
    for j in range(1, 2 * c.order + 1):
        sums[j] = (uj * k).sum()
        if j < 2 * c.order:
            uj = uj * u
    m = [float(v) / nh for v in sums]
    if c.order == 0:
        if abs(m[0]) < 1e-12:
            raise InsufficientLocalData("order 0")
        w = k / float(sums[0])
    elif c.order == 1:
        denom = m[0] * m[2] - m[1] ** 2
        if abs(denom) < 1e-12:
            raise InsufficientLocalData("order 1")
        w = (m[2] - u * m[1]) * k / (nh * denom)
    else:
        a1 = m[2] * m[4] - m[3] ** 2
        a2 = m[2] * m[3] - m[1] * m[4]
        a3 = m[1] * m[3] - m[2] ** 2
        denom = a1 * m[0] + a2 * m[1] + a3 * m[2]
        if abs(denom) < 1e-12:
            raise InsufficientLocalData("order 2")
        w = (a1 + a2 * u + a3 * u * u) * k / (nh * denom)
    return index, u, k, w, float(sums[0]) / nh


def _assert_fit_is_the_reference(s, x, c):
    try:
        index, u, k, w, d0 = _reference_fit(s, x, c)
    except InsufficientLocalData:
        with pytest.raises(InsufficientLocalData):
            local_weights(s, x, c)
        return
    fit = local_weights(s, x, c)
    assert fit.window.index.dtype == index.dtype
    assert np.array_equal(fit.window.index, index)
    for ours, ref in ((fit.window.u, u), (fit.window.k, k), (fit.window_weights, w)):
        assert ours.tobytes() == ref.tobytes()
    assert np.float64(fit.density).tobytes() == np.float64(d0).tobytes()


def _design_at_the_edges(rng, x, h, kernel, n, ties):
    """Normal X, rounded to ties on request, plus copies of X = x -+ h (or
    x -+ h/2 for the uniform kernel), the ends of the support around x."""
    xs = rng.normal(size=n)
    if ties:
        xs = np.round(xs, 1)
    half = 0.5 * h if kernel is UNI else h
    edges = np.repeat([x - half, x + half], rng.integers(0, 4, 2))
    xs = np.concatenate([xs, edges])
    return Sample(xs=xs, ys=rng.integers(0, 9, xs.size) / 8.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kernel=st.sampled_from([EPA, UNI, GAU]),
    order=st.sampled_from([0, 1, 2]),
    h=st.one_of(st.sampled_from([0.125, 0.25, 0.5]), st.floats(0.05, 0.95)),
    x=st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.75]), st.floats(-2.0, 2.0)),
    n=st.integers(1, 80),
    ties=st.booleans(),
)
def test_fit_keeps_the_bits_of_the_reference_fit(seed, kernel, order, h, x, n, ties):
    rng = np.random.default_rng(seed)
    s = _design_at_the_edges(rng, x, h, kernel, n, ties)
    _assert_fit_is_the_reference(s, x, cfg(kernel=kernel, h=h, order=order))


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("kernel", [EPA, UNI], ids=lambda k: k.name)
def test_fit_keeps_the_bits_where_a_window_end_has_zero_kernel(kernel, order):
    # dyadic x and h put X = x -+ h (x -+ h/2) exactly on the support's ends,
    # so a candidate at an end of the window has K = 0 and the mask is needed
    rng = np.random.default_rng(order)
    h = 0.25
    half = 0.5 * h if kernel is UNI else h
    c = cfg(kernel=kernel, h=h, order=order)
    dropped = 0
    for x in (0.0, 0.25, -0.5):
        for ties in (False, True):
            xs = rng.normal(scale=0.3, size=60)
            xs = np.append(np.round(xs, 1) if ties else xs, [x - half, x + half])
            s = Sample(xs=xs, ys=rng.integers(0, 9, xs.size) / 8.0)
            dropped += _reference_window(s, x, c)[3]
            _assert_fit_is_the_reference(s, x, c)
    assert dropped == 6


@pytest.mark.parametrize("kernel, h, offsets", [
    (EPA, 0.25, (-0.25, 0.25)),  # X = x -+ h: u = +-1, where K = 0
    (UNI, 0.25, (-0.125, 0.125)),  # X = x - h/2: u = +1/2, where K = 0; x + h/2 is kept
    (GAU, 0.05, (-3.0, -2.0, -1.9, 1.9, 2.0, 3.0)),  # K underflows to 0 past |u| = 38.6
], ids=lambda v: v.name if hasattr(v, "name") else None)
def test_a_trimmed_window_is_a_run_of_the_x_order(kernel, h, offsets):
    # the window narrows its candidate run to K > 0 instead of masking it:
    # its index is x_order over the run, its u and k have the bits of the
    # masked copy, and the readers that slice the run give what gathering
    # by index gives
    rng = np.random.default_rng(12)
    for x in (0.0, 0.25, -0.5):
        xs = np.concatenate([rng.normal(scale=0.3, size=60), x + np.repeat(offsets, 2)])
        ys = rng.integers(0, 9, xs.size) / 8.0
        ys[ys == 0.5] = -0.0  # beside the 0.0 responses
        s = Sample(xs=xs, ys=ys)
        c = cfg(kernel=kernel, h=h, order=1)
        index, u, k, dropped = _reference_window(s, x, c)
        assert dropped
        win = kernel_window(s, x, c)
        assert win.run.step is None and 0 <= win.run.start <= win.run.stop <= s.n
        assert np.array_equal(win.index, s.x_order[win.run])
        assert win.index.tobytes() == index.tobytes()
        assert win.u.tobytes() == u.tobytes() and win.k.tobytes() == k.tobytes()
        assert (win.k > 0.0).all()
        fit = local_weights(s, x, c)
        ys = s.ys[index]
        assert fit.regression(s).hex() == float(fit.window_weights @ ys).hex()
        for t in (-0.0, 0.25, 0.5, 1.0):
            assert cdf_estimate(s, x, t, c).hex() == float(fit.window_weights[ys <= t].sum()).hex()
        fxy = float((k * kernel.eval((0.5 - ys) / h)).sum()) / (s.n * h * h)
        assert density_plugin(s, x, 0.5, c).fxy.hex() == fxy.hex()


def test_kernel_window_repeats_come_from_the_sample_slot():
    rng = np.random.default_rng(4)
    s = Sample(xs=rng.normal(size=200), ys=rng.random(200))
    kernel, calls = counting_kernel(EPA)
    c = cfg(kernel=kernel, h=0.3)
    local_weights(s, 0.0, cfg(kernel=EPA, h=0.3))
    win = kernel_window(s, 0.0, c)  # an equal kernel, not the same object
    assert len(calls) == 1
    assert kernel_window(s, 0.0, c) is win
    assert local_weights(s, 0.0, c).window is win
    assert len(calls) == 1
    kernel_window(s, 0.0, cfg(kernel=kernel, h=0.31))
    assert len(calls) == 2
    kernel_window(s, 0.0, c)  # the slot holds one window
    assert len(calls) == 3
    again = kernel_window(s, -0.0, c)
    assert len(calls) == 4
    assert kernel_window(s, -0.0, c) is again
    assert len(calls) == 4
    for arr in again[:3]:
        assert arr.size > 0
        with pytest.raises(ValueError):
            arr[0] = arr[0]
        with pytest.raises(ValueError):
            arr += arr


def test_sample_caches_are_read_only_and_outside_equality():
    xs, ys = [0.3, -0.1, 0.3, 0.0], [0.5, 0.2, 0.2, 0.9]
    s = Sample(xs=xs, ys=ys)
    assert s.x_order.tolist() == [1, 3, 0, 2]
    assert s.xs_sorted.tolist() == [-0.1, 0.0, 0.3, 0.3]
    # the sample-order ranks [2, 0, 1, 3], read in X order
    assert s._y_rank_by_x.tolist() == [0, 3, 2, 1]
    assert s._ys_by_x.tolist() == [0.2, 0.9, 0.5, 0.2]
    assert s.y_range == (0.2, 0.9)
    for arr in (s.x_order, s.xs_sorted, s._y_rank_by_x, s._ys_by_x):
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
    _ = s.x_order, s.xs_sorted, s._y_rank_by_x, s.y_range  # fill the caches first
    kernel_window(s, 0.1, cfg())  # and the window slot
    assert len(vars(s)) == 7
    c = clone(s)
    # Sample == compares arrays elementwise, so compare them one by one
    assert np.array_equal(c.xs, s.xs) and np.array_equal(c.ys, s.ys)
    assert not c.xs.flags.writeable and not c.ys.flags.writeable
    assert set(vars(c)) == {"xs", "ys"}
    for arr in (c.x_order, c.xs_sorted, c._y_rank_by_x, c._ys_by_x):
        assert not arr.flags.writeable
    assert c._y_rank_by_x.tolist() == s._y_rank_by_x.tolist()


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
    # ranks are uint16, beyond that intp.  The responses and their ranks are
    # kept in X order
    xs, ys = _columns(n, case)
    s = Sample(xs=xs, ys=ys)
    x_order = np.argsort(xs, kind="stable")
    assert np.array_equal(s.x_order, x_order)
    assert s.xs_sorted.tobytes() == xs[x_order].tobytes()
    assert s._ys_by_x.tobytes() == ys[x_order].tobytes()
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(ys, kind="stable")] = np.arange(n)
    assert np.array_equal(s._y_rank_by_x, rank[x_order])
    assert s._y_rank_by_x.dtype == (np.uint16 if n <= 1 << 16 else np.intp)


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


def test_order2_matches_wls_oracle():
    # the order-2 fit against an independent weighted least-squares solve on
    # (1, u, u^2), u = (X - x) / h: its intercept is the estimate and the
    # first row of (X'KX)^-1 X'K the weights.  Scaling the columns by h
    # changes neither, and keeps the 3x3 system well conditioned.
    rng = np.random.default_rng(203)
    done = attempts = 0
    while done < 100 and attempts < 500:
        attempts += 1
        n = int(rng.integers(30, 401))
        kernel = (EPA, UNI, GAU)[rng.integers(3)]
        h = float(rng.uniform(0.15, 0.6))
        s = Sample(xs=rng.uniform(-1.5, 1.5, size=n), ys=rng.random(n))
        x, t = float(rng.uniform(-1.0, 1.0)), float(rng.random())
        u = (s.xs - x) / h
        k = kernel.eval(-u)
        design = np.column_stack([np.ones(n), u, u * u])
        if np.linalg.cond(np.sqrt(k)[:, None] * design) >= 100:
            continue
        gram = design.T @ (k[:, None] * design)
        rows = np.linalg.solve(gram, design.T * k)
        z = (s.ys <= t).astype(float)
        intercept = float(np.linalg.solve(gram, design.T @ (k * z))[0])
        c = cfg(kernel=kernel, h=h, order=2)
        assert cdf_estimate(s, x, t, c) == pytest.approx(intercept, abs=1e-9)
        np.testing.assert_allclose(local_weights(s, x, c).weights, rows[0], rtol=0, atol=1e-9)
        done += 1
    assert done == 100


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
    c = cfg(h=0.5, order=0)
    curve = cdf_curve(s, 0.0, c)
    assert cdf_estimate(s, 0.0, 0.1, c) == 0.0
    assert cdf_estimate(s, 0.0, 0.2, c) == pytest.approx(cdf_estimate(s, 0.0, 0.35, c))
    assert cdf_estimate(s, 0.0, 0.35, c) == pytest.approx(curve.values[curve.jump_ts == 0.2].item())
    assert cdf_estimate(s, 0.0, 0.9, c) == pytest.approx(1.0)
    vals = cdf_band(s, [0.0], np.array([0.1, 0.3, 0.9]), c).estimate
    assert vals.shape == (3,)
    assert vals[0] == 0.0 and vals[1:] == pytest.approx(curve.values[[0, -1]])


def test_curve_ties_accumulate():
    s = Sample(xs=[0.0, 0.01, -0.01, 0.02], ys=[0.5, 0.5, 0.5, 0.9])
    curve = cdf_curve(s, 0.0, cfg(kernel=UNI, h=0.5, order=0))
    assert np.unique(curve.jump_ts).size == curve.jump_ts.size
    assert curve.values[curve.jump_ts == 0.5].item() == pytest.approx(0.75, abs=1e-12)


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
    # sample indices are in X order, not increasing; 600 points rank in
    # uint16 and radix-sort each window, and 70 000 rank in intp and take
    # the default sort
    rng = np.random.default_rng(order)
    for n, rank_dtype in ((600, np.uint16), (70_000, np.intp)):
        xs = rng.normal(size=n)
        ys = np.round(rng.random(n), 2)
        ys[:5] = ys.min()
        ys[5:10] = -0.0
        s = Sample(xs=xs, ys=ys)
        assert s._y_rank_by_x.dtype == rank_dtype
        for x in np.linspace(-1.5, 1.5, 13):
            fit = local_weights(s, x, cfg(kernel=kernel, h=0.3, order=order))
            for monotonize in (False, True):
                curve = fit.curve(s, monotonize)
                jump_ts, values = reference_curve(fit, s, monotonize)
                assert curve.jump_ts.tobytes() == jump_ts.tobytes()
                assert curve.values.tobytes() == values.tobytes()
                assert curve.monotonized is monotonize and curve.order == order


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kernel=st.sampled_from([EPA, UNI, GAU]),
    order=st.sampled_from([0, 1, 2]),
    h=st.sampled_from([0.2, 0.5, 0.9]),
    x=st.one_of(st.sampled_from([0.0, -1.0, 1.0]), st.floats(-1.5, 1.5)),
    n=st.integers(2, 60),
    levels=st.sampled_from([2, 3, 9, None]),
    extreme=st.sampled_from(["min", "max", None]),
    data=st.data(),
)
def test_quantile_is_the_raw_curves_first_crossing(
    seed, kernel, order, h, x, n, levels, extreme, data
):
    # the fit reads the crossing from its running weight sums: bit for bit the
    # raw curve's quantile, or NoCrossing for both.  Responses on a few levels
    # tie, with -0.0 and 0.0 mixed at zero; the observation nearest to x may
    # hold the sample's smallest or largest response; alpha may be one of
    # the curve's own values, a partial sum inside a run of ties, or any level
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=n)
    if levels is None:
        ys = rng.normal(size=n)
    else:
        ys = rng.integers(-(levels // 2), levels - levels // 2, n) / 2.0
        ys[ys == 0.0] = rng.choice([-0.0, 0.0], int(np.count_nonzero(ys == 0.0)))
    if extreme is not None:
        near = int(np.argmin(np.abs(xs - x)))
        ys[near] = ys.min() if extreme == "min" else ys.max()
    s = Sample(xs=xs, ys=ys)
    try:
        fit = local_weights(s, x, cfg(kernel=kernel, h=h, order=order))
    except InsufficientLocalData:
        return
    curve = fit.curve(s, monotonize=False)
    partial = np.cumsum(fit.window_weights[np.lexsort((fit.window.index, s.ys[fit.window.index]))])
    levels_in = [float(v) for v in np.concatenate([curve.values, partial]) if 0.0 < v < 1.0]
    alpha = data.draw(
        st.sampled_from(levels_in) if levels_in and data.draw(st.booleans())
        else st.floats(1e-9, 1.0 - 1e-9)
    )
    try:
        want = quantile_estimate(curve, alpha)
    except NoCrossing:
        with pytest.raises(NoCrossing):
            fit.quantile(s, alpha)
        return
    assert fit.quantile(s, alpha).hex() == want.hex()


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
        assert curve.values[curve.jump_ts == q].item() >= alpha
        below = curve.jump_ts < q
        if below.any():
            assert curve.values[below].max() < alpha
