import csv
import functools
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from conftest import counting_kernel
from hypothesis import assume, given, settings, strategies as st

from condbands import (
    BandTable,
    DensityPair,
    EstimatorConfig,
    InsufficientLocalData,
    InvalidBandwidth,
    LocalWeights,
    NoCrossing,
    Sample,
    YRangeViolation,
    band_halfwidth,
    cdf_band,
    cdf_curve,
    cdf_estimate,
    certainty_halfwidth,
    density_plugin,
    draw,
    get_kernel,
    local_weights,
    quantile_band,
    quantile_estimate,
    reference_bandwidth,
    regression_band,
    sim_model,
    true_densities,
)
from condbands.bands import write_csv
from condbands.cli import main

EPA = get_kernel("epanechnikov")
UNI = get_kernel("uniform")
M1 = sim_model("m1")
M2 = sim_model("m2")


def cfg(kernel=EPA, h=0.4, order=1):
    return EstimatorConfig(kernel=kernel, bandwidth=h, order=order)


# ---------------------------------------------------------------------------
# Half-width
# ---------------------------------------------------------------------------

def test_halfwidth_frozen_arithmetic():
    # l2 = 0.6, h = 500**(-1/5), n = 500, density at x equal to the
    # standard normal mode: the half-width comes out near 0.0805
    val = certainty_halfwidth(0.6, 0.288540, 500, 0.398942)
    assert val == pytest.approx(0.0805, abs=1e-3)


def test_halfwidth_scaling_in_density():
    base = certainty_halfwidth(0.6, 0.3, 1000, 0.25)
    quad_density = certainty_halfwidth(0.6, 0.3, 1000, 1.0)
    assert quad_density == pytest.approx(base / 2.0, rel=1e-12)


def test_halfwidth_validation():
    with pytest.raises(InvalidBandwidth, match=r"bandwidth must lie in \(0, 1\), got 1.0"):
        certainty_halfwidth(0.6, 1.0, 100, 0.4)
    with pytest.raises(InvalidBandwidth):
        certainty_halfwidth(0.6, 1.5, 100, 0.4)
    for density in (0.0, math.nan):
        with pytest.raises(InsufficientLocalData):
            certainty_halfwidth(0.6, 0.3, 100, density)
    with pytest.raises(ValueError, match="n must be >= 1"):
        certainty_halfwidth(0.6, 0.3, 0, 0.4)
    # an integer beyond the float range was a bare OverflowError
    with pytest.raises(ValueError, match="^n must be at most 8.988e[+]307, got a 1329-bit integer$"):
        certainty_halfwidth(0.6, 0.3, 10**400, 1.0)
    for l2 in (-0.6, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="l2_norm_sq must be positive"):
            certainty_halfwidth(l2, 0.3, 100, 0.4)
    # an infinite density gave a zero half-width
    with pytest.raises(ValueError, match="density_at_x must be finite, got inf"):
        certainty_halfwidth(0.6, 0.3, 100, math.inf)


def test_band_halfwidth_on_model_sample():
    sample = draw(M1, 500, 42)
    c = cfg(h=reference_bandwidth(500))
    val = band_halfwidth(sample, 0.0, c)
    assert val == pytest.approx(0.08, abs=0.02)
    with pytest.raises(InsufficientLocalData):
        band_halfwidth(sample, 50.0, c)


# ---------------------------------------------------------------------------
# Distribution bands
# ---------------------------------------------------------------------------

def test_cdf_band_single_point_clipping():
    s = Sample(xs=[0.0], ys=[0.3])
    c = cfg(h=0.5, order=0)
    table = cdf_band(s, [0.0], np.array([0.3]), c, epsilon=0.5, clip=True)
    assert len(table) == 1
    assert table.estimate[0] == pytest.approx(1.0)
    assert table.upper[0] == 1.0
    assert table.lower[0] >= 0.0
    raw = cdf_band(s, [0.0], np.array([0.3]), c, epsilon=0.5, clip=False)
    assert raw.upper[0] > 1.0
    assert raw.upper[0] == pytest.approx(raw.estimate[0] + raw.halfwidth[0], rel=1e-14)
    assert raw.lower[0] == pytest.approx(raw.estimate[0] - raw.halfwidth[0], rel=1e-14)


def test_cdf_band_nesting_and_bounds():
    sample = draw(M1, 300, 5)
    c = cfg(h=reference_bandwidth(300))
    grid = np.linspace(-1, 1, 9)
    tight = cdf_band(sample, grid, "jumps", c, epsilon=0.0, clip=True)
    wide = cdf_band(sample, grid, "jumps", c, epsilon=0.5, clip=True)
    assert len(tight) == len(wide) > 0
    assert np.array_equal(tight.x, wide.x) and np.array_equal(tight.t, wide.t)
    assert np.allclose(tight.estimate, wide.estimate)
    assert np.all(wide.lower <= tight.lower + 1e-14)
    assert np.all(wide.upper >= tight.upper - 1e-14)
    assert np.all((tight.lower >= 0.0) & (tight.upper <= 1.0))
    assert np.all(tight.lower <= tight.upper)


def test_cdf_band_explicit_t_grid_matches_curve():
    sample = draw(M1, 200, 9)
    c = cfg(h=0.35)
    ts = np.linspace(0.1, 0.9, 5)
    table = cdf_band(sample, [0.2], ts, c, epsilon=0.0, clip=False)
    assert np.allclose(table.estimate, [cdf_estimate(sample, 0.2, t, c) for t in ts], atol=1e-14)
    assert np.allclose(table.t, ts)


def _tied_sample(n, seed):
    """An m1 sample whose responses repeat: rounded to two decimals."""
    s = draw(M1, n, seed)
    return Sample(xs=s.xs, ys=np.round(s.ys, 2))


# unsorted, with repeats, signed zeros, points below the smallest and above the
# largest response, responses themselves and both infinities
EDGE_TS = np.array([0.5, 0.25, -0.0, 0.0, -0.3, 1.7, np.inf, 0.5, -np.inf, 0.99, 0.0, 0.01])


@pytest.mark.parametrize("name", ["epanechnikov", "uniform", "gaussian"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_cdf_band_explicit_grid_matches_the_curve(name, order):
    # every estimate equals the point estimate at t, and the raw curve's value
    # where t is one of its jumps, at every location kept; a location without
    # data (x = 50) is skipped as with "jumps"
    sample = _tied_sample(400, 19)
    ts = np.concatenate((EDGE_TS, sample.ys[:6], [sample.y_range[0], sample.y_range[1]]))
    c = cfg(kernel=get_kernel(name), h=0.35, order=order)
    grid = [-1.0, 50.0, 0.0, 0.3, 1.2]
    table = cdf_band(sample, grid, ts, c, epsilon=0.25, clip=False)
    jumps = cdf_band(sample, grid, "jumps", c, epsilon=0.25, clip=False)
    kept = [x for x in grid if x not in jumps.metadata["skipped_locations"]]
    assert table.metadata["skipped_locations"] == jumps.metadata["skipped_locations"]
    if name != "gaussian":
        assert table.metadata["skipped_locations"] == [50.0]
    assert table.x.tobytes() == np.repeat(kept, ts.size).tobytes()
    assert table.t.tobytes() == np.tile(ts, len(kept)).tobytes()
    for i, x in enumerate(kept):
        rows = slice(i * ts.size, (i + 1) * ts.size)
        want = np.array([cdf_estimate(sample, x, t, c) for t in ts])
        assert np.all(np.abs(table.estimate[rows] - want) <= 1e-13)
        curve = local_weights(sample, x, c).curve(sample, monotonize=False)
        at_jump = np.isin(ts, curve.jump_ts)
        jump = np.searchsorted(curve.jump_ts, ts[at_jump])
        assert np.all(np.abs(table.estimate[rows][at_jump] - curve.values[jump]) <= 1e-13)
        half = jumps.halfwidth[jumps.x == x][0]
        assert np.all(table.halfwidth[rows] == half)
        assert table.estimate[rows][ts == -np.inf].tolist() == [0.0]
        assert table.estimate[rows][ts < sample.y_range[0]].tolist() == [0.0, 0.0]
    assert table.estimate[table.t == 0.0].tobytes() == table.estimate[table.t == -0.0].tobytes()


def test_cdf_band_explicit_grid_builds_no_curve(monkeypatch):
    # explicit grids bin the responses once per call and sum the window's
    # weights per bin; only "jumps" needs the sorted step curve
    sample = draw(M1, 300, 23)

    def no_curve(*args, **kwargs):
        raise AssertionError("LocalWeights.curve called")

    monkeypatch.setattr(LocalWeights, "curve", no_curve)
    table = cdf_band(sample, np.linspace(-1.0, 1.0, 5), EDGE_TS, cfg(), epsilon=0.5)
    assert len(table) == 5 * EDGE_TS.size
    with pytest.raises(AssertionError, match="LocalWeights.curve called"):
        cdf_band(sample, [0.0], "jumps", cfg())


def test_plotdata_default_grid_builds_no_curve(tmp_path, monkeypatch):
    def no_curve(*args, **kwargs):
        raise AssertionError("LocalWeights.curve called")

    monkeypatch.setattr(LocalWeights, "curve", no_curve)
    out = tmp_path / "plot.csv"
    assert main(["plotdata", "--model", "m1", "--n", "200", "--x-grid=-0.5:0.5:3",
                 "--output", str(out)]) == 0
    # 3 locations x 101 points x (estimate, lower, upper, truth)
    assert len(out.read_text().strip().splitlines()) == 1 + 3 * 101 * 4


def test_cdf_band_skips_empty_windows():
    sample = draw(M1, 200, 11)
    c = cfg(h=0.3)
    table = cdf_band(sample, [0.0, 50.0], np.array([0.5]), c)
    assert table.metadata["skipped_locations"] == [50.0]
    assert set(np.unique(table.x)) == {0.0}
    with pytest.raises(InsufficientLocalData):
        cdf_band(sample, [50.0, 60.0], np.array([0.5]), c)


def _band_kernel_passes(base):
    """Sizes of the kernel evaluations of each band over a 7-point grid."""
    sample = draw(M1, 300, 12)
    kernel, calls = counting_kernel(base)
    c = cfg(kernel=kernel, h=0.35)
    grid = np.linspace(-1.0, 1.0, 7)
    passes = []
    cdf_band(sample, grid, "jumps", c)
    passes.append([size for _, size in calls])
    calls.clear()
    regression_band(sample, grid, c, (0.0, 1.0))
    passes.append([size for _, size in calls])
    calls.clear()
    quantile_band(sample, grid, 0.5, c, lambda x, y: density_plugin(sample, x, y, c))
    passes.append([size for _, size in calls])
    return sample.n, grid.size, passes


def test_band_functions_fit_each_location_once():
    # the cdf and regression bands take the fit and L(x) from one kernel
    # pass per location; the quantile band adds density_plugin's pass over
    # the responses, as its window is the fit's own.  Each pass covers the
    # kernel window only, never the whole sample.
    n, size, (cdf, reg, quant) = _band_kernel_passes(EPA)
    assert (len(cdf), len(reg), len(quant)) == (size, size, 2 * size)
    assert max(cdf + reg + quant) < n


@pytest.mark.parametrize("name", ["uniform", "gaussian"])
def test_band_kernel_passes_cover_the_support(name):
    # a compact kernel evaluates its window; one without support (Gaussian)
    # evaluates the whole sample on every pass
    base = get_kernel(name)
    n, size, (cdf, reg, quant) = _band_kernel_passes(base)
    assert (len(cdf), len(reg), len(quant)) == (size, size, 2 * size)
    if base.support is None:
        assert set(cdf + reg + quant) == {n}
    else:
        assert max(cdf + reg + quant) < n


@pytest.mark.parametrize("t_grid", ["jumps", np.linspace(-2.0, 2.0, 401)], ids=["jumps", "grid"])
def test_cdf_band_holds_its_table_once(t_grid):
    # each location's rows are copied into the table's columns once, so the
    # traced peak stays near the table; 8n bytes cover an explicit grid's
    # response bins
    n = 20_000
    sample = draw(M1, n, 1)
    c, grid = cfg(h=reference_bandwidth(n)), np.linspace(-1.0, 1.0, 41)
    cdf_band(sample, grid, t_grid, c)  # the sample's cached orders are built here
    tracemalloc.start()
    try:
        table = cdf_band(sample, grid, t_grid, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = sum(col.nbytes for col in table._columns())
    assert peak <= 1.25 * table_bytes + 8 * n


def test_cdf_band_validation():
    sample = draw(M1, 50, 1)
    with pytest.raises(ValueError):
        cdf_band(sample, [0.0], "jumps", cfg(), epsilon=1.0)
    with pytest.raises(ValueError):
        cdf_band(sample, [], "jumps", cfg())
    with pytest.raises(ValueError):
        cdf_band(sample, [0.0], "quartiles", cfg())
    with pytest.raises(ValueError):
        cdf_band(sample, [0.0], np.array([]), cfg())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_band_functions_reject_non_finite_locations(bad):
    s = draw(M1, 300, 3)
    grid = [0.0, bad, 0.5]
    with pytest.raises(ValueError, match="location x must be finite"):
        cdf_band(s, grid, "jumps", cfg())
    with pytest.raises(ValueError, match="location x must be finite"):
        regression_band(s, grid, cfg(), (0.0, 1.0))


def test_cdf_band_rejects_nan_t():
    s = draw(M1, 300, 3)
    with pytest.raises(ValueError, match="NaN"):
        cdf_band(s, [0.0], [0.2, np.nan, 0.8], cfg())
    for t_grid in (0.5, [[0.2, 0.5]]):
        with pytest.raises(ValueError, match="t_grid must be one-dimensional"):
            cdf_band(s, [0.0], t_grid, cfg())
    # infinite response points are legal: the curve is 0 and 1 there
    table = cdf_band(s, [0.0], [-np.inf, np.inf], cfg(), clip=False)
    assert table.estimate.tolist() == [0.0, pytest.approx(1.0)]


def test_cdf_band_metadata():
    sample = draw(M1, 120, 2)
    c = cfg(h=0.35, order=2)
    table = cdf_band(sample, [0.0], "jumps", c, epsilon=0.25)
    md = table.metadata
    assert md["kind"] == "cdf"
    assert md["order"] == 2
    assert md["kernel"] == "epanechnikov"
    assert md["bandwidth"] == 0.35
    assert md["n"] == 120
    assert md["epsilon"] == 0.25
    assert md["clipped"] is True


@pytest.mark.parametrize("t_grid,mode", [("jumps", "jumps"), (np.array([0.2, 0.7]), "explicit")])
@pytest.mark.parametrize("clip", [True, False])
def test_cdf_band_metadata_is_exactly_its_settings(t_grid, mode, clip):
    # here and below x = 50 has no data near it and is skipped
    sample = draw(M1, 200, 11)
    table = cdf_band(sample, [0.0, 50.0], t_grid, cfg(h=0.35, order=2), epsilon=0.25, clip=clip)
    assert table.metadata == {
        "kind": "cdf", "order": 2, "kernel": "epanechnikov", "bandwidth": 0.35, "n": 200,
        "skipped_locations": [50.0], "epsilon": 0.25, "clipped": clip, "t_grid": mode,
    }
    assert json.loads(table.to_json())["metadata"] == table.metadata


def test_regression_band_metadata_is_exactly_its_settings():
    sample = draw(M1, 200, 11)
    table = regression_band(sample, [0.0, 50.0], cfg(h=0.35), (-1, 2))
    assert table.metadata == {
        "kind": "regression", "order": 1, "kernel": "epanechnikov", "bandwidth": 0.35,
        "n": 200, "skipped_locations": [50.0], "y_range": [-1.0, 2.0],
    }
    assert json.loads(table.to_json())["metadata"] == table.metadata


def test_quantile_band_metadata_is_exactly_its_settings():
    sample = draw(M1, 200, 11)
    c = cfg(h=0.35)
    grid = [0.0, 50.0]
    note = "plug-in densities reuse the estimation bandwidth in both coordinates"
    plugin = quantile_band(sample, grid, 0.3, c, lambda x, y: density_plugin(sample, x, y, c))
    assert plugin.metadata == {
        "kind": "quantile", "order": 1, "kernel": "epanechnikov", "bandwidth": 0.35,
        "n": 200, "skipped_locations": [50.0], "alpha": 0.3, "density_source": "plugin",
        "density_note": note,
    }
    oracle = quantile_band(sample, grid, 0.3, c, functools.partial(true_densities, M1))
    assert oracle.metadata == {
        "kind": "quantile", "order": 1, "kernel": "epanechnikov", "bandwidth": 0.35,
        "n": 200, "skipped_locations": [50.0], "alpha": 0.3, "density_source": "oracle",
    }
    for table in (plugin, oracle):
        assert json.loads(table.to_json())["metadata"] == table.metadata


@pytest.mark.parametrize("last", ["oracle", "plugin"])
def test_quantile_band_reports_the_density_source_of_the_last_kept_location(last):
    sample = draw(M1, 300, 62)
    first = "plugin" if last == "oracle" else "oracle"

    def densities(x, q):
        return DensityPair(fx=1.0, fxy=1.0, source=first if x < 0.5 else last)

    md = quantile_band(sample, [-0.5, 0.0, 0.5, 50.0], 0.5, cfg(), densities).metadata
    assert md["skipped_locations"] == [50.0]
    assert md["density_source"] == last
    assert ("density_note" in md) == (last == "plugin")


# ---------------------------------------------------------------------------
# Regression bands
# ---------------------------------------------------------------------------

def test_regression_band_constant_data():
    s = Sample(xs=np.linspace(-1, 1, 60), ys=np.full(60, 0.7))
    c = cfg(h=0.5, order=0)
    table = regression_band(s, [0.0, 0.3], c, y_range=(0.0, 1.0))
    assert np.allclose(table.estimate, 0.7)
    assert np.all(np.isnan(table.t))
    assert np.allclose(table.upper - table.lower, 2.0 * table.halfwidth)


def test_regression_band_range_scaling():
    sample = draw(M1, 400, 21)
    c = cfg(h=reference_bandwidth(400))
    narrow = regression_band(sample, [0.0, 0.5], c, y_range=(0.0, 1.0))
    wide = regression_band(sample, [0.0, 0.5], c, y_range=(-0.5, 1.5))
    assert np.allclose(wide.halfwidth, 2.0 * narrow.halfwidth, rtol=1e-12)
    assert np.allclose(wide.estimate, narrow.estimate)


def test_regression_band_y_range_violation():
    sample = draw(M1, 100, 3)
    with pytest.raises(YRangeViolation):
        regression_band(sample, [0.0], cfg(), y_range=(0.2, 1.0))
    with pytest.raises(ValueError):
        regression_band(sample, [0.0], cfg(), y_range=(1.0, 0.0))
    # the last range has finite ends, but b - a overflows
    for y_range in ((-math.inf, math.inf), (0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="y_range must be finite"):
            regression_band(sample, [0.0], cfg(), y_range=y_range)


def test_regression_band_tracks_truth():
    sample = draw(M1, 2000, 31)
    c = cfg(h=reference_bandwidth(2000))
    table = regression_band(sample, [0.0], c, y_range=(0.0, 1.0))
    assert table.estimate[0] == pytest.approx(0.5, abs=0.1)  # E[Y | X=0] = 1/2


# ---------------------------------------------------------------------------
# Quantile bands
# ---------------------------------------------------------------------------

def test_quantile_band_halfwidth_formula():
    sample = draw(M1, 300, 41)
    c = cfg(h=reference_bandwidth(300))

    def unit_pair(x, y):
        return DensityPair(fx=1.0, fxy=1.0, source="oracle")

    def double_pair(x, y):
        return DensityPair(fx=1.0, fxy=2.0, source="oracle")

    t1 = quantile_band(sample, [0.0], 0.5, c, unit_pair)
    t2 = quantile_band(sample, [0.0], 0.5, c, double_pair)
    l_val = band_halfwidth(sample, 0.0, c)
    assert t1.halfwidth[0] == pytest.approx(2.0 * l_val, rel=1e-14)
    assert t2.halfwidth[0] == pytest.approx(l_val, rel=1e-14)
    assert t1.estimate[0] == t2.estimate[0]


@pytest.mark.parametrize("name", ["epanechnikov", "uniform", "gaussian"])
def test_quantile_band_raw_curve_setting_changes_no_quantile(name):
    # for alpha in (0, 1) the raw curve first reaches alpha where its running
    # maximum clipped to [0, 1] does, so the raw curve that quantile_band
    # inverts gives the quantiles of the monotonized one
    grid = np.linspace(-1.0, 1.0, 9)
    for model, seed in ((M1, 31), (M2, 32)):
        sample = draw(model, 400, seed)
        for order in (0, 1, 2):
            c = cfg(kernel=get_kernel(name), h=0.3, order=order)
            for alpha in (0.05, 0.5, 0.93):
                table = quantile_band(sample, grid, alpha, c,
                                      lambda x, y: DensityPair(1.0, 1.0, "oracle"))
                assert "raw_curve" not in table.metadata
                want = [
                    quantile_estimate(local_weights(sample, x, c).curve(sample, monotonize=True), alpha)
                    for x in table.x
                ]
                assert table.estimate.tolist() == want


def _band_or_error(band, *args):
    try:
        return band(*args)
    except InsufficientLocalData:
        return InsufficientLocalData


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", ["epanechnikov", "uniform", "gaussian"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    levels=st.integers(2, 60),
    h=st.floats(0.15, 0.8),
    alpha=st.floats(0.05, 0.95),
)
def test_cdf_and_quantile_bands_are_equivariant_in_y(seed, name, order, levels, h, alpha):
    # the estimates depend on Y only through 1{Y_i <= t}, so for a strictly
    # increasing g the band of (X, g(Y)) is the band of (X, Y) with t -> g(t),
    # bit for bit; responses on a few levels give ties, and the t-grid
    # holds some of them
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 200))
    xs = rng.standard_normal(n)
    ys = rng.integers(0, levels + 1, n) / levels
    t_grid = np.concatenate((np.linspace(-0.1, 1.1, 9), rng.choice(ys, 4)))
    # g(y) = e^(3y) - 2 on the union of responses and t-grid, where it must
    # stay strictly increasing in floating point
    union = np.unique(np.concatenate((ys, t_grid)))
    g_union = np.exp(3.0 * union) - 2.0
    assume(np.all(np.diff(g_union) > 0.0))

    def g(values):
        return g_union[np.searchsorted(union, values)]

    c = cfg(kernel=get_kernel(name), h=h, order=order)
    grid = np.linspace(-1.5, 1.5, 7)
    sample, moved = Sample(xs=xs, ys=ys), Sample(xs=xs, ys=g(ys))
    for t_here, t_moved in (("jumps", "jumps"), (t_grid, g(t_grid))):
        a = _band_or_error(cdf_band, sample, grid, t_here, c, 0.2)
        b = _band_or_error(cdf_band, moved, grid, t_moved, c, 0.2)
        if a is InsufficientLocalData:
            assert b is InsufficientLocalData
            continue
        assert b.t.tobytes() == g(a.t).tobytes()
        for col in ("x", "estimate", "halfwidth", "lower", "upper"):
            assert getattr(b, col).tobytes() == getattr(a, col).tobytes(), col
        assert b.metadata == a.metadata

    def constant(x, y):
        return DensityPair(1.0, 1.0, "oracle")

    a = _band_or_error(quantile_band, sample, grid, alpha, c, constant)
    b = _band_or_error(quantile_band, moved, grid, alpha, c, constant)
    if a is InsufficientLocalData:
        assert b is InsufficientLocalData
        return
    assert b.estimate.tobytes() == g(a.estimate).tobytes()
    for col in ("x", "halfwidth"):
        assert getattr(b, col).tobytes() == getattr(a, col).tobytes(), col
    assert b.metadata == a.metadata


def test_quantile_band_oracle_tracks_truth():
    sample = draw(M1, 2000, 51)
    c = cfg(h=reference_bandwidth(2000))
    table = quantile_band(sample, [0.0], 0.5, c, functools.partial(true_densities, M1))
    assert table.estimate[0] == pytest.approx(0.5, abs=0.1)  # median of U(0,1)
    assert table.metadata["density_source"] == "oracle"


def test_quantile_band_zero_joint_density():
    # m2's law at x = 0 is a point mass, so the oracle joint density at the
    # quantile vanishes there: that location is skipped and recorded
    sample = draw(M2, 500, 61)
    c = cfg(h=reference_bandwidth(500))
    table = quantile_band(sample, [-0.5, 0.0, 0.5], 0.5, c, functools.partial(true_densities, M2))
    assert table.x.tolist() == [-0.5, 0.5]
    assert table.metadata["skipped_locations"] == [0.0]
    # the fit at x = 0 is sound: the error names the joint density, not the fit
    with pytest.raises(InsufficientLocalData, match=(
        r"^every grid location was skipped; the last, x = 0\.0: joint density 0\.0 at \(x, q\) = "
    )):
        quantile_band(sample, [0.0], 0.5, c, functools.partial(true_densities, M2))


def test_an_all_skipped_grid_names_its_last_location_and_that_ones_reason():
    sample = draw(M2, 500, 61)
    c = cfg(h=reference_bandwidth(500))
    oracle = functools.partial(true_densities, M2)
    with pytest.raises(InsufficientLocalData) as fit_error:
        local_weights(sample, 60.0, c)
    with pytest.raises(InsufficientLocalData) as exc:
        quantile_band(sample, [0.0, 60.0], 0.5, c, oracle)
    assert str(exc.value) == f"every grid location was skipped; the last, x = 60.0: {fit_error.value}"
    with pytest.raises(InsufficientLocalData, match=r"^[^:]*, x = 0\.0: joint density 0\.0 at"):
        quantile_band(sample, [60.0, 0.0], 0.5, c, oracle)


def test_quantile_band_skips_a_location_without_marginal_density():
    sample = draw(M1, 300, 62)

    def densities(x, q):
        return DensityPair(fx=0.0 if x == 0.0 else 1.0, fxy=1.0, source="oracle")

    table = quantile_band(sample, [-0.5, 0.0, 0.5], 0.5, cfg(), densities)
    assert table.x.tolist() == [-0.5, 0.5]
    assert table.metadata["skipped_locations"] == [0.0]


@pytest.mark.parametrize("name", ["fx", "fxy"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_quantile_band_skips_a_location_with_a_non_finite_density(name, value):
    # a NaN or infinite density would give a NaN, infinite or zero half-width
    sample = draw(M1, 500, 63)

    def densities(x, q):
        pair = {"fx": 1.0, "fxy": 1.0}
        if x == 0.0:
            pair[name] = value
        return DensityPair(**pair, source="oracle")

    table = quantile_band(sample, [0.0, 0.5], 0.5, cfg(h=0.3), densities)
    assert table.x.tolist() == [0.5]
    assert table.metadata["skipped_locations"] == [0.0]
    assert np.isfinite(table.halfwidth).all() and (table.halfwidth > 0.0).all()


def test_quantile_band_skips_a_location_whose_curve_never_reaches_alpha():
    # the raw curve ends at a sum of weights, which rounding leaves below
    # 1 - 2**-53 at some locations and not at others
    sample = draw(M1, 2000, 0)
    c = cfg(h=reference_bandwidth(2000))
    alpha = float(np.nextafter(1.0, 0.0))
    grid = np.linspace(-1.0, 1.0, 41)
    table = quantile_band(sample, grid, alpha, c, lambda x, q: density_plugin(sample, x, q, c))
    skipped = table.metadata["skipped_locations"]
    assert skipped and len(table) + len(skipped) == grid.size
    for x in skipped:
        with pytest.raises(NoCrossing):
            quantile_estimate(cdf_curve(sample, x, c, monotonize=False), alpha)


def test_quantile_band_builds_no_curve(monkeypatch):
    # the band reads each crossing from the fit's running weight sums
    sample = draw(M2, 400, 5)
    grid = np.linspace(-1.5, 1.5, 13)
    for order in (0, 1, 2):
        c = cfg(h=0.3, order=order)
        want = quantile_band(sample, grid, 0.3, c, lambda x, q: density_plugin(sample, x, q, c))
        with monkeypatch.context() as patch:
            patch.setattr(LocalWeights, "curve", None)
            got = quantile_band(sample, grid, 0.3, c, lambda x, q: density_plugin(sample, x, q, c))
        assert got.to_json() == want.to_json()
        assert got.skips == want.skips


def test_quantile_band_alpha_validation():
    sample = draw(M1, 100, 7)
    with pytest.raises(ValueError):
        quantile_band(sample, [0.0], 0.0, cfg(), functools.partial(true_densities, M1))


def test_quantile_band_plugin_metadata_note():
    sample = draw(M1, 500, 71)
    c = cfg(h=reference_bandwidth(500))

    def provider(x, y):
        return density_plugin(sample, x, y, c)

    table = quantile_band(sample, [0.0], 0.5, c, provider)
    assert table.metadata["density_source"] == "plugin"
    assert "bandwidth" in table.metadata["density_note"]


# ---------------------------------------------------------------------------
# Plug-in densities
# ---------------------------------------------------------------------------

def test_density_plugin_single_point():
    s = Sample(xs=[0.2], ys=[0.6])
    c = EstimatorConfig(kernel=UNI, bandwidth=0.5, order=0)
    pair = density_plugin(s, 0.2, 0.6, c)
    assert pair.source == "plugin"
    assert pair.fx == pytest.approx(2.0, rel=1e-14)
    assert pair.fxy == pytest.approx(4.0, rel=1e-14)


def test_density_plugin_empty_window_is_zero():
    s = Sample(xs=[0.0], ys=[0.0])
    c = EstimatorConfig(kernel=UNI, bandwidth=0.5, order=0)
    pair = density_plugin(s, 10.0, 10.0, c)
    assert pair.fx == 0.0 and pair.fxy == 0.0


@pytest.mark.parametrize("kernel", [EPA, UNI, get_kernel("gaussian")], ids=lambda k: k.name)
def test_density_plugin_after_a_fit_is_its_result_on_a_fresh_sample(kernel):
    # the fit leaves its window on the sample, and the plug-in at the same x
    # takes it from there, as in quantile_band: a numpy x, then a float x
    sample = draw(M1, 400, 82)
    c = cfg(kernel=kernel, h=0.3)
    for x in (-0.6, 0.0, 0.35):
        fit = local_weights(sample, np.float64(x), c)
        pair = density_plugin(sample, x, 0.5, c)
        fresh = density_plugin(Sample(xs=sample.xs, ys=sample.ys), x, 0.5, c)
        assert pair.fx.hex() == fresh.fx.hex() == fit.density.hex()
        assert pair.fxy.hex() == fresh.fxy.hex()


def test_density_plugin_consistency_on_model():
    sample = draw(M1, 5000, 81)
    c = cfg(h=reference_bandwidth(5000))
    phi0 = 1.0 / math.sqrt(2.0 * math.pi)
    pair = density_plugin(sample, 0.0, 0.5, c)
    assert pair.fx == pytest.approx(phi0, abs=0.05)
    # joint density at (0, 0.5) is phi(0) * 1
    assert pair.fxy == pytest.approx(phi0, abs=0.1)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_band_table_csv_and_json_round_trip():
    sample = draw(M1, 150, 91)
    c = cfg(h=0.4)
    table = cdf_band(sample, [0.0, 0.5], np.array([0.25, 0.75]), c, epsilon=0.1)
    buf = io.StringIO()
    table.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x,t,estimate,halfwidth,lower,upper"
    assert len(lines) == 1 + len(table)
    first = lines[1].split(",")
    assert float(first[0]) == table.x[0]
    assert float(first[2]) == table.estimate[0]

    doc = json.loads(table.to_json())
    assert doc["metadata"]["kind"] == "cdf"
    assert len(doc["rows"]) == len(table)
    assert doc["rows"][0]["t"] == table.t[0]

    reg = regression_band(sample, [0.0], c, y_range=(0.0, 1.0))
    buf2 = io.StringIO()
    reg.to_csv(buf2)
    row = buf2.getvalue().strip().splitlines()[1].split(",")
    assert row[1] == ""  # no response coordinate
    assert json.loads(reg.to_json())["rows"][0]["t"] is None


def reference_to_csv(table, buf):
    """The per-row ``BandTable.to_csv`` that the columnar writer replaced."""
    writer = csv.writer(buf)
    writer.writerow(["x", "t", "estimate", "halfwidth", "lower", "upper"])
    for i in range(len(table)):
        t_val = "" if math.isnan(table.t[i]) else repr(float(table.t[i]))
        writer.writerow(
            [
                repr(float(table.x[i])),
                t_val,
                repr(float(table.estimate[i])),
                repr(float(table.halfwidth[i])),
                repr(float(table.lower[i])),
                repr(float(table.upper[i])),
            ]
        )


def reference_to_json(table):
    """The per-row ``BandTable.to_json`` that the column-list form replaced."""
    rows = []
    for i in range(len(table)):
        rows.append(
            {
                "x": float(table.x[i]),
                "t": None if math.isnan(table.t[i]) else float(table.t[i]),
                "estimate": float(table.estimate[i]),
                "halfwidth": float(table.halfwidth[i]),
                "lower": float(table.lower[i]),
                "upper": float(table.upper[i]),
            }
        )
    return json.dumps({"metadata": table.metadata, "rows": rows}, sort_keys=True, indent=2)


def synthetic_table(n, seed):
    """A table whose every column is runs of repeated bits.

    Runs are 1 row long and up, and hold signed zeros, NaN and values of
    every scale.  In every column but x, which repeats in blocks of 100 like
    a band table, a run spans each chunk edge at rows 1024 and 2048.  The
    first rows put a run of -0.0 next to one of 0.0, runs of 5e-324, 1e16,
    inf and NaN in a column without blanks, and in the last column a run of
    a 17-digit value too long for a field that ends in CRLF.
    """
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-7, 1e16, -1e16, 0.1, 1.0 / 3.0,
                        np.nan, np.inf, -0.00012345678901234567])

    def column():
        starts = rng.random(n) < 0.4  # rows that start a run
        starts[:1] = True
        starts[1021:1028] = starts[2045:2052] = False
        values = np.where(rng.random(n) < 0.5, rng.choice(special, n),
                          rng.normal(scale=10.0 ** rng.integers(-9, 9, n)))
        return values[np.cumsum(starts) - 1]

    x = np.repeat(rng.normal(size=n // 100 + 1), 100)[:n]
    t, estimate, halfwidth, lower, upper = (column() for _ in range(5))
    estimate[:6] = np.repeat([-0.0, 0.0], 3)[:n]
    lower[:12] = np.repeat([5e-324, 1e16, np.inf, np.nan], 3)[:n]
    upper[:6] = np.repeat([-0.00012345678901234567, 1e-7], 3)[:n]
    return BandTable(x=x, t=t, estimate=estimate, halfwidth=halfwidth,
                     lower=lower, upper=upper, metadata={"kind": "synthetic"})


def csv_text(table, writer):
    buf = io.StringIO()
    writer(table, buf)
    return buf.getvalue()


@pytest.mark.parametrize("n", [0, 1, 2, 12, 1023, 1024, 1025, 1027, 2047, 2048, 2049, 2051, 4097])
def test_to_csv_matches_per_row_writer(n):
    table = synthetic_table(n, seed=n)
    for col in table._columns():
        bits = col.view(np.uint64)
        assert n < 12 or (bits[1:] == bits[:-1]).any()  # each column has runs
    got = csv_text(table, BandTable.to_csv)
    assert got == csv_text(table, reference_to_csv)
    assert got.count("\r\n") == n + 1


@pytest.mark.parametrize("n", [1, 1024, 2500])
def test_write_csv_of_a_sample_matches_csv_writer(n):
    # the layout of a simulated sample: two columns of distinct values
    rng = np.random.default_rng(n)
    xs, ys = rng.uniform(-1.0, 1.0, n), rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)
    got = io.StringIO()
    write_csv(got, ("x", "y"), (xs, ys))
    expected = io.StringIO()
    csv.writer(expected).writerows([("x", "y"), *((repr(a), repr(b)) for a, b in
                                                 zip(xs.tolist(), ys.tolist()))])
    assert got.getvalue() == expected.getvalue()


def test_to_csv_keeps_signed_zeros_and_nan_text():
    # One chunk holding 0.0 and -0.0 in every column: a writer that merged
    # equal floats would print one sign for both.
    z = np.array([0.0, -0.0, 0.0, -0.0])
    table = BandTable(x=z, t=np.array([np.nan, -0.0, 0.0, np.nan]), estimate=z,
                      halfwidth=np.array([np.nan, 1e-7, 1e16, 5e-324]),
                      lower=-z, upper=z)
    got = csv_text(table, BandTable.to_csv)
    assert got == csv_text(table, reference_to_csv)
    assert got.splitlines()[1:] == [
        "0.0,,0.0,nan,-0.0,0.0",
        "-0.0,-0.0,-0.0,1e-07,0.0,-0.0",
        "0.0,0.0,0.0,1e+16,-0.0,0.0",
        "-0.0,,-0.0,5e-324,0.0,-0.0",
    ]


def test_to_csv_band_tables_match_per_row_writer():
    sample = draw(M1, 3000, 17)
    c = cfg(h=0.3)
    tables = [
        cdf_band(sample, np.linspace(-1, 1, 5), "jumps", c, epsilon=0.5),
        cdf_band(sample, np.linspace(-1, 1, 5), np.linspace(0, 1, 11), c, clip=False),
        regression_band(sample, np.linspace(-1, 1, 5), c, y_range=(0.0, 1.0)),
    ]
    for table in tables:
        assert csv_text(table, BandTable.to_csv) == csv_text(table, reference_to_csv)
        assert table.to_json() == reference_to_json(table)


def test_to_json_matches_per_row_form():
    table = synthetic_table(300, seed=3)
    assert table.to_json() == reference_to_json(table)


def test_to_csv_accepts_str_path_and_text_file(tmp_path):
    table = synthetic_table(2100, seed=9)
    table.to_csv(str(tmp_path / "str.csv"))
    table.to_csv(tmp_path / "path.csv")
    buf = io.StringIO()
    table.to_csv(buf)
    expected = buf.getvalue().encode()
    assert (tmp_path / "str.csv").read_bytes() == expected
    assert (tmp_path / "path.csv").read_bytes() == expected


def test_to_csv_keeps_the_encoding_of_a_text_file(tmp_path):
    table = synthetic_table(1500, seed=11)
    expected = csv_text(table, reference_to_csv)
    with open(tmp_path / "utf16.csv", "w", encoding="utf-16", newline="") as fh:
        table.to_csv(fh)
    data = (tmp_path / "utf16.csv").read_bytes()
    assert data[:2] in (b"\xff\xfe", b"\xfe\xff")  # a byte-order mark
    assert data.decode("utf-16") == expected
    assert csv_text(table, BandTable.to_csv) == expected
    buf = io.BytesIO()
    table.to_csv(buf)
    assert buf.getvalue() == expected.encode()


def test_serializers_reject_ragged_columns():
    table = synthetic_table(10, seed=1)
    table.t = table.t[:-1]
    with pytest.raises(ValueError, match="differ in length"):
        table.to_csv(io.StringIO())
    with pytest.raises(ValueError, match="differ in length"):
        table.to_json()
