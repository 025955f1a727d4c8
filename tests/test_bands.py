import io
import json
import math

import numpy as np
import pytest
from conftest import counting_kernel

from condbands import (
    BandTable,
    DensityPair,
    EstimatorConfig,
    InsufficientLocalData,
    InvalidBandwidth,
    Sample,
    YRangeViolation,
    ZeroJointDensity,
    band_halfwidth,
    cdf_band,
    cdf_curve,
    certainty_halfwidth,
    density_plugin,
    draw,
    get_kernel,
    oracle_density_provider,
    quantile_band,
    reference_bandwidth,
    regression_band,
    sim_model,
)

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
    with pytest.raises(InvalidBandwidth):
        certainty_halfwidth(0.6, 1.0, 100, 0.4)
    with pytest.raises(InvalidBandwidth):
        certainty_halfwidth(0.6, 1.5, 100, 0.4)
    with pytest.raises(InsufficientLocalData):
        certainty_halfwidth(0.6, 0.3, 100, 0.0)


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
    curve = cdf_curve(sample, 0.2, c, monotonize=False)
    assert np.allclose(table.estimate, curve.value_at(ts), atol=1e-14)
    assert np.allclose(table.t, ts)


def test_cdf_band_skips_empty_windows():
    sample = draw(M1, 200, 11)
    c = cfg(h=0.3)
    table = cdf_band(sample, [0.0, 50.0], np.array([0.5]), c)
    assert table.metadata["skipped_locations"] == [50.0]
    assert set(np.unique(table.x)) == {0.0}
    with pytest.raises(InsufficientLocalData):
        cdf_band(sample, [50.0, 60.0], np.array([0.5]), c)


def test_band_functions_fit_each_location_once():
    # the cdf and regression bands take the fit and L(x) from one kernel
    # pass per location; the quantile band adds density_plugin's two
    sample = draw(M1, 300, 12)
    kernel, calls = counting_kernel(EPA, sample.n)
    c = cfg(kernel=kernel, h=0.35)
    grid = np.linspace(-1.0, 1.0, 7)
    cdf_band(sample, grid, "jumps", c)
    assert len(calls) == grid.size
    calls.clear()
    regression_band(sample, grid, c, (0.0, 1.0))
    assert len(calls) == grid.size
    calls.clear()
    quantile_band(sample, grid, 0.5, c, lambda x, y: density_plugin(sample, x, y, c))
    assert len(calls) == 3 * grid.size


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


def test_quantile_band_oracle_tracks_truth():
    sample = draw(M1, 2000, 51)
    c = cfg(h=reference_bandwidth(2000))
    table = quantile_band(sample, [0.0], 0.5, c, oracle_density_provider(M1))
    assert table.estimate[0] == pytest.approx(0.5, abs=0.1)  # median of U(0,1)
    assert table.metadata["density_source"] == "oracle"


def test_quantile_band_zero_joint_density():
    sample = draw(M2, 500, 61)
    c = cfg(h=reference_bandwidth(500))
    with pytest.raises(ZeroJointDensity):
        quantile_band(sample, [0.0], 0.5, c, oracle_density_provider(M2))


def test_quantile_band_alpha_validation():
    sample = draw(M1, 100, 7)
    with pytest.raises(ValueError):
        quantile_band(sample, [0.0], 0.0, cfg(), oracle_density_provider(M1))


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
