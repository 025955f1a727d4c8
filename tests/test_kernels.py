import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from condbands import KERNELS, get_kernel

ALL_NAMES = sorted(KERNELS)


def test_registry_names():
    assert ALL_NAMES == ["epanechnikov", "gaussian", "uniform"]
    assert get_kernel("Epanechnikov").name == "epanechnikov"
    with pytest.raises(ValueError):
        get_kernel("tricube")


@pytest.mark.parametrize(
    "name,u,expected",
    [
        ("epanechnikov", 0.0, 0.75),
        ("epanechnikov", 1.0, 0.0),
        ("epanechnikov", -1.0, 0.0),
        ("epanechnikov", 2.0, 0.0),
        ("uniform", 0.25, 1.0),
        ("uniform", 0.75, 0.0),
        ("gaussian", 0.0, 1.0 / math.sqrt(2.0 * math.pi)),
    ],
)
def test_pointwise_values(name, u, expected):
    assert get_kernel(name).eval(u) == pytest.approx(expected, abs=1e-15)


def test_uniform_boundary_right_continuous():
    # the support is the half-open interval [-1/2, 1/2)
    k = get_kernel("uniform")
    assert k.eval(-0.5) == 1.0
    assert k.eval(0.5) == 0.0
    assert k.eval(np.nextafter(-0.5, -1.0)) == 0.0
    assert k.eval(np.nextafter(0.5, 0.0)) == 1.0


@pytest.mark.parametrize(
    "name,l2",
    [
        ("epanechnikov", 0.6),
        ("uniform", 1.0),
        ("gaussian", 1.0 / (2.0 * math.sqrt(math.pi))),
    ],
)
def test_l2_norm_closed_forms(name, l2):
    assert get_kernel(name).l2_norm_sq == pytest.approx(l2, rel=1e-15)


@pytest.mark.parametrize(
    "name,moments",
    [
        ("epanechnikov", (1.0, 0.0, 0.2, 0.0, 3.0 / 35.0)),
        ("uniform", (1.0, 0.0, 1.0 / 12.0, 0.0, 1.0 / 80.0)),
        ("gaussian", (1.0, 0.0, 1.0, 0.0, 3.0)),
    ],
)
def test_moment_closed_forms(name, moments):
    k = get_kernel(name)
    for j, m in enumerate(moments):
        assert k.moments[j] == pytest.approx(m, rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_constants_against_quadrature(name):
    k = get_kernel(name)
    a, b = k.support if k.support is not None else (-np.inf, np.inf)
    mass, _ = quad(lambda u: k.eval(u), a, b, epsabs=1e-12)
    assert mass == pytest.approx(1.0, rel=1e-9)
    l2, _ = quad(lambda u: k.eval(u) ** 2, a, b, epsabs=1e-12)
    assert l2 == pytest.approx(k.l2_norm_sq, rel=1e-9)
    for j in range(5):
        mj, _ = quad(lambda u: u ** j * k.eval(u), a, b, epsabs=1e-12)
        assert mj == pytest.approx(k.moments[j], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_symmetry_off_boundary(name):
    # symmetric up to the measure-zero support boundary, where the
    # right-continuous convention breaks the tie for the uniform kernel
    k = get_kernel(name)
    rng = np.random.default_rng(7)
    u = rng.uniform(-2.0, 2.0, size=500)
    u = u[np.abs(np.abs(u) - 0.5) > 1e-9]
    assert np.allclose(k.eval(u), k.eval(-u), atol=1e-12)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_nonnegative_and_array_shape(name):
    k = get_kernel(name)
    u = np.linspace(-3, 3, 101)
    vals = k.eval(u)
    assert vals.shape == u.shape
    assert (vals >= 0).all()
    assert isinstance(k.eval(0.3), float)



# The one-line formulas the kernels evaluate in place; their bits are the reference.
ONE_LINE = {
    "epanechnikov": lambda u: 0.75 * np.maximum(0.0, 1.0 - u * u),
    "uniform": lambda u: np.where((u >= -0.5) & (u < 0.5), 1.0, 0.0),
    "gaussian": lambda u: np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi),
}
_TINY = np.finfo(float).tiny
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, _TINY, -_TINY, _TINY / 3.0, 1e-300, 1e300, -1e300,
    1.7976931348623157e308, math.inf, -math.inf, math.nan, 38.6, -38.6, 1e154, 1.5e154,
    *(np.nextafter(edge, edge + d) for edge in (-1.0, -0.5, 0.5, 1.0) for d in (-1.0, 0.0, 1.0)),
]


@given(
    values=st.lists(st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-1e300, 1e300)), max_size=40),
    step=st.sampled_from([1, 2, -1]),
)
@settings(max_examples=200, deadline=None)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_kernels_have_the_bits_of_their_one_line_formulas(name, values, step):
    kernel, reference = get_kernel(name), ONE_LINE[name]
    full = np.array(values, dtype=float)
    u = full[::step]  # a strided or reversed view for steps other than 1
    before = full.copy()
    with np.errstate(over="ignore"):
        got, want = kernel.eval(u), reference(u)
        column = kernel.eval(np.stack([u, u], axis=1)[:, 1])  # a column of a 2-d array
        scalars = [kernel.eval(np.float64(v)) for v in u[:5]]
        wants = [reference(np.asarray(v)) for v in u[:5]]
    assert got.shape == u.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert column.tobytes() == want.tobytes()
    assert full.tobytes() == before.tobytes()  # the input is not written
    for value, expected in zip(scalars, wants):
        assert type(value) is float
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_kernels_keep_the_shape_of_empty_and_2d_inputs(name):
    kernel = get_kernel(name)
    assert kernel.eval(np.empty(0)).shape == (0,)
    grid = np.linspace(-1.5, 1.5, 12).reshape(3, 4)
    for u in (grid, grid.T):
        assert kernel.eval(u).tobytes() == ONE_LINE[name](u).tobytes()
        assert kernel.eval(u).shape == u.shape
