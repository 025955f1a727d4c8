import math

import numpy as np
import pytest
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

