import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import condbands
from condbands import (
    draw,
    draw_conditional,
    marginal_density,
    sim_model,
    true_cdf,
    true_cdf_grid,
    true_densities,
    true_quantile,
    true_regression,
)
from condbands.experiments import _gl_nodes
from condbands.simulation import prepare_weighted_cdf

M1 = sim_model("m1")
M2 = sim_model("m2")
PHI_0 = 1.0 / math.sqrt(2.0 * math.pi)
PHI_1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)


def test_model_kinds():
    assert sim_model("M1").kind == "m1"
    with pytest.raises(ValueError):
        sim_model("m3")


def test_draw_determinism_and_shapes():
    a = draw(M1, 50, 42)
    b = draw(M1, 50, 42)
    c = draw(M1, 50, 43)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert not np.array_equal(a.ys, c.ys)
    assert a.n == 50
    # spawned child streams are reproducible and distinct from the root
    child = np.random.SeedSequence(42, spawn_key=(0,))
    d = draw(M1, 50, child)
    e = draw(M1, 50, np.random.SeedSequence(42, spawn_key=(0,)))
    assert np.array_equal(d.ys, e.ys)
    assert not np.array_equal(d.ys, a.ys)
    with pytest.raises(ValueError):
        draw(M1, 0, 1)


def test_draw_supports():
    s1 = draw(M1, 2000, 7)
    assert (s1.ys >= 0.0).all() and (s1.ys < 1.0).all()
    s2 = draw(M2, 2000, 7)
    assert (np.abs(s2.ys) <= np.abs(s2.xs)).all()


def test_conditional_draws():
    ys = draw_conditional(M1, 1.0, 1000, 3)
    assert (ys >= 0.0).all() and (ys < 1.0).all()
    zeros = draw_conditional(M2, 0.0, 100, 3)
    assert np.all(zeros == 0.0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        draw_conditional(M1, 0.0, 0, 1)


@pytest.mark.parametrize(
    "x,t,expected",
    [
        (1.0, 0.5, 0.75),          # 1 - (1 - 0.5)^2
        (0.0, 0.3, 0.3),           # uniform conditional law at x = 0
        (0.0, -0.1, 0.0),
        (0.0, 1.5, 1.0),
        (2.0, 1.0, 1.0),
    ],
)
def test_m1_cdf_values(x, t, expected):
    assert true_cdf(M1, x, t) == pytest.approx(expected, abs=1e-15)


def test_m2_cdf_values():
    assert true_cdf(M2, 1.0, 0.0) == pytest.approx(0.5)
    assert true_cdf(M2, 1.0, -1.0) == 0.0
    assert true_cdf(M2, 1.0, 1.0) == 1.0
    assert true_cdf(M2, -2.0, 1.0) == pytest.approx(0.75)
    # point mass at the origin
    assert true_cdf(M2, 0.0, 0.0) == 1.0
    assert true_cdf(M2, 0.0, -1e-12) == 0.0


def test_cdf_grid_matches_pointwise():
    xs = np.array([-1.0, 0.0, 0.5, 2.0])
    ts = np.linspace(-0.5, 1.5, 9)
    for model in (M1, M2):
        grid = true_cdf_grid(model, xs, ts)
        assert grid.shape == (4, 9)
        for i, x in enumerate(xs):
            assert np.allclose(grid[i], true_cdf(model, float(x), ts), atol=1e-14)


@pytest.mark.parametrize("kind", ["m1", "m2"])
@pytest.mark.parametrize("x", [0.0, -0.0, 0.37, -1.0, 2.5])
def test_true_cdf_is_the_one_location_row_of_the_grid(kind, x):
    # t below, inside and above the support of either law
    ts = np.array([-3.0, -1.0, -0.2, -1e-12, 0.0, 0.3, 0.5, 0.999, 1.0, 1.7, 3.0])
    model = sim_model(kind)
    row = true_cdf_grid(model, [x], ts)[0]
    assert true_cdf(model, x, ts).tobytes() == row.tobytes()
    for t, expected in zip(ts, row):
        value = true_cdf(model, x, float(t))
        assert type(value) is float
        assert np.float64(value).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["m1", "m2"])
@pytest.mark.parametrize("support", [(-1.0, 1.0), None], ids=["compact", "gaussian"])
@pytest.mark.parametrize("rows", [0, 1, 2])
def test_weighted_cdf_is_the_weighted_sum_of_grid_rows(kind, support, rows):
    # the centering's nodes, z = x - h u, plus nodes at z = 0 and at
    # |z| = |t|; t at 0, below 0, at +-|z| and beyond every node's support
    model = sim_model(kind)
    u, _ = _gl_nodes(support)
    zs = np.concatenate((0.2 - 0.3 * u, [0.0, -0.0, 0.35, -0.35, 0.6]))
    ts = np.concatenate((
        [0.0, -0.0, -0.2, -1.0, 0.35, -0.35, 0.6, -0.6, 1.0, 1.5, -40.0, 40.0],
        zs[::7], -zs[3::11], np.linspace(-3.0, 3.0, 61),
    ))
    weights = np.random.default_rng(rows).standard_normal((rows, zs.size))
    got = prepare_weighted_cdf(model, zs, weights)(ts)
    want = weights @ true_cdf_grid(model, zs, ts)
    assert got.shape == want.shape == (rows, ts.size)
    scale = np.abs(weights).sum(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    assert prepare_weighted_cdf(model, zs, weights)([]).shape == (rows, 0)


@pytest.mark.parametrize("kind", ["m1", "m2"])
def test_prepared_weighted_cdf_is_weighted_cdf_at_every_evaluation(kind):
    # one prepared node set, evaluated at several response-point arrays in
    # turn, gives a freshly prepared set's bits each time: evaluation
    # mutates nothing
    model = sim_model(kind)
    u, _ = _gl_nodes((-1.0, 1.0))
    zs = np.concatenate((0.2 - 0.3 * u, [0.0, 0.35]))
    weights = np.random.default_rng(3).standard_normal((2, zs.size))
    zs_before, weights_before = zs.copy(), weights.copy()
    ts = np.concatenate(([0.0, -0.0, -0.35, 0.35, -40.0, 40.0], np.linspace(-1.5, 1.5, 31)))
    prepared = prepare_weighted_cdf(model, zs, weights)
    for points in (ts, np.array([]), ts[::-1], [0.35, -0.2], ts[:3], ts):
        got = prepared(points)
        want = prepare_weighted_cdf(model, zs, weights)(points)
        assert got.shape == (2, len(points))
        assert got.tobytes() == want.tobytes()
    assert prepared(ts).tobytes() == prepare_weighted_cdf(model, zs_before, weights_before)(ts).tobytes()
    assert zs.tobytes() == zs_before.tobytes() and weights.tobytes() == weights_before.tobytes()


@pytest.mark.parametrize("kind", ["m1", "m2"])
def test_weighted_cdf_rows_do_not_depend_on_the_other_rows(kind):
    # each row of a many-row sum has the bits of that row summed alone, so a
    # centering of several orders equals each order's own centering exactly
    model = sim_model(kind)
    u, _ = _gl_nodes((-1.0, 1.0))
    zs = 0.4 - 0.25 * u
    weights = np.random.default_rng(5).standard_normal((3, zs.size))
    ts = np.linspace(-0.2, 1.2, 301)
    rows = prepare_weighted_cdf(model, zs, weights)(ts)
    for i in range(3):
        alone = prepare_weighted_cdf(model, zs, weights[i : i + 1])(ts)[0]
        assert rows[i].tobytes() == alone.tobytes()


@pytest.mark.parametrize("kind", ["m1", "m2"])
def test_conditional_draws_are_the_true_quantiles_of_their_uniforms(kind):
    model = sim_model(kind)
    for x in (0.0, 0.8, -1.7):
        ys = draw_conditional(model, x, 4000, 5)
        us = np.random.default_rng(5).random(4000)
        qs = np.array([true_quantile(model, x, u) for u in us])
        assert np.abs(ys - qs).max() <= 1e-15


def _kind_comparisons(path):
    """Lines where a ``.kind`` attribute is compared with a string literal."""
    def is_str(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_str(e) for e in node.elts)
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    def is_kind(node):
        return isinstance(node, ast.Attribute) and node.attr == "kind"

    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_kind, operands)) and any(map(is_str, operands)):
                lines.append(node.lineno)
        elif isinstance(node, ast.Match) and is_kind(node.subject):
            lines.append(node.lineno)
    return lines


def test_only_simulation_branches_on_the_model_kind():
    # each model's law is written once, in simulation.py
    package = Path(condbands.__file__).parent
    assert _kind_comparisons(package / "simulation.py")  # the scan finds them
    offenders = {
        path.name: _kind_comparisons(path)
        for path in sorted(package.glob("*.py"))
        if path.name != "simulation.py"
    }
    assert {name: lines for name, lines in offenders.items() if lines} == {}


def test_cdf_monotone_in_t():
    ts = np.linspace(-2, 2, 401)
    for model in (M1, M2):
        for x in (-1.0, 0.0, 0.7):
            vals = true_cdf(model, x, ts)
            assert np.all(np.diff(vals) >= -1e-15)
            assert vals[0] == 0.0 and vals[-1] == 1.0


def test_quantiles():
    assert true_quantile(M1, 1.0, 0.5) == pytest.approx(1.0 - math.sqrt(0.5), rel=1e-12)
    assert true_quantile(M1, 0.0, 0.25) == pytest.approx(0.25)
    assert true_quantile(M2, 1.0, 0.75) == pytest.approx(0.5)
    assert true_quantile(M2, 0.0, 0.3) == 0.0
    with pytest.raises(ValueError):
        true_quantile(M1, 0.0, 1.0)
    # galois relation: the cdf at the quantile reaches the level
    for model in (M1, M2):
        for x in (0.0, 0.4, -1.3):
            for alpha in (0.1, 0.5, 0.9):
                q = true_quantile(model, x, alpha)
                assert true_cdf(model, x, q) >= alpha - 1e-12


def test_regression_values_and_quadrature():
    assert true_regression(M1, 0.0) == pytest.approx(0.5)
    assert true_regression(M1, 1.0) == pytest.approx(1.0 / 3.0)
    assert true_regression(M2, 0.7) == 0.0
    for x in (0.0, 1.0, -0.6):
        b = 1.0 + x * x
        mean, _ = quad(lambda y: y * b * (1.0 - y) ** (x * x), 0.0, 1.0)
        assert true_regression(M1, x) == pytest.approx(mean, abs=1e-6)


def test_densities():
    assert marginal_density(M1, 0.0) == pytest.approx(PHI_0, rel=1e-12)
    pair = true_densities(M1, 1.0, 0.0)
    assert pair.source == "oracle"
    assert pair.fx == pytest.approx(PHI_1, rel=1e-12)
    assert pair.fxy == pytest.approx(2.0 * PHI_1, rel=1e-12)  # 0.483941...
    assert true_densities(M1, 0.0, 2.0).fxy == 0.0
    # m2: flat conditional density on (-|x|, |x|), none at the atom
    assert true_densities(M2, 1.0, 0.5).fxy == pytest.approx(PHI_1 * 0.5, rel=1e-12)
    assert true_densities(M2, 0.0, 0.0).fxy == 0.0
    # conditional density integrates the cdf's derivative
    for x in (0.5, 1.5):
        mass, _ = quad(lambda y: true_densities(M1, x, y).fxy / marginal_density(M1, x), 0, 1)
        assert mass == pytest.approx(1.0, abs=1e-9)


def _ecdf_sup_distance(model, x, draws):
    ys = np.sort(draws)
    n = ys.size
    cdf_vals = true_cdf(model, x, ys)
    upper = np.abs(np.arange(1, n + 1) / n - cdf_vals)
    lower = np.abs(np.arange(0, n) / n - cdf_vals)
    return max(upper.max(), lower.max())


@pytest.mark.parametrize("kind,x", [("m1", 0.0), ("m1", 1.0), ("m2", 1.0)])
def test_conditional_law_against_empirical(kind, x):
    model = sim_model(kind)
    draws = draw_conditional(model, x, 20_000, 123)
    assert _ecdf_sup_distance(model, x, draws) <= 0.02
    assert abs(draws.mean() - true_regression(model, x)) <= 0.02
    assert abs(np.quantile(draws, 0.5) - true_quantile(model, x, 0.5)) <= 0.02
