"""Synthetic benchmark models with closed-form conditional laws.

Both models draw the design variable X from a standard normal.

m1: Y | X = x follows a Beta(1, 1 + x^2) law on [0, 1], so
    F(t | x) = 1 - (1 - t)^(1 + x^2) on [0, 1], with conditional mean
    1 / (2 + x^2).

m2: Y | X = x is uniform on (-|x|, |x|); at x = 0 the law degenerates to
    a point mass at 0.  So F(t | x) = [t >= 0] where |x| <= |t|, and
    (t + |x|) / (2 |x|) where |x| > |t|.  The conditional mean is
    identically 0.

Each model's cdf, inverse (for draws and quantiles), densities and cdf
kink points are written here once; no other module branches on its kind.

Draws are reproducible: the generator is seeded with the ``seed``
argument, which may be anything numpy accepts as a seed.  Replicated
experiments derive the stream for replication r by spawning child r of
the root seed, which never collides with the root stream itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import DensityPair
from .estimator import Sample, _check_integer, _check_open_unit

__all__ = [
    "MODEL_KINDS",
    "SimModel",
    "sim_model",
    "draw",
    "draw_conditional",
    "true_cdf",
    "true_cdf_grid",
    "prepare_weighted_cdf",
    "cdf_kinks",
    "true_quantile",
    "true_regression",
    "true_densities",
    "marginal_density",
]

MODEL_KINDS = ("m1", "m2")

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SimModel:
    kind: str

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected m1 or m2")


def sim_model(kind: str) -> SimModel:
    return SimModel(kind=kind.lower())


def _y_from_uniform(kind: str, x, u):
    """The conditional quantile function at level u; x and u may be arrays."""
    if kind == "m1":
        return 1.0 - (1.0 - u) ** (1.0 / (1.0 + x * x))
    return np.abs(x) * (2.0 * u - 1.0)


def draw(model: SimModel, n: int, seed) -> Sample:
    """Draw n pairs (X, Y) from the model using a seeded generator."""
    _check_integer("n", n, least=1)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    u = rng.random(n)
    return Sample(xs=x, ys=_y_from_uniform(model.kind, x, u))


def draw_conditional(model: SimModel, x: float, n: int, seed) -> np.ndarray:
    """Draw n responses from the conditional law at a fixed x."""
    _check_integer("n", n, least=1)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return _y_from_uniform(model.kind, np.full(n, float(x)), u)


def true_cdf(model: SimModel, x: float, t):
    """Conditional distribution function F(t | x); t may be an array."""
    t_arr = np.asarray(t, dtype=float)
    out = true_cdf_grid(model, [x], t_arr.ravel())[0].reshape(t_arr.shape)
    return float(out) if t_arr.ndim == 0 else out


def true_cdf_grid(model: SimModel, xs, ts) -> np.ndarray:
    """Matrix F(ts[j] | xs[i]) with shape (len(xs), len(ts))."""
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if model.kind == "m1":
        b = 1.0 + xs * xs
        inner = 1.0 - (1.0 - np.clip(ts, 0.0, 1.0))[None, :] ** b[:, None]
        return np.where(ts < 0.0, 0.0, np.where(ts > 1.0, 1.0, inner))
    ax = np.abs(xs)[:, None]
    out = np.empty((xs.size, ts.size))
    out[...] = ts >= 0.0
    # (t + |x|) / (2 |x|) only where |x| > |t|, so |x| = 0 is never divided by
    np.divide(ts + ax, 2.0 * ax, out=out, where=ax > np.abs(ts))
    return out


def prepare_weighted_cdf(model: SimModel, zs, weights):
    """Weighted sums of F(t | z) over fixed nodes ``zs``, as a function of ``ts``.

    ``weights`` holds one row of node weights per sum.  The function
    returned gives, at response points ``ts``, the (len(weights), len(ts))
    array ``weights @ true_cdf_grid(model, zs, ts)``.

    Everything that does not depend on ``ts`` is done here, once; the
    function returned mutates nothing, so it may be evaluated at any number
    of response-point arrays.  m1 keeps the nodes and weights for one
    nodes x points matrix per evaluation, and takes each row as its own
    one-row product with it: a many-row product may round differently, so a
    row's bits would depend on the other rows.  m2's cdf is [t >= 0] where
    |z| <= |t| and (t + |z|) / (2 |z|) = 1/2 + t / (2 |z|) where |z| > |t|,
    so its sums need only the nodes sorted by |z|, running sums of w and of
    w / |z|, and one ``searchsorted`` of |t| per evaluation: O(K log K)
    here and O(T log K) per evaluation for K nodes and T points, instead of
    the K x T matrix.
    """
    zs = np.asarray(zs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if model.kind == "m1":
        def at_m1(ts):
            grid = true_cdf_grid(model, zs, np.asarray(ts, dtype=float))
            out = np.empty((len(weights), grid.shape[1]))
            for i in range(len(weights)):
                out[i] = weights[i : i + 1] @ grid
            return out

        return at_m1
    order = np.argsort(-np.abs(zs))
    az = np.abs(zs)[order]
    w = weights[:, order]
    # running sums of w (rows :p) and of w / |z| (rows p:) from the largest
    # |z| down: a sum over |z| > |t| then keeps only terms t * w / |z| smaller
    # than their |w|, and the w of the other nodes is the total minus it
    p = len(w)
    sums = np.zeros((2 * p, az.size + 1))
    np.cumsum(np.concatenate((w, w / np.where(az > 0.0, az, np.inf))), axis=1, out=sums[:, 1:])
    totals = sums[:p, -1:]
    neg_az = -az

    def at(ts):
        ts = np.asarray(ts, dtype=float)
        above = sums.take(np.searchsorted(neg_az, -np.abs(ts)), axis=1)  # sums over |z| > |t|
        above_w = above[:p]
        return 0.5 * (above_w + ts * above[p:]) + (ts >= 0.0) * (totals - above_w)

    return at


def cdf_kinks(model: SimModel, t: float) -> tuple[float, ...]:
    """Design points z at which z -> F(t | z) may fail to be smooth.

    m1's law is smooth in z.  m2's cdf, (t + |z|) / (2 |z|) clipped to
    [0, 1], bends where |z| = |t|, and z = 0 carries the atom.
    """
    if model.kind == "m1":
        return ()
    return (t, -t, 0.0)


def true_quantile(model: SimModel, x: float, alpha: float) -> float:
    """Conditional quantile of level alpha; the generalized inverse at x."""
    _check_open_unit("alpha", alpha)
    return _y_from_uniform(model.kind, x, alpha)


def true_regression(model: SimModel, x: float) -> float:
    """Conditional mean E[Y | X = x]."""
    if model.kind == "m1":
        return 1.0 / (2.0 + x * x)
    return 0.0


def marginal_density(model: SimModel, x):
    """Design density; standard normal for both models."""
    x_arr = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x_arr * x_arr) / _SQRT_2PI
    return float(out) if x_arr.ndim == 0 else out


def _conditional_density(model: SimModel, x: float, y: float) -> float:
    if model.kind == "m1":
        if not 0.0 <= y <= 1.0:
            return 0.0
        b = 1.0 + x * x
        return b * (1.0 - y) ** (x * x)
    ax = abs(x)
    if ax == 0.0:
        return 0.0  # point mass at 0 has no density
    return 1.0 / (2.0 * ax) if -ax < y < ax else 0.0


def true_densities(model: SimModel, x: float, y: float) -> DensityPair:
    """Oracle marginal and joint densities at (x, y)."""
    fx = marginal_density(model, x)
    return DensityPair(fx=fx, fxy=fx * _conditional_density(model, x, y), source="oracle")

