"""Local polynomial estimation of the conditional distribution function.

Conventions used throughout the package, for a sample (X_i, Y_i), a
location x and a bandwidth h in (0, 1):

    u_i = (x - X_i) / h
    local moment j : (1 / (n h)) * sum_i  u_i^j K(u_i)

Estimators of order p in {0, 1, 2} all reduce to a weight vector w(x)
aligned with the sample, with sum(w) = 1 and, for p >= 1, sum(w u) = 0.
The estimated conditional distribution at t is then sum_i w_i 1{Y_i <= t}.
Order 0 weights are nonnegative; orders 1 and 2 may produce negative
weights, hence raw distribution curves need not be monotone.

Only the kernel window {i : K(u_i) > 0} contributes to these sums, so every
fit works on the window alone (Fan & Marron, 1994).  A :class:`Sample`
caches its X order and sorted xs, and its responses and their ranks in X
order; the window of x is a run [lo, hi) of those X-sorted columns, cut
with ``searchsorted`` and narrowed to K > 0, and the kernel is evaluated
on that run only (:func:`kernel_window`).  A kernel without a support
(Gaussian) runs over the whole sorted sample.
:class:`LocalWeights` keeps the window's run and weights; its curve,
quantile and regression estimate slice the run, and it builds the n-long
weight vector on demand.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InsufficientLocalData, InvalidBandwidth, NoCrossing
from .kernels import Kernel

__all__ = [
    "Sample",
    "EstimatorConfig",
    "LocalWeights",
    "KernelWindow",
    "CdfCurve",
    "local_moments",
    "local_weights",
    "kernel_window",
    "cdf_estimate",
    "cdf_curve",
    "regression_estimate",
    "quantile_estimate",
    "reference_bandwidth",
]

# A local fit whose denominator is below this in absolute value is degenerate.
_DENOM_TOL = 1e-12
# The local polynomial orders a fit may have.
ORDERS = (0, 1, 2)


def _check_open_unit(name: str, value, error=ValueError) -> float:
    """``value`` as a Python float; raise ``error`` unless it lies in the open interval (0, 1)."""
    if not 0.0 < value < 1.0:
        raise error(f"{name} must lie in (0, 1), got {value!r}")
    return float(value)


def _check_integer(name: str, value, least: int | None = None, among=()) -> int:
    """``value`` as a Python int; raise ValueError unless it is a non-bool integer >= ``least``,
    and one of ``among`` when that lists any."""
    # a plain int skips the isinstance tests: this guards the half-width of every band location
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if among and value not in among:
        raise ValueError(f"{name} must be one of {', '.join(map(str, among))}, got {value}")
    return int(value)


_TEXT = (str, bytes, bytearray)


def _holds_text(values) -> bool:
    """Whether ``values`` is, or holds, a str, bytes or bytearray: float() and numpy parse those."""
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        return kind in "SU" or (kind == "O" and any(isinstance(v, _TEXT) for v in values.flat))
    return isinstance(values, _TEXT) or (
        isinstance(values, (list, tuple)) and any(_holds_text(v) for v in values)
    )


def _check_interval(name: str, pair) -> tuple[float, float]:
    """``pair`` as floats (a, b); raise ValueError unless a < b with b - a finite."""
    try:
        if _holds_text(pair):
            raise TypeError
        a, b = (float(v) for v in pair)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair (a, b) of numbers, got {pair!r}") from None
    if not math.isfinite(b - a):
        raise ValueError(f"{name} must be finite, with a finite width, got ({a}, {b})")
    if not a < b:
        raise ValueError(f"{name} must satisfy a < b, got ({a}, {b})")
    return a, b


def _check_grid(name: str, values) -> np.ndarray:
    """``values`` as a float array; raise ValueError unless it is non-empty and one-dimensional."""
    if _holds_text(values):
        raise ValueError(f"{name} must hold numbers, not text")
    grid = np.asarray(values, dtype=float)
    if grid.size == 0:
        raise ValueError(f"{name} must not be empty")
    if grid.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {grid.shape}")
    return grid


@dataclass(frozen=True)
class Sample:
    """Paired observations (xs[i], ys[i]), stored as read-only float arrays."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float)
        ys = np.array(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
            raise ValueError("xs and ys must be one-dimensional and equally long")
        if xs.size == 0:
            raise ValueError("sample must contain at least one observation")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("sample contains non-finite values")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, so the arrays come
        # back read-only and the caches below are recomputed on first use
        return Sample, (self.xs, self.ys)

    @property
    def n(self) -> int:
        return self.xs.size

    # Computed once, on first use, and kept in the instance dict: not fields,
    # so they stay out of repr and ==.  Two threads may both compute one; the
    # results are identical, so either may be kept.

    @cached_property
    def x_order(self) -> np.ndarray:
        """Stable argsort of ``xs`` (read-only)."""
        return _read_only(_stable_argsort(self.xs))

    @cached_property
    def xs_sorted(self) -> np.ndarray:
        """``xs`` in increasing order (read-only)."""
        return _read_only(self.xs[self.x_order])

    @cached_property
    def _ys_by_x(self) -> np.ndarray:
        """``ys`` in X order, ``ys[x_order]`` (read-only); a window's responses are a run of it."""
        return _read_only(self.ys[self.x_order])

    @cached_property
    def _y_rank_by_x(self) -> np.ndarray:
        """Position of each response in a stable sort of ``ys``, in X order (read-only).

        Ranks are distinct, so ordering any run by rank orders it by
        response and ties by sample index.  They are ``uint16`` up to
        2**16 observations, which lets :meth:`LocalWeights.curve` radix-sort
        them, and ``intp`` beyond.
        """
        dtype = np.uint16 if self.n <= _RADIX_RANKS else np.intp
        rank = np.empty(self.n, dtype=dtype)
        rank[_stable_argsort(self.ys)] = np.arange(self.n, dtype=dtype)
        return _read_only(rank[self.x_order])

    @cached_property
    def y_range(self) -> tuple[float, float]:
        """Smallest and largest response."""
        return float(self.ys.min()), float(self.ys.max())


# Samples of at most this many observations keep their response ranks in
# uint16, the widest keys numpy sorts by radix.
_RADIX_RANKS = 1 << 16


def _stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")``, by the quicker default sort where it may.

    Without equal values the sorting permutation is unique, so any sort
    finds the stable one; only a tie, -0.0 and 0.0 included, needs the
    stable sort.
    """
    order = np.argsort(values)
    ordered = values[order]
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(values, kind="stable")
    return order


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings shared by all local fits.

    ``bandwidth`` must lie in the open interval (0, 1); the band theory
    relies on log(1/h) > 0.  It is kept as a Python float, ``order`` as a
    Python int.
    """

    kernel: Kernel
    bandwidth: float
    order: int = 1

    def __post_init__(self):
        h = _check_open_unit("bandwidth", self.bandwidth, InvalidBandwidth)
        object.__setattr__(self, "bandwidth", h)
        object.__setattr__(self, "order", _check_integer("order", self.order, among=ORDERS))


class KernelWindow(NamedTuple):
    """The observations with K(u_i) > 0 for a fit at x.

    They are the run ``run`` = slice(lo, hi) of the sample's X-sorted
    columns.  ``index`` holds their sample positions, ``x_order[lo:hi]``,
    ``u`` and ``k`` their scaled distances and kernel values, all three read
    in X order, and ``nh`` is the normalizer n * h.
    """

    index: np.ndarray
    u: np.ndarray
    k: np.ndarray
    nh: float
    run: slice


@dataclass(frozen=True)
class LocalWeights:
    """Weights of the local fit at ``x`` on its kernel window.

    ``window`` is the run of observations with K(u_i) > 0, in X order,
    and ``window_weights`` their weights; every other observation has weight
    exactly 0.  The weights sum to one, and for order >= 1 they are
    orthogonal to u.  ``weights`` builds the n-long weight vector on demand.
    ``density`` is the local moment of order zero, d0(x) = sum_i K(u_i) / (n h),
    which the band half-width uses.
    """

    x: float
    order: int
    window: KernelWindow = field(repr=False, compare=False)
    window_weights: np.ndarray = field(repr=False, compare=False)
    density: float
    n: int

    @property
    def weights(self) -> np.ndarray:
        """The n-long weight vector, aligned with the sample."""
        w = np.zeros(self.n)
        w[self.window.index] = self.window_weights
        return w

    def _response_order(self, sample: Sample) -> np.ndarray:
        """The permutation that orders the window by response, ties by sample index."""
        # the ranks are distinct, so every sort gives the same permutation;
        # numpy's stable sort is a radix sort on 16-bit keys, and its default
        # sort is the quicker one on wider keys
        keys = sample._y_rank_by_x[self.window.run]
        return np.argsort(keys, kind="stable" if keys.itemsize <= 2 else "quicksort")

    def curve(self, sample: Sample, monotonize: bool = True) -> CdfCurve:
        """Estimated conditional distribution curve of this fit.

        With ``monotonize`` the values are replaced by their running maximum
        clipped to [0, 1]; the raw curve keeps whatever the weights produce,
        which is the form the band theory applies to.
        """
        order = self._response_order(sample)
        m = order.size
        ys_ext = np.empty(m + 2)
        ys_ext[0], ys_ext[-1] = sample.y_range
        np.take(sample._ys_by_x[self.window.run], order, out=ys_ext[1:-1])
        # weight up to each entry of ys_ext: none at ymin, all of it at ymax
        cum = np.empty(m + 2)
        cum[0] = cum[-1] = 0.0
        np.take(self.window_weights, order, out=cum[1:-1])
        np.cumsum(cum, out=cum)
        # the curve jumps at each distinct value, to the weight up to its last entry
        last = np.empty(m + 2, dtype=bool)
        np.not_equal(ys_ext[1:], ys_ext[:-1], out=last[:-1])
        last[-1] = True
        jump_ts, values = ys_ext[last], cum[last]
        if monotonize:
            np.maximum.accumulate(values, out=values)
            np.clip(values, 0.0, 1.0, out=values)
        return CdfCurve(
            x=self.x,
            jump_ts=jump_ts,
            values=values,
            order=self.order,
            monotonized=monotonize,
        )

    def quantile(self, sample: Sample, alpha: float) -> float:
        """``quantile_estimate(self.curve(sample, monotonize=False), alpha)``, without the curve.

        The running weight sums by response have the raw curve's bits at
        every jump, since the curve's leading 0.0 adds exactly.  Its ymin
        end, 0, never reaches alpha, and its ymax end repeats the last sum,
        so the curve first reaches alpha at the first response that ends a
        run of equal ones (the next one differs, or there is none) with a
        sum >= alpha.  A last run equal to the largest response ends at the
        ymax end instead, whose bits it takes: -0.0 == 0.0.
        """
        _check_open_unit("alpha", alpha)
        order = self._response_order(sample)
        cum = np.take(self.window_weights, order)
        np.cumsum(cum, out=cum)
        reach = cum >= alpha
        ys = sample._ys_by_x[self.window.run]
        first = int(reach.argmax()) if reach.size else 0
        # the first sum to reach alpha ends a run unless the next response ties
        # with it; only then look for run ends, from there on
        if first + 1 < reach.size and ys[order[first]] == ys[order[first + 1]]:
            tail = ys[order[first:]]
            reach[first:-1] &= tail[1:] != tail[:-1]
            first += int(reach[first:].argmax())
        if not (reach.size and reach[first]):
            raise NoCrossing(f"curve never reaches level {alpha}")
        q, ymax = float(ys[order[first]]), sample.y_range[1]
        return ymax if first + 1 == reach.size and q == ymax else q

    def regression(self, sample: Sample) -> float:
        """Local polynomial estimate of E[Y | X = x], i.e. sum_i w_i Y_i."""
        return float(self.window_weights @ sample._ys_by_x[self.window.run])


@dataclass(frozen=True)
class CdfCurve:
    """Right-continuous step curve t -> F_hat(t | x).

    ``jump_ts`` are the sorted distinct response values inside the kernel
    window, extended by the smallest and largest response of the whole
    sample so that curves at different locations share a common range.
    ``values[k]`` is the curve value at ``jump_ts[k]``; between jumps the
    curve is constant, and it is 0 left of the first jump.
    """

    x: float
    jump_ts: np.ndarray
    values: np.ndarray
    order: int
    monotonized: bool


_EPS = np.finfo(float).eps
_AS_IS = contextlib.nullcontext()  # the floating-point error state left as it is


def kernel_window(sample: Sample, x: float, cfg: EstimatorConfig) -> KernelWindow:
    """The kernel window of a fit at ``x``: the observations with K(u_i) > 0.

    For a kernel with support [a, b] only the X in [x - b h, x - a h] are
    evaluated, a run cut from the sorted xs with ``searchsorted``; a kernel
    without a support has [a, b] = (-inf, inf), so its run is the whole
    sorted sample.  The range is widened by 16 ulps of |x| + h max(|a|, |b|),
    more than the rounding of u_i and of the bounds can move a point, so it
    holds every observation with K(u_i) > 0.

    The sample keeps the last window cut, keyed by the bits of x, the kernel
    object and h, and returns it on a repeat call; its arrays are read-only.
    """
    if not math.isfinite(x):
        raise ValueError(f"location x must be finite, got {float(x)}")
    x, h = float(x), cfg.bandwidth
    # the kernel's identity, not equality: kernels that differ only in fn are
    # equal.  The slot holds the kernel, so its id is not reused meanwhile.
    key = (x.hex(), id(cfg.kernel), h)
    slot = vars(sample).get("_window_slot")
    if slot is not None and slot[0] == key:
        return slot[2]
    a, b = cfg.kernel.support or (-math.inf, math.inf)
    pad = 16.0 * _EPS * (abs(x) + h * max(-a, b))
    lo, hi = sample.xs_sorted.searchsorted((x - b * h - pad, x - a * h + pad)).tolist()
    # without a support every X is evaluated, and a far one's u u may
    # overflow to inf, where K is 0 as it should be
    with np.errstate(over="ignore") if a == -math.inf else _AS_IS:
        u = x - sample.xs_sorted[lo:hi]
        u /= h
        k = cfg.kernel.eval(u)
    # u is monotone over the sorted candidates and every kernel is positive
    # on one interval, so K > 0 holds on one run of them: narrow the run to
    # it, which K > 0 at both ends leaves whole
    if k.size > 0 and not (k[0] > 0.0 and k[-1] > 0.0):
        keep = k > 0.0
        first = int(keep.argmax())
        stop = k.size - int(keep[::-1].argmax()) if keep[first] else first
        u, k = u[first:stop], k[first:stop]
        lo, hi = lo + first, lo + stop
    run = slice(lo, hi)
    win = KernelWindow(sample.x_order[run], _read_only(u), _read_only(k), sample.n * h, run)
    vars(sample)["_window_slot"] = (key, cfg.kernel, win)
    return win


def _power_sums(u, k, jmax):
    """sum_i u_i^j K(u_i) for j = 0..jmax."""
    sums, uj = [np.add.reduce(k)], u
    for j in range(1, jmax + 1):
        nxt = uj * u if j < jmax else None
        # from j = 2 on u^j is this function's own array, so u^j K goes into it
        sums.append(np.add.reduce(uj * k if j == 1 else np.multiply(uj, k, out=uj)))
        uj = nxt
    return np.array(sums)


def local_moments(sample: Sample, x: float, cfg: EstimatorConfig, jmax: int = 2) -> np.ndarray:
    """Kernel-weighted moments of the scaled distances, orders 0..jmax.

    Entry j is (1 / (n h)) * sum_i u_i^j K(u_i) with u_i = (x - X_i) / h.
    """
    _check_integer("jmax", jmax, among=range(5))
    win = kernel_window(sample, x, cfg)
    return _power_sums(win.u, win.k, jmax) / win.nh


def _weight_vector(u, k, nh, order, sums):
    """Raw weight vector of ``order`` from the power sums; raises on degenerate fits."""
    if order == 0:
        s0 = float(sums[0])
        if abs(s0 / nh) < _DENOM_TOL:
            raise InsufficientLocalData(
                f"no kernel mass near x (order 0 denominator {s0 / nh:.3e})"
            )
        return k / s0
    if order == 1:
        s0, s1, s2 = sums[:3].tolist()  # the centering hands in longer sums
        m1, m2 = s1 / nh, s2 / nh
        denom = s0 / nh * m2 - m1 ** 2
        if abs(denom) < _DENOM_TOL:
            raise InsufficientLocalData(
                f"degenerate local linear fit at x (denominator {denom:.3e})"
            )
        w = u * m1
        np.subtract(m2, w, out=w)
    else:
        m = [float(s) / nh for s in sums]
        a1 = m[2] * m[4] - m[3] ** 2
        a2 = m[2] * m[3] - m[1] * m[4]
        a3 = m[1] * m[3] - m[2] ** 2
        denom = a1 * m[0] + a2 * m[1] + a3 * m[2]
        if abs(denom) < _DENOM_TOL:
            raise InsufficientLocalData(
                f"degenerate local quadratic fit at x (denominator {denom:.3e})"
            )
        w = a2 * u
        w += a1
        w += a3 * u * u
    # (m2 - u m1) k / (nh denom), or (a1 + a2 u + (a3 u) u) k / (nh denom),
    # with the operations of the one-line expressions, in one buffer
    w *= k
    w /= nh * denom
    return w


def _fit(x: float, win: KernelWindow, order: int, n: int) -> LocalWeights:
    sums = _power_sums(win.u, win.k, 2 * order)
    return LocalWeights(
        x=x,
        order=order,
        window=win,
        window_weights=_weight_vector(win.u, win.k, win.nh, order, sums),
        density=float(sums[0]) / win.nh,
        n=n,
    )


def local_weights(sample: Sample, x: float, cfg: EstimatorConfig) -> LocalWeights:
    """The local polynomial fit at ``x``: window, weights and d0(x)."""
    return _fit(float(x), kernel_window(sample, x, cfg), cfg.order, sample.n)


def cdf_estimate(sample: Sample, x: float, t: float, cfg: EstimatorConfig) -> float:
    """Point estimate of P(Y <= t | X = x) at the configured order."""
    fit = local_weights(sample, x, cfg)
    return float(fit.window_weights[sample._ys_by_x[fit.window.run] <= t].sum())


def cdf_curve(
    sample: Sample, x: float, cfg: EstimatorConfig, monotonize: bool = True
) -> CdfCurve:
    """Estimated conditional distribution curve at ``x``; see :meth:`LocalWeights.curve`."""
    return local_weights(sample, x, cfg).curve(sample, monotonize)


def regression_estimate(sample: Sample, x: float, cfg: EstimatorConfig) -> float:
    """Local polynomial estimate of E[Y | X = x], i.e. sum_i w_i Y_i."""
    return local_weights(sample, x, cfg).regression(sample)


def quantile_estimate(curve: CdfCurve, alpha: float) -> float:
    """Generalized inverse of a distribution curve at level ``alpha``.

    Returns the smallest jump point whose curve value reaches alpha.
    """
    _check_open_unit("alpha", alpha)
    hits = np.nonzero(curve.values >= alpha)[0]
    if hits.size == 0:
        raise NoCrossing(f"curve never reaches level {alpha}")
    return float(curve.jump_ts[hits[0]])


def reference_bandwidth(n: int) -> float:
    """Default bandwidth n**(-1/5); needs n >= 2 to stay below 1."""
    if _check_integer("n", n) < 2:
        raise InvalidBandwidth(f"reference bandwidth needs n >= 2, got n = {n}")
    return float(n) ** -0.2
