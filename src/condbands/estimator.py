"""Local polynomial estimation of the conditional distribution function.

Conventions used throughout the package, for a sample (X_i, Y_i), a
location x and a bandwidth h in (0, 1):

    u_i = (x - X_i) / h
    local moment j   : (1 / (n h)) * sum_i  u_i^j K(u_i)
    local response j : (1 / (n h)) * sum_i  1{Y_i <= t} u_i^j K(u_i)

Estimators of order p in {0, 1, 2} all reduce to a weight vector w(x)
aligned with the sample, with sum(w) = 1 and, for p >= 1, sum(w u) = 0.
The estimated conditional distribution at t is then sum_i w_i 1{Y_i <= t}.
Order 0 weights are nonnegative; orders 1 and 2 may produce negative
weights, hence raw distribution curves need not be monotone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientLocalData, InvalidBandwidth, NoCrossing
from .kernels import Kernel

__all__ = [
    "Sample",
    "EstimatorConfig",
    "LocalWeights",
    "CdfCurve",
    "local_moments",
    "local_responses",
    "local_weights",
    "cdf_estimate",
    "cdf_curve",
    "regression_estimate",
    "quantile_estimate",
    "reference_bandwidth",
]


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

    @property
    def n(self) -> int:
        return self.xs.size


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings shared by all local fits.

    ``bandwidth`` must lie in the open interval (0, 1); the band theory
    relies on log(1/h) > 0.  ``denom_tol`` is the absolute threshold below
    which a local fit's denominator counts as degenerate.
    """

    kernel: Kernel
    bandwidth: float
    order: int = 1
    denom_tol: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.bandwidth < 1.0:
            raise InvalidBandwidth(
                f"bandwidth must lie in (0, 1), got {self.bandwidth!r}"
            )
        if self.order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {self.order!r}")
        if not self.denom_tol > 0.0:
            raise ValueError("denom_tol must be positive")


@dataclass(frozen=True)
class LocalWeights:
    """Weight vector of a local fit at ``x``, aligned with the sample.

    Observations with K(u_i) = 0 receive weight exactly 0.  The weights
    sum to one, and for order >= 1 they are orthogonal to u.
    ``in_window`` marks the observations with K(u_i) > 0, and ``density``
    is the local moment of order zero, d0(x) = sum_i K(u_i) / (n h), which
    the band half-width uses.
    """

    x: float
    weights: np.ndarray
    order: int
    in_window: np.ndarray
    density: float

    def curve(self, sample: Sample, monotonize: bool = True) -> CdfCurve:
        """Estimated conditional distribution curve of this fit.

        With ``monotonize`` the values are replaced by their running maximum
        clipped to [0, 1]; the raw curve keeps whatever the weights produce,
        which is the form the band theory applies to.
        """
        ys_in = sample.ys[self.in_window]
        w_in = self.weights[self.in_window]
        order = np.argsort(ys_in, kind="stable")
        ys_sorted = ys_in[order]
        cum = np.cumsum(w_in[order])
        jump_ts = np.unique(
            np.concatenate([ys_sorted, [sample.ys.min(), sample.ys.max()]])
        )
        idx = np.searchsorted(ys_sorted, jump_ts, side="right") - 1
        values = np.where(idx >= 0, cum[np.maximum(idx, 0)], 0.0)
        if monotonize:
            values = np.clip(np.maximum.accumulate(values), 0.0, 1.0)
        return CdfCurve(
            x=self.x,
            jump_ts=jump_ts,
            values=values,
            order=self.order,
            monotonized=monotonize,
        )

    def regression(self, sample: Sample) -> float:
        """Local polynomial estimate of E[Y | X = x], i.e. sum_i w_i Y_i."""
        return float(self.weights @ sample.ys)


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

    def value_at(self, t):
        """Evaluate the step curve at scalar or array ``t``."""
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_ts, t_arr, side="right") - 1
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], 0.0)
        return float(out) if t_arr.ndim == 0 else out


def _window(sample: Sample, x: float, cfg: EstimatorConfig):
    """Scaled distances, kernel values and the n*h normalizer at ``x``."""
    u = (x - sample.xs) / cfg.bandwidth
    k = cfg.kernel.eval(u)
    return u, k, sample.n * cfg.bandwidth


def _power_sums(u, k, nh, jmax):
    out = np.empty(jmax + 1)
    uj = np.ones_like(u)
    for j in range(jmax + 1):
        out[j] = float((uj * k).sum()) / nh
        if j < jmax:
            uj = uj * u
    return out


def local_moments(sample: Sample, x: float, cfg: EstimatorConfig, jmax: int = 2) -> np.ndarray:
    """Kernel-weighted moments of the scaled distances, orders 0..jmax.

    Entry j is (1 / (n h)) * sum_i u_i^j K(u_i) with u_i = (x - X_i) / h.
    """
    if jmax not in (0, 1, 2, 3, 4):
        raise ValueError(f"jmax must be in 0..4, got {jmax!r}")
    u, k, nh = _window(sample, x, cfg)
    return _power_sums(u, k, nh, jmax)


def local_responses(
    sample: Sample, x: float, t: float, cfg: EstimatorConfig, jmax: int = 2
) -> np.ndarray:
    """Like :func:`local_moments` with each term multiplied by 1{Y_i <= t}."""
    if jmax not in (0, 1, 2):
        raise ValueError(f"jmax must be in 0..2, got {jmax!r}")
    u, k, nh = _window(sample, x, cfg)
    ind = sample.ys <= t
    return _power_sums(u[ind], k[ind], nh, jmax)


def _weight_vector(u, k, nh, cfg):
    """Raw weight vector for the configured order; raises on degenerate fits."""
    if cfg.order == 0:
        denom = float(k.sum()) / nh
        if abs(denom) < cfg.denom_tol:
            raise InsufficientLocalData(
                f"no kernel mass near x (order 0 denominator {denom:.3e})"
            )
        return k / float(k.sum())
    if cfg.order == 1:
        m = _power_sums(u, k, nh, 2)
        denom = m[0] * m[2] - m[1] ** 2
        if abs(denom) < cfg.denom_tol:
            raise InsufficientLocalData(
                f"degenerate local linear fit at x (denominator {denom:.3e})"
            )
        return (m[2] - u * m[1]) * k / (nh * denom)
    m = _power_sums(u, k, nh, 4)
    a1 = m[2] * m[4] - m[3] ** 2
    a2 = m[2] * m[3] - m[1] * m[4]
    a3 = m[1] * m[3] - m[2] ** 2
    denom = a1 * m[0] + a2 * m[1] + a3 * m[2]
    if abs(denom) < cfg.denom_tol:
        raise InsufficientLocalData(
            f"degenerate local quadratic fit at x (denominator {denom:.3e})"
        )
    return (a1 + a2 * u + a3 * u * u) * k / (nh * denom)


def local_weights(sample: Sample, x: float, cfg: EstimatorConfig) -> LocalWeights:
    """The local polynomial fit at ``x``: weights, kernel window and d0(x)."""
    u, k, nh = _window(sample, x, cfg)
    w = _weight_vector(u, k, nh, cfg)
    return LocalWeights(
        x=float(x),
        weights=w,
        order=cfg.order,
        in_window=k > 0.0,
        density=float(k.sum()) / nh,
    )


def cdf_estimate(sample: Sample, x: float, t: float, cfg: EstimatorConfig) -> float:
    """Point estimate of P(Y <= t | X = x) at the configured order."""
    w = local_weights(sample, x, cfg)
    return float(w.weights[sample.ys <= t].sum())


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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    hits = np.nonzero(curve.values >= alpha)[0]
    if hits.size == 0:
        raise NoCrossing(f"curve never reaches level {alpha}")
    return float(curve.jump_ts[hits[0]])


def reference_bandwidth(n: int) -> float:
    """Default bandwidth n**(-1/5); needs n >= 2 to stay below 1."""
    if n < 2:
        raise InvalidBandwidth(f"reference bandwidth needs n >= 2, got n = {n}")
    return float(n) ** -0.2
