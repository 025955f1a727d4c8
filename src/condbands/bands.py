"""Uniform asymptotic certainty bands around local polynomial estimates.

The common ingredient is the half-width

    L(x) = sqrt( |K|_2^2 * log(1/h) / (2 n h * d0(x)) )

where d0(x) is the local moment of order zero (a kernel density estimate
of the design density at x).  Distribution bands use (1 + eps) * L(x),
regression bands on a response interval [a, b] use (b - a) * L(x), and
quantile bands use 2 * L(x) * fx / fxy with marginal and joint densities
supplied either by an oracle or by a plug-in estimate.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import floatfmt
from .errors import (
    InsufficientLocalData,
    InvalidBandwidth,
    NoCrossing,
    YRangeViolation,
    ZeroJointDensity,
)
from .estimator import (
    EstimatorConfig,
    LocalWeights,
    Sample,
    _check_grid,
    _check_integer,
    _check_interval,
    _check_open_unit,
    kernel_window,
    local_moments,
    local_weights,
)

__all__ = [
    "DensityPair",
    "BandTable",
    "certainty_halfwidth",
    "band_halfwidth",
    "cdf_band",
    "regression_band",
    "quantile_band",
    "density_plugin",
]

# A design or joint density at or below this is too small for a band.
_DENSITY_TOL = 1e-12
_N_MAX = float(np.finfo(float).max) / 2  # the largest n for which 2.0 * n is finite


@dataclass(frozen=True)
class DensityPair:
    """Marginal density fx at x and joint density fxy at (x, y)."""

    fx: float
    fxy: float
    source: str  # "oracle" or "plugin"


@dataclass
class BandTable:
    """Row-wise band output plus the settings that produced it.

    Parallel arrays, one entry per row; ``t`` is NaN for band kinds that
    have no response coordinate (regression, quantile).  ``skips`` pairs
    each location of ``metadata["skipped_locations"]`` with the reason it
    was skipped; the CSV and JSON outputs leave it out.
    """

    x: np.ndarray
    t: np.ndarray
    estimate: np.ndarray
    halfwidth: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    metadata: dict = field(default_factory=dict)
    skips: list[tuple[float, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return self.x.size

    def to_csv(self, path_or_buf) -> None:
        """Write rows as CSV with header x,t,estimate,halfwidth,lower,upper.

        ``path_or_buf`` is a path (``str``, ``bytes`` or ``os.PathLike``),
        which is written in binary mode, or an open text or binary file.
        """
        own = isinstance(path_or_buf, (str, bytes, os.PathLike))
        buf = open(path_or_buf, "wb") if own else path_or_buf
        try:
            write_csv(buf, _TABLE_HEADER, self._columns(), blank_nan=("t",))
        finally:
            if own:
                buf.close()

    def to_json(self) -> str:
        cols = [np.asarray(col, dtype=float).tolist() for col in self._columns()]
        cols[1] = [None if math.isnan(t) else t for t in cols[1]]  # no t: null
        rows = [dict(zip(_TABLE_HEADER, vals)) for vals in zip(*cols)]
        return json.dumps(
            {"metadata": self.metadata, "rows": rows}, sort_keys=True, indent=2
        )

    def _columns(self) -> tuple[np.ndarray, ...]:
        cols = (self.x, self.t, self.estimate, self.halfwidth, self.lower, self.upper)
        if any(np.size(col) != self.x.size for col in cols):
            raise ValueError("band table columns differ in length")
        return cols


_TABLE_HEADER = ("x", "t", "estimate", "halfwidth", "lower", "upper")

# Rows formatted per write.  Large enough that numpy calls amortize, small
# enough that the chunk's temporaries add little to peak memory.
_CSV_CHUNK_ROWS = 1024


def write_csv(
    buf, header: Sequence[str], columns: Sequence[np.ndarray], blank_nan: Sequence[str] = ()
) -> None:
    """Write float ``columns`` under ``header`` to the file ``buf``.

    The bytes are those of ``csv.writer`` over rows of ``repr(float(v))``
    fields (no field ever needs quoting; rows end in CRLF), with an empty
    field for NaN in the columns named in ``blank_nan``.  A binary file gets
    those bytes; any other file gets them as ``str``, which it encodes itself.
    """
    binary = isinstance(buf, (io.RawIOBase, io.BufferedIOBase))
    head = ",".join(header) + "\r\n"
    buf.write(head.encode() if binary else head)
    columns = [np.ascontiguousarray(col, dtype=np.float64) for col in columns]
    blank = np.array([name in blank_nan for name in header])
    for start in range(0, columns[0].size, _CSV_CHUNK_ROWS):
        stop = start + _CSV_CHUNK_ROWS
        # the chunk column by column, as encode_rows reads it to find runs
        rows = floatfmt.encode_rows(np.stack([col[start:stop] for col in columns]).T, blank)
        buf.write(rows if binary else rows.decode("ascii"))


def certainty_halfwidth(
    l2_norm_sq: float, bandwidth: float, n: int, density_at_x: float
) -> float:
    """The half-width formula on raw inputs; validates h, n, |K|_2^2 and the density."""
    _check_open_unit("bandwidth", bandwidth, InvalidBandwidth)
    if _check_integer("n", n, least=1) > _N_MAX:
        raise ValueError(f"n must be at most {_N_MAX:.4g}, got a {int(n).bit_length()}-bit integer")
    if not 0.0 < l2_norm_sq < math.inf:
        raise ValueError(f"l2_norm_sq must be positive and finite, got {l2_norm_sq!r}")
    if not density_at_x > _DENSITY_TOL:
        raise InsufficientLocalData(
            f"design density estimate {density_at_x:.3e} too small for a band"
        )
    if density_at_x == math.inf:
        raise ValueError(f"density_at_x must be finite, got {density_at_x!r}")
    log_inv_h = math.log(1.0 / bandwidth)
    return math.sqrt(l2_norm_sq * log_inv_h / (2.0 * n * bandwidth * density_at_x))


def band_halfwidth(sample: Sample, x: float, cfg: EstimatorConfig) -> float:
    """L(x) evaluated from the sample at ``x`` under ``cfg``."""
    d0 = float(local_moments(sample, x, cfg, jmax=0)[0])
    return certainty_halfwidth(cfg.kernel.l2_norm_sq, cfg.bandwidth, sample.n, d0)


def fit_grid(
    sample: Sample,
    x_grid: Sequence[float],
    cfg: EstimatorConfig,
    reduce: Callable[[float, LocalWeights, float], object],
) -> tuple[list, list[tuple[float, str]]]:
    """Fit each grid location once and keep ``reduce(x, fit, L(x))``.

    L(x) comes from the fit's own d0(x).  Locations whose fit, half-width or
    reduction is degenerate (``InsufficientLocalData``, ``NoCrossing``,
    ``ZeroJointDensity``) are skipped; returns the kept reductions and the
    skipped locations, each with the message of its error, in grid order.
    Only the reductions are kept, not the fits, so memory does not grow
    with the grid.
    """
    kept, skipped = [], []
    for x in _check_grid("x_grid", x_grid):
        try:
            fit = local_weights(sample, x, cfg)
            half = certainty_halfwidth(
                cfg.kernel.l2_norm_sq, cfg.bandwidth, sample.n, fit.density
            )
            kept.append(reduce(x, fit, half))
        except (InsufficientLocalData, NoCrossing, ZeroJointDensity) as exc:
            skipped.append((float(x), str(exc)))
    if not kept:
        raise InsufficientLocalData(
            f"every grid location was skipped; the last, x = {x}: {skipped[-1][1]}"
        )
    return kept, skipped


def _table_columns(rows: list, clip: bool = False) -> tuple[np.ndarray, ...]:
    """The six table columns of ``rows`` of (x, t, estimate, halfwidth).

    x and the half-width repeat over each row's t and estimate (scalars or
    equal-length arrays).  ``rows`` is emptied once copied: the table is held once.
    """
    sizes = [np.size(row[1]) for row in rows]
    x = np.repeat([row[0] for row in rows], sizes)
    halfwidth = np.repeat([row[3] for row in rows], sizes)
    t, estimate = (np.concatenate([np.atleast_1d(row[k]) for row in rows]) for k in (1, 2))
    rows.clear()
    lower, upper = estimate - halfwidth, estimate + halfwidth
    if clip:
        np.clip(lower, 0.0, 1.0, out=lower)
        np.clip(upper, 0.0, 1.0, out=upper)
    return x, t, estimate, halfwidth, lower, upper


def _band_table(
    sample: Sample, x_grid: Sequence[float], cfg: EstimatorConfig, kind: str, reduce: Callable,
    settings: dict, clip: bool = False,
) -> BandTable:
    """The ``kind`` band table of ``reduce`` at each location of ``x_grid``.

    ``reduce`` gives a location's rows for :func:`_table_columns`, ``clip``
    goes to it, and ``settings``, read after the pass, follow the common keys.
    """
    kept, skipped = fit_grid(sample, x_grid, cfg, reduce)
    del reduce  # it may hold arrays as long as the sample; free them before the columns
    meta = {"kind": kind, "order": cfg.order, "kernel": cfg.kernel.name, "bandwidth": cfg.bandwidth,
            "n": sample.n, "skipped_locations": [x for x, _ in skipped], **settings}
    return BandTable(*_table_columns(kept, clip), metadata=meta, skips=skipped)


def _cdf_reduction(sample: Sample, t_grid, epsilon: float) -> Callable:
    """Per-location reduction of :func:`cdf_band` for :func:`fit_grid`.

    It gives the location's rows as (x, t, estimate, halfwidth) with t and
    the estimate as arrays: the curve's jumps, or the grid and the curve there.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    widen = 1.0 + float(epsilon)
    use_jumps = isinstance(t_grid, str)
    if use_jumps:
        if t_grid != "jumps":
            raise ValueError(f'unknown t_grid mode {t_grid!r}; expected "jumps"')
    else:
        t_grid = _check_grid("t_grid", t_grid)
        if np.isnan(t_grid).any():
            raise ValueError("t_grid must not contain NaN")
        # Y_i <= t_(j) exactly when j >= bins[i], for the j-th smallest t, so
        # the estimate at t_(j) is the window weight binned at 0..j; no curve.
        # The bins are in X order, so a window's bins are a run of them
        t_order = np.argsort(t_grid, kind="stable")
        t_rank = np.empty(t_grid.size, dtype=np.intp)
        t_rank[t_order] = np.arange(t_grid.size)
        bins = np.searchsorted(t_grid[t_order], sample._ys_by_x, side="left")

    def block(x, fit, half_l):
        if use_jumps:
            curve = fit.curve(sample, monotonize=False)
            return x, curve.jump_ts, curve.values, widen * half_l
        binned = np.bincount(bins[fit.window.run], fit.window_weights, minlength=t_grid.size + 1)
        return x, t_grid, np.cumsum(binned[:-1])[t_rank], widen * half_l

    return block


def cdf_band(
    sample: Sample,
    x_grid: Sequence[float],
    t_grid,
    cfg: EstimatorConfig,
    epsilon: float = 0.0,
    clip: bool = True,
) -> BandTable:
    """Distribution band of half-width (1 + epsilon) * L(x) per location.

    ``t_grid`` is either an explicit array of response values or the
    string "jumps", which evaluates each curve at its own jump points.
    Estimates come from the raw (non-monotonized) curve.  With ``clip``
    the interval is intersected with [0, 1]; estimates are reported as-is.
    Locations where the local fit is degenerate are skipped and recorded
    in the metadata.
    """
    t_mode = "jumps" if isinstance(t_grid, str) else "explicit"
    return _band_table(
        sample, x_grid, cfg, "cdf", _cdf_reduction(sample, t_grid, epsilon),
        {"epsilon": float(epsilon), "clipped": clip, "t_grid": t_mode}, clip,
    )


def regression_band(
    sample: Sample,
    x_grid: Sequence[float],
    cfg: EstimatorConfig,
    y_range: tuple[float, float],
) -> BandTable:
    """Regression band m_hat(x) +/- (b - a) * L(x) for responses in [a, b]."""
    a, b = _check_interval("y_range", y_range)
    if sample.y_range[0] < a or sample.y_range[1] > b:
        raise YRangeViolation(f"responses fall outside the declared range [{a}, {b}]")

    def row(x, fit, half_l):
        return float(x), math.nan, fit.regression(sample), (b - a) * half_l

    return _band_table(sample, x_grid, cfg, "regression", row, {"y_range": [a, b]})


def quantile_band(
    sample: Sample,
    x_grid: Sequence[float],
    alpha: float,
    cfg: EstimatorConfig,
    densities: Callable[[float, float], DensityPair],
) -> BandTable:
    """Quantile band q_hat(x) +/- 2 * L(x) * fx / fxy.

    ``densities(x, q)`` supplies the marginal/joint density pair at the
    estimated quantile.  q is the first point where the raw curve reaches
    alpha, which :meth:`LocalWeights.quantile` reads from the fit's running
    weight sums without building the curve.  For alpha in (0, 1) that is
    also the first point where the monotonized curve (running maximum
    clipped to [0, 1]) reaches alpha, so q is the quantile of either.  A
    location with a degenerate fit, a raw curve that never reaches alpha,
    or a non-finite or non-positive density is skipped and recorded in the
    metadata; the metadata names the density source of the last kept
    location.
    """
    alpha = _check_open_unit("alpha", alpha)
    settings = {"alpha": alpha}

    def row(x, fit, half_l):
        q = fit.quantile(sample, alpha)
        pair = densities(float(x), q)
        if not (pair.fx > 0.0 and math.isfinite(pair.fx)):
            raise ZeroJointDensity(
                f"marginal density {pair.fx!r} at x = {x} is not positive and finite"
            )
        if not (pair.fxy > _DENSITY_TOL and math.isfinite(pair.fxy)):
            raise ZeroJointDensity(
                f"joint density {pair.fxy!r} at (x, q) = ({x}, {q}) is not finite above tolerance"
            )
        settings["density_source"] = pair.source
        return float(x), math.nan, q, 2.0 * half_l * pair.fx / pair.fxy

    table = _band_table(sample, x_grid, cfg, "quantile", row, settings)
    if settings["density_source"] == "plugin":
        table.metadata["density_note"] = (
            "plug-in densities reuse the estimation bandwidth in both coordinates"
        )
    return table


def density_plugin(sample: Sample, x: float, y: float, cfg: EstimatorConfig) -> DensityPair:
    """Kernel plug-in estimates of the marginal and joint densities.

    The joint estimate uses the product kernel with the same bandwidth in
    both coordinates.  Zero estimates are legal here; band construction
    is where positivity gets enforced.
    """
    h = cfg.bandwidth
    win = kernel_window(sample, x, cfg)
    ky = cfg.kernel.eval((y - sample._ys_by_x[win.run]) / h)
    fx = float(win.k.sum()) / win.nh
    fxy = float((win.k * ky).sum()) / (win.nh * h)
    return DensityPair(fx=fx, fxy=fxy, source="plugin")
