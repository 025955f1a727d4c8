"""Checks on band tables written by ``BandTable.to_csv``.

Every check returns a list of problems; an empty list means the output passed.
The checks read only the written bytes and recompute with independent point
calls, so they catch a wrong value as well as a wrong format.
"""

from __future__ import annotations

import hashlib
import io
import math

import numpy as np

from condbands import estimator
from condbands.bands import certainty_halfwidth

HEADER = b"x,t,estimate,halfwidth,lower,upper\r\n"
TOL = 1e-12
SPOT_ROWS = 25


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_table(path: str):
    """Parse a band CSV into (columns, raw lines); raise ValueError on bad format."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(HEADER):
        raise ValueError("header is not x,t,estimate,halfwidth,lower,upper")
    body = data[len(HEADER):]
    if not body.endswith(b"\r\n"):
        raise ValueError("last row is not terminated by CRLF")
    lines = body[:-2].split(b"\r\n")
    text = body.replace(b",,", b",nan,").decode("ascii")
    values = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
    if values.shape != (len(lines), 6):
        raise ValueError(f"expected {len(lines)} rows of 6 fields, got {values.shape}")
    cols = dict(zip(("x", "t", "estimate", "halfwidth", "lower", "upper"), values.T))
    return cols, lines


def _fmt(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


def table_invariants(cols, lines, x_grid, clipped: bool) -> list[str]:
    """Invariants that hold for every row of a band table."""
    problems = []
    x, est, hw, lo, up = (cols[k] for k in ("x", "estimate", "halfwidth", "lower", "upper"))
    if not all(np.isfinite(a).all() for a in (x, est, hw, lo, up)):
        problems.append("non-finite value in x/estimate/halfwidth/lower/upper")
        return problems
    if not (hw > 0).all():
        problems.append("non-positive half-width")
    if not (lo <= up).all():
        problems.append("lower > upper")
    if clipped:
        want_lo, want_up = np.clip(est - hw, 0.0, 1.0), np.clip(est + hw, 0.0, 1.0)
        if not ((lo >= 0) & (up <= 1)).all():
            problems.append("clipped bound outside [0, 1]")
    else:
        want_lo, want_up = est - hw, est + hw
    if not (np.array_equal(lo, want_lo) and np.array_equal(up, want_up)):
        problems.append("lower/upper differ from estimate -/+ half-width")
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    block_x = x[starts]
    if not (np.diff(block_x) > 0).all() or not np.isin(block_x, x_grid).all():
        problems.append("locations are not increasing points of the x-grid")
    block_of_row = np.repeat(np.arange(starts.size), np.diff(np.r_[starts, x.size]))
    if not np.array_equal(hw, hw[starts][block_of_row]):
        problems.append("half-width is not constant within a location")
    # Row text must be exactly what repr() gives for the parsed values.
    rng = np.random.default_rng(len(lines))
    for i in rng.choice(len(lines), size=min(len(lines), 200), replace=False):
        want = ",".join(_fmt(cols[k][i]) for k in ("x", "t", "estimate", "halfwidth", "lower", "upper"))
        if lines[i].decode("ascii") != want:
            problems.append(f"row {i + 1} is not in canonical repr format")
            break
    return problems


def epanechnikov_d0(xs: np.ndarray, x: float, h: float) -> float:
    """Design density estimate at x, written out independently of the package."""
    u = (x - xs) / h
    return float((0.75 * np.maximum(0.0, 1.0 - u * u)).sum()) / (xs.size * h)


def spot_rows(n_rows: int, seed: int, salt: int) -> np.ndarray:
    rng = np.random.default_rng([seed, salt])
    return rng.choice(n_rows, size=min(n_rows, SPOT_ROWS), replace=False)


def halfwidth_at(sample, x: float, cfg) -> float:
    d0 = epanechnikov_d0(sample.xs, x, cfg.bandwidth)
    return certainty_halfwidth(cfg.kernel.l2_norm_sq, cfg.bandwidth, sample.n, d0)


def spot_check_cdf(cols, sample, cfg, epsilon, seed, salt=1) -> list[str]:
    """Rows agree with cdf_estimate and certainty_halfwidth to within TOL."""
    problems = []
    for i in spot_rows(cols["x"].size, seed, salt):
        x, t = float(cols["x"][i]), float(cols["t"][i])
        est = estimator.cdf_estimate(sample, x, t, cfg)
        half = (1.0 + epsilon) * halfwidth_at(sample, x, cfg)
        if abs(est - cols["estimate"][i]) > TOL or abs(half - cols["halfwidth"][i]) > TOL:
            problems.append(f"cdf row {i + 1} at (x={x}, t={t}) disagrees with point calls")
            break
    return problems


def spot_check_regression(cols, sample, cfg, y_range, seed, salt=2) -> list[str]:
    problems = []
    a, b = y_range
    for i in spot_rows(cols["x"].size, seed, salt):
        x = float(cols["x"][i])
        est = estimator.regression_estimate(sample, x, cfg)
        half = (b - a) * halfwidth_at(sample, x, cfg)
        if abs(est - cols["estimate"][i]) > TOL or abs(half - cols["halfwidth"][i]) > TOL:
            problems.append(f"regression row {i + 1} at x={x} disagrees with point calls")
            break
    return problems


def _first_crossing(sample, x: float, alpha: float, cfg):
    """Generalized inverse at ``alpha`` of t -> cdf_estimate(sample, x, t).

    The candidate jump points are the responses inside the kernel window and
    the smallest and largest response of the whole sample.  The curve over all
    of them comes from one weight vector; every candidate whose value lies
    near ``alpha`` is then decided by a ``cdf_estimate`` point call, so the
    crossing does not hang on summation order.  The running maximum of a curve
    first reaches ``alpha`` where the curve itself does, so this is also the
    inverse of the monotonized curve.
    Returns the quantile or None when the curve never reaches ``alpha``.
    """
    w = estimator.local_weights(sample, x, cfg).weights
    ys = sample.ys
    in_win = np.abs((x - sample.xs) / cfg.bandwidth) < 1.0
    cand = np.unique(np.concatenate([ys[in_win], [ys.min(), ys.max()]]))
    order = np.argsort(ys[in_win], kind="stable")
    cum = np.cumsum(w[in_win][order])
    idx = np.searchsorted(ys[in_win][order], cand, side="right") - 1
    approx = np.where(idx >= 0, cum[np.maximum(idx, 0)], 0.0)
    for k in np.flatnonzero(approx >= alpha - 1e-9):
        if estimator.cdf_estimate(sample, x, float(cand[k]), cfg) >= alpha:
            return float(cand[k])
    return None


def spot_check_quantile(cols, sample, cfg, alpha, seed, salt=3) -> list[str]:
    """Quantiles are the first crossing of alpha by cdf_estimate; half-widths
    match 2 L(x) fx / fxy."""
    problems = []
    h = cfg.bandwidth
    for i in spot_rows(cols["x"].size, seed, salt):
        x, q = float(cols["x"][i]), float(cols["estimate"][i])
        if _first_crossing(sample, x, alpha, cfg) != q:
            problems.append(f"quantile row {i + 1} at x={x} is not where cdf_estimate "
                            f"first reaches {alpha}")
            break
        kx = 0.75 * np.maximum(0.0, 1.0 - ((x - sample.xs) / h) ** 2)
        ky = 0.75 * np.maximum(0.0, 1.0 - ((q - sample.ys) / h) ** 2)
        fx = float(kx.sum()) / (sample.n * h)
        fxy = float((kx * ky).sum()) / (sample.n * h * h)
        half = 2.0 * halfwidth_at(sample, x, cfg) * fx / fxy
        if abs(half - cols["halfwidth"][i]) > TOL * max(1.0, abs(half)):
            problems.append(f"quantile row {i + 1} at x={x} half-width disagrees")
            break
    return problems
