"""Verification experiments for the estimators and their bands.

Two reference curves are available when measuring deviations:

* the model's true conditional distribution ("true"), which mixes
  stochastic error with smoothing bias, and
* the centering ("centering"), which isolates the stochastic error: the
  same local fit of order p applied to the population law instead of the
  sample, that is, the order-p fit's weights on fixed quadrature nodes z
  applied to the true F(t | z).

Limit comparisons use the centering reference.  Each replicated
experiment builds one reference function, ``rows(x, ts)``: the truth
(where asked for) stacked over every requested order's centering.  The
centering does not depend on the sample, so each location's centering is
built once, for all requested orders (em-constant always asks for both),
the first time a replication keeps the location.  Every sup deviation of
a location's curves from its rows is taken in one pass whose max and abs
are exact, so each has the bits of its own :func:`step_sup_deviation`.
Replication r of an experiment seeded with s draws from the child stream
(s, spawn_key=r), and the replications run in order on the calling
thread.  The experiments' ``workers`` argument stays only for existing
callers: it must be an integer >= 1 and changes neither the report nor
the speed.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import InsufficientLocalData, InvalidBandwidth, QuadratureFailure
from .estimator import (
    EstimatorConfig, _check_grid, _check_integer, _check_interval, _check_open_unit, _power_sums,
    _weight_vector, local_weights,
)
from .bands import _DENSITY_TOL, fit_grid
from .kernels import Kernel
from .simulation import (
    SimModel, cdf_kinks, draw, marginal_density, prepare_weighted_cdf, true_cdf,
    true_cdf_grid,
)

__all__ = [
    "ExperimentReport",
    "smoothed_moment",
    "centering_oracle",
    "centering_curve",
    "step_sup_deviation",
    "sup_experiment",
    "coverage_experiment",
    "bochner_check",
    "em_constant_experiment",
]

DEFAULT_INTERVAL = (-1.0, 1.0)
# The estimator orders that have a centering.
CENTERING_ORDERS = (0, 1)
_QUAD_TOL = 1e-8


def _as_grid(x_grid, interval: tuple[float, float] = DEFAULT_INTERVAL) -> np.ndarray:
    """The checked ``x_grid``, or 41 equally spaced points on the interval without one."""
    return np.linspace(*interval, 41) if x_grid is None else _check_grid("x_grid", x_grid)


# ---------------------------------------------------------------------------
# Quadrature centering
# ---------------------------------------------------------------------------

def smoothed_moment(
    model: SimModel, kernel: Kernel, h: float, x: float, j: int, t: float | None = None
) -> float:
    """Expectation of local moment j: integral of u^j K(u) f_X(x - h u) du.

    With a response point ``t`` the integrand gains the factor F(t | x - h u).
    Adaptive quadrature; on a compact support its panels split where x - h u
    meets a kink of the conditional law.
    """
    # Imported here, not at module level: importing scipy.integrate costs
    # about 0.6 s and 44 MB, and nothing else in the package needs it.
    from scipy.integrate import quad

    _check_open_unit("bandwidth", h, InvalidBandwidth)
    a, b = kernel.support or (-np.inf, np.inf)

    def integrand(u):
        v = x - h * u
        val = (u ** j) * kernel.eval(u) * marginal_density(model, v)
        return val if t is None else val * true_cdf(model, v, t)

    kinks = cdf_kinks(model, t) if t is not None and kernel.support is not None else ()
    pts = sorted(p for p in ((x - z) / h for z in kinks) if a < p < b)
    val, err = quad(integrand, a, b, epsabs=1e-10, epsrel=1e-10, limit=200, points=pts or None)
    if not math.isfinite(val) or err > _QUAD_TOL:
        what = "moment" if t is None else "response"
        raise QuadratureFailure(
            f"{what} quadrature error {err:.2e} exceeds {_QUAD_TOL:.0e}"
        )
    return val


def centering_oracle(
    model: SimModel, x: float, t: float, cfg: EstimatorConfig, order: int | None = None
) -> float:
    """Smoothed population value of the order-0 or order-1 estimator at (x, t).

    This is the data-free curve the estimator concentrates around before
    bias is removed; it is computed by adaptive quadrature.
    """
    order = _check_integer("order", cfg.order if order is None else order, among=CENTERING_ORDERS)
    kernel, h = cfg.kernel, cfg.bandwidth
    m0 = smoothed_moment(model, kernel, h, x, 0)
    r0 = smoothed_moment(model, kernel, h, x, 0, t)
    if order == 0:
        if m0 <= 0.0:
            raise InsufficientLocalData(f"smoothed density vanishes at x = {x}")
        return r0 / m0
    m1 = smoothed_moment(model, kernel, h, x, 1)
    m2 = smoothed_moment(model, kernel, h, x, 2)
    r1 = smoothed_moment(model, kernel, h, x, 1, t)
    den = m0 * m2 - m1 * m1
    if den <= 0.0:
        raise InsufficientLocalData(f"smoothed moment matrix degenerate at x = {x}")
    return (m2 * r0 - m1 * r1) / den


@functools.cache
def _gl_nodes(support) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on a kernel's support, or on [-9, 9] without one."""
    a, b, count = (-9.0, 9.0, 160) if support is None else (*support, 64)
    u, w = np.polynomial.legendre.leggauss(count)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * u, half * w


def _centering(model, x, kernel, h, orders):
    """The centering of each order p in ``orders`` at x, as a function of t.

    The order-p centering is the order-p local fit applied to the
    population law: its weights c_p sit on the quadrature nodes
    z_k = x - h u_k, whose masses are gw_k K(u_k) f_X(z_k), and it is
    sum_k c_p,k F(t | z_k).  Nothing here depends on a sample, so an
    experiment builds it once per location.  The function returned gives,
    at response points ``ts``, one row per entry of ``orders``.
    """
    u, gw = _gl_nodes(kernel.support)
    z = x - h * u
    mass = gw * kernel.eval(u) * marginal_density(model, z)
    total = float(mass.sum())
    if total <= 0.0:
        raise InsufficientLocalData(f"smoothed density vanishes at x = {x}")
    # the weights do not depend on the scale of the masses, but the
    # degeneracy gate of _weight_vector is absolute
    mass = mass / total
    sums = _power_sums(u, mass, 2 * max(orders))
    weights = [_weight_vector(u, mass, 1.0, p, sums) for p in orders]
    return prepare_weighted_cdf(model, z, weights)


def centering_curve(
    model: SimModel,
    x: float,
    ts: np.ndarray,
    kernel: Kernel,
    h: float,
    order: int,
) -> np.ndarray:
    """Vectorized centering values at many response points.

    The order-``order`` fit's weights on fixed Gauss-Legendre nodes, applied
    to the true F(t | z) there; exact to near machine precision for smooth
    conditional laws (m1) and cross-checked against
    :func:`centering_oracle` in the tests.
    """
    order = _check_integer("order", order, among=CENTERING_ORDERS)
    _check_open_unit("bandwidth", h, InvalidBandwidth)
    return _centering(model, x, kernel, h, (order,))(ts)[0]


# ---------------------------------------------------------------------------
# Sup-deviation statistics
# ---------------------------------------------------------------------------

def step_sup_deviation(values: np.ndarray, refs: np.ndarray) -> float:
    """Exact sup over t of |step - ref| for a right-continuous step curve.

    ``values`` are the step values at its jump points and ``refs`` the
    reference curve at those same points.  The supremum of the difference
    against a continuous monotone reference is attained either at a jump
    or at its left limit, so checking both is exact.
    """
    values = np.asarray(values, dtype=float)
    refs = np.asarray(refs, dtype=float)
    return float(_step_sup_deviations(values[None], refs[None])[0])


def _step_sup_deviations(values, refs):
    """:func:`step_sup_deviation` of each row of ``values`` against that row of ``refs``.

    ``values`` holds one step curve per row of ``refs``, or a single curve
    for all of them.  Each curve's left limits are built once and every
    deviation is taken in one pass; max and abs are exact, so each entry
    has the bits of its own :func:`step_sup_deviation`.
    """
    rows, size = values.shape
    steps = np.empty((2, rows, size))
    steps[0] = values
    steps[1, :, 0] = 0.0
    steps[1, :, 1:] = values[:, :-1]
    dev = steps - refs
    np.abs(dev, out=dev)
    return dev.max(axis=(0, 2))


def _reference_rows(model, cfg, truth, orders):
    """The reference function ``rows(x, ts)`` of a replicated experiment.

    At response points ``ts`` it stacks the true F(t | x) when ``truth``
    is set (the one-row true-cdf matrix at x, which is the value
    :func:`true_cdf` gives), then one row per entry of ``orders``, the
    order-p centering.  Every order's row comes from one evaluation of the
    location's centering, which is built the first time x is asked for and
    kept for every later replication.
    """
    centerings = {}

    def rows(x, ts):
        stacked = [true_cdf_grid(model, [x], ts)] if truth else []
        if orders:
            if x not in centerings:
                centerings[x] = _centering(model, x, cfg.kernel, cfg.bandwidth, orders)
            stacked.append(centerings[x](ts))
        return np.concatenate(stacked)

    return rows


def _normalized_sups(sample, grid, cfg, rows):
    """Per reference row, the largest sup deviation over L(x) across the grid.

    Each location is fitted once and its curve compared with every row of
    ``rows(x, ts)``; returns the maxima and the count of skipped locations.
    """
    def ratios(x, fit, half):
        curve = fit.curve(sample, monotonize=False)
        return _step_sup_deviations(curve.values[None], rows(x, curve.jump_ts)) / half

    kept, skipped = fit_grid(sample, grid, cfg, ratios)
    return (*np.max(kept, axis=0).tolist(), len(skipped))


def _sup_scale(n, h):
    """sqrt(n h / log(1/h)), the scale of the normalized sup statistic."""
    return math.sqrt(n * h / math.log(1.0 / h))


# ---------------------------------------------------------------------------
# Replicated experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    """Self-describing result of a replicated or quadrature experiment."""

    kind: str
    model: str
    n_values: list
    reps: int
    seed: int | None
    params: dict = field(default_factory=dict)
    summaries: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _stats(values: np.ndarray) -> dict:
    return {
        "mean": float(np.mean(values)),
        "median": float(np.median(values)),
        "std": float(np.std(values)),
        "count": int(values.size),
    }


def _check_experiment_args(n, reps, workers):
    for name, value, least in (("n", n, 2), ("reps", reps, 1), ("workers", workers, 1)):
        _check_integer(name, value, least)


def _replicate(model, n, reps, seed, stat) -> list[np.ndarray]:
    """Columns of ``stat(sample)`` over replications 0 .. reps - 1.

    Replication r draws its sample from the child stream with spawn key
    (r,) of ``seed`` and runs on the calling thread.  ``stat`` returns a
    tuple, and column i holds its i-th entries in replication order.
    """
    results = [
        stat(draw(model, n, np.random.SeedSequence(seed, spawn_key=(r,))))
        for r in range(reps)
    ]
    return [np.array(column) for column in zip(*results)]


def _grid_record(grid: np.ndarray) -> list:
    """``grid`` as [first, last, count] if np.linspace makes it bit for bit, else its points."""
    with np.errstate(all="ignore"):  # a span beyond the float range
        line = np.linspace(grid[0], grid[-1], grid.size)
    if line.tobytes() == grid.tobytes():
        return [float(grid[0]), float(grid[-1]), int(grid.size)]
    return grid.tolist()


def _replicated_report(
    kind, model, n, reps, seed, cfg, grid, skipped, *, params, summary, reference, flags
) -> ExperimentReport:
    """Report of one replicated experiment; adds the keys every such report shares.

    ``skipped`` is the column of skipped-location counts per replication.
    """
    return ExperimentReport(
        kind=kind,
        model=model.kind,
        n_values=[int(n)],
        reps=int(reps),
        seed=int(seed),
        params={
            "kernel": cfg.kernel.name,
            "bandwidth": cfg.bandwidth,
            "x_grid": _grid_record(grid),
            **params,
        },
        summaries=[
            {
                "n": int(n),
                "bandwidth": cfg.bandwidth,
                "reps": int(reps),
                "skipped_locations": int(skipped.sum()),
                **summary,
            }
        ],
        reference=reference,
        flags=flags,
    )


def sup_experiment(
    model: SimModel,
    n: int,
    reps: int,
    cfg: EstimatorConfig,
    x_grid: Sequence[float] | None = None,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentReport:
    """Replicated sup-deviation statistics against both references."""
    _check_experiment_args(n, reps, workers)
    order = _check_integer("order", cfg.order, among=CENTERING_ORDERS)
    rows = _reference_rows(model, cfg, True, (order,))
    grid = _as_grid(x_grid)
    total, stoch, skipped = _replicate(
        model, n, reps, seed, lambda sample: _normalized_sups(sample, grid, cfg, rows)
    )
    med = float(np.median(stoch))
    return _replicated_report(
        "sup", model, n, reps, seed, cfg, grid, skipped,
        params={"order": cfg.order},
        summary={
            "total_error": _stats(total),
            "stochastic_error": _stats(stoch),
            "stochastic_abs_gap": _stats(np.abs(stoch - 1.0)),
        },
        reference={
            "value": 1.0,
            "provenance": "probability limit of the half-width-normalized sup deviation",
        },
        flags={"stochastic_median_in_unit_bracket": bool(0.4 <= med <= 2.5)},
    )


def coverage_experiment(
    model: SimModel,
    n: int,
    reps: int,
    epsilon: float,
    cfg: EstimatorConfig,
    x_grid: Sequence[float] | None = None,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentReport:
    """Frequencies of the (1 +/- epsilon) band coverage events.

    The widened band covers the true curve everywhere exactly when the
    normalized sup deviation is at most 1 + epsilon; the narrowed band
    corresponds to 1 - epsilon.
    """
    _check_experiment_args(n, reps, workers)
    epsilon = _check_open_unit("epsilon", epsilon)
    grid = _as_grid(x_grid)
    rows = _reference_rows(model, cfg, True, ())
    lams, skipped = _replicate(
        model, n, reps, seed, lambda sample: _normalized_sups(sample, grid, cfg, rows)
    )
    upper_hits = lams <= 1.0 + epsilon
    lower_hits = lams <= 1.0 - epsilon
    return _replicated_report(
        "coverage", model, n, reps, seed, cfg, grid, skipped,
        params={"order": cfg.order, "epsilon": epsilon},
        summary={
            "upper_coverage": float(np.mean(upper_hits)),
            "lower_coverage": float(np.mean(lower_hits)),
            "statistic": _stats(lams),
        },
        reference={
            "value": 1.0,
            "provenance": "upper coverage tends to one and lower coverage to zero "
            "as the normalized sup deviation concentrates at 1",
        },
        flags={"nesting_holds_every_rep": bool(np.all(upper_hits >= lower_hits))},
    )


def bochner_check(
    model: SimModel,
    x: float,
    h_sequence: Sequence[float],
    kernel: Kernel,
    t: float = 0.5,
) -> ExperimentReport:
    """Quadrature residuals of the smoothed moments against their limits.

    As h decreases, density moments 0 and 2 approach f_X(x) and
    f_X(x) * mu_2(K), response moments approach f_X(x) F(t | x) and 0,
    and the odd density moment vanishes.  An x where f_X(x) is at most the
    bands' density tolerance is refused: every limit there would be 0.
    """
    hs = _check_grid("h_sequence", h_sequence).tolist()
    for h in hs:
        _check_open_unit("bandwidth", h, InvalidBandwidth)
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_sequence must be strictly decreasing")
    if not (math.isfinite(x) and math.isfinite(t)):
        raise ValueError(f"x and t must be finite, got x = {x!r}, t = {t!r}")

    with np.errstate(over="ignore"):  # x * x overflows far out, where f_X(x) is 0 anyway
        fx = marginal_density(model, x)
    if not fx > _DENSITY_TOL:
        raise InsufficientLocalData(f"design density f_X({x}) = {fx:.3e} too small for a check")
    # report key: (power j of u, response point or None, limit as h -> 0)
    moments = {
        "density_moment_0": (0, None, fx),
        "density_moment_1": (1, None, 0.0),
        "density_moment_2": (2, None, fx * kernel.moments[2]),
        "response_moment_0": (0, t, fx * true_cdf(model, x, t)),
        "response_moment_1": (1, t, 0.0),
    }
    limits = {key: limit for key, (_, _, limit) in moments.items()}
    summaries = [
        {
            "bandwidth": h,
            "residuals": {
                key: abs(smoothed_moment(model, kernel, h, x, j, at) - limit)
                for key, (j, at, limit) in moments.items()
            },
        }
        for h in hs
    ]

    first, last = summaries[0]["residuals"], summaries[-1]["residuals"]
    flags = {f"{key}_improves": bool(last[key] <= first[key] + 1e-12) for key in moments}
    odd = [s["residuals"][k] for s in summaries for k in ("density_moment_1", "response_moment_1")]
    flags["odd_moments_negligible"] = bool(max(odd) < 1e-6)

    return ExperimentReport(
        kind="bochner",
        model=model.kind,
        n_values=[],
        reps=0,
        seed=None,
        params={"x": float(x), "t": float(t), "kernel": kernel.name, "h_sequence": hs},
        summaries=summaries,
        reference={
            "value": limits,
            "provenance": "kernel smoothing limits as the bandwidth shrinks",
        },
        flags=flags,
    )


def em_constant_experiment(
    model: SimModel,
    n: int,
    reps: int,
    cfg: EstimatorConfig,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
    x_grid: Sequence[float] | None = None,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentReport:
    """Normalized sup deviations against their limiting constant.

    The statistic sqrt(n h / log(1/h)) * sup |estimate - centering| is
    computed for the order-0 and order-1 estimators; its limit is the
    kernel l2 norm over sqrt(2 inf f_X) on the interval.  Skipped
    locations are counted over both fits.
    """
    _check_experiment_args(n, reps, workers)
    a, b = _check_interval("interval", interval)
    grid = _as_grid(x_grid, (a, b))
    with np.errstate(over="ignore"):  # x * x overflows far out, where f_X is 0 anyway
        inf_fx = float(marginal_density(model, np.linspace(a, b, 2049)).min())
    if not inf_fx > _DENSITY_TOL:
        raise InsufficientLocalData(f"design density {inf_fx:.3e} on [{a}, {b}] too small for a limit")
    theta = math.sqrt(cfg.kernel.l2_norm_sq) / math.sqrt(2.0 * inf_fx)
    rows = _reference_rows(model, cfg, False, CENTERING_ORDERS)
    cfg1 = replace(cfg, order=1)

    def stat(sample):
        order1_skips = []

        def deviations(x, fit, half):
            # the order-1 fit reuses the order-0 window, from the sample's window
            # slot; it is skipped alone where it is degenerate, while a location
            # degenerate at order 0 has d0(x) too small for a band at either order
            curves = [fit.curve(sample, monotonize=False)]
            try:
                curves.append(local_weights(sample, x, cfg1).curve(sample, monotonize=False))
            except InsufficientLocalData as exc:
                order1_skips.append((x, exc))
            values = np.array([c.values for c in curves])
            refs = rows(x, curves[0].jump_ts)[: len(curves)]
            return _step_sup_deviations(values, refs).tolist()

        kept, skipped = fit_grid(sample, grid, replace(cfg, order=0), deviations)
        devs1 = [d[1] for d in kept if len(d) == 2]
        if not devs1:
            x, reason = order1_skips[-1]
            raise InsufficientLocalData(
                f"every grid location had a degenerate order-1 fit; the last, x = {x}: {reason}"
            )
        scale = _sup_scale(sample.n, cfg.bandwidth)
        return (
            scale * max(d[0] for d in kept),
            scale * max(devs1),
            2 * len(skipped) + len(kept) - len(devs1),
        )

    stats0, stats1, skipped = _replicate(model, n, reps, seed, stat)
    med0 = float(np.median(stats0))
    med1 = float(np.median(stats1))
    return _replicated_report(
        "em-constant", model, n, reps, seed, cfg, grid, skipped,
        params={"interval": [a, b]},
        summary={"order0": _stats(stats0), "order1": _stats(stats1)},
        reference={
            "value": theta,
            "provenance": "kernel l2 norm over sqrt(2 * minimum design density "
            f"on [{a}, {b}])",
        },
        flags={
            "order0_median_within_factor_2": bool(theta / 2.0 <= med0 <= 2.0 * theta),
            "order1_median_within_factor_2": bool(theta / 2.0 <= med1 <= 2.0 * theta),
        },
    )
