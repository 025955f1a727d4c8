"""Command line interface.

Subcommands: simulate, bands, regression, quantile, experiment, plotdata.
Samples come either from a CSV file with header ``x,y`` (--input) or from
a built-in model (--model, --n, --seed).  Band tables are written as CSV
or JSON, experiment reports always as JSON, and nothing is written
outside the path given with --output.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bands as bands_mod
from . import experiments as exp_mod
from .errors import CondBandsError, EmptyInput, ParseError
from .estimator import EstimatorConfig, Sample, reference_bandwidth
from .kernels import get_kernel
from .simulation import (
    draw,
    oracle_density_provider,
    sim_model,
    true_cdf,
)

__all__ = ["RunConfig", "ingest_csv", "build_parser", "parse_args", "run", "main"]


@dataclass
class RunConfig:
    """Parsed invocation; one instance per CLI run."""

    command: str
    output: str
    input: str | None = None
    model: str | None = None
    n: int = 500
    seed: int = 0
    kernel: str = "epanechnikov"
    bandwidth: str = "auto"
    order: int = 1
    x_grid: tuple = (-1.0, 1.0, 41)
    t_grid: object = "jumps"
    epsilon: float = 0.0
    alpha: float = 0.5
    y_range: tuple | None = None
    clip: bool = True
    density: str = "plugin"
    raw_curve: bool = False
    experiment: str | None = None
    n_list: tuple = (500,)
    reps: int = 100
    h_list: tuple = (0.4, 0.2, 0.1, 0.05)
    x: float = 0.0
    t: float = 0.5
    interval: tuple = (-1.0, 1.0)
    workers: int = 1
    fmt: str = "csv"
    svg: str | None = None


def ingest_csv(path: str) -> Sample:
    """Read a sample from CSV with header ``x,y``; strict about bad rows."""
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = None
        for lineno, row in enumerate(reader, start=1):
            if header is None:
                header = [c.strip().lower() for c in row]
                if header != ["x", "y"]:
                    raise ParseError(f"expected header 'x,y', got {','.join(row)!r}", line=lineno)
                continue
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 fields, got {len(row)}", line=lineno)
            try:
                x_val = float(row[0])
                y_val = float(row[1])
            except ValueError:
                raise ParseError(f"non-numeric row {row!r}", line=lineno) from None
            if not (math.isfinite(x_val) and math.isfinite(y_val)):
                raise ParseError(f"non-finite row {row!r}", line=lineno)
            xs.append(x_val)
            ys.append(y_val)
    if header is None:
        raise EmptyInput(f"{path} is empty")
    if not xs:
        raise EmptyInput(f"{path} contains a header but no data rows")
    return Sample(xs=np.asarray(xs), ys=np.asarray(ys))


def _grid_spec(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    return (start, stop, count)


def _t_grid_spec(text: str):
    if text == "jumps":
        return "jumps"
    return _grid_spec(text)


def _range_spec(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range spec {text!r}") from None


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(p) for p in text.split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from None


def _add_source_args(sub):
    sub.add_argument("--input", help="CSV file with header x,y")
    sub.add_argument("--model", choices=["m1", "m2"], help="built-in model")
    sub.add_argument("--n", type=int, default=500, help="sample size for --model")
    sub.add_argument("--seed", type=int, default=0)


def _add_fit_args(sub):
    sub.add_argument(
        "--kernel", default="epanechnikov", choices=["epanechnikov", "uniform", "gaussian"]
    )
    sub.add_argument(
        "--bandwidth", default="auto", help='bandwidth in (0,1) or "auto" for n**(-1/5)'
    )
    sub.add_argument("--order", type=int, default=1, choices=[0, 1, 2])
    sub.add_argument("--x-grid", type=_grid_spec, default=(-1.0, 1.0, 41), metavar="START:STOP:COUNT")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condbands",
        description="Conditional distribution estimates with uniform certainty bands.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="draw a sample from a built-in model")
    p.add_argument("--model", choices=["m1", "m2"], required=True)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = subs.add_parser("bands", help="distribution band table")
    _add_source_args(p)
    _add_fit_args(p)
    p.add_argument("--t-grid", type=_t_grid_spec, default="jumps", metavar="START:STOP:COUNT|jumps")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--clip", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    p.add_argument("--output", required=True)

    p = subs.add_parser("regression", help="regression band table")
    _add_source_args(p)
    _add_fit_args(p)
    p.add_argument("--y-range", type=_range_spec, required=True, metavar="LO:HI")
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    p.add_argument("--output", required=True)

    p = subs.add_parser("quantile", help="quantile band table")
    _add_source_args(p)
    _add_fit_args(p)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--density", choices=["plugin", "oracle"], default="plugin")
    p.add_argument("--raw-curve", action="store_true", help="invert the raw curve")
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    p.add_argument("--output", required=True)

    p = subs.add_parser("experiment", help="run a verification experiment")
    p.add_argument(
        "experiment", choices=["sup", "coverage", "bochner", "em-constant"]
    )
    p.add_argument("--model", choices=["m1", "m2"], required=True)
    p.add_argument("--n-list", type=_int_list, default=(500,), metavar="N1,N2,...")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument(
        "--kernel", default="epanechnikov", choices=["epanechnikov", "uniform", "gaussian"]
    )
    p.add_argument("--bandwidth", default="auto")
    p.add_argument("--order", type=int, default=1, choices=[0, 1, 2])
    p.add_argument("--x-grid", type=_grid_spec, default=(-1.0, 1.0, 41), metavar="START:STOP:COUNT")
    p.add_argument("--interval", type=_range_spec, default=(-1.0, 1.0), metavar="LO:HI")
    p.add_argument("--x", type=float, default=0.0, help="location for bochner")
    p.add_argument("--t", type=float, default=0.5, help="response point for bochner")
    p.add_argument("--h-list", type=_float_list, default=(0.4, 0.2, 0.1, 0.05))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", required=True)

    p = subs.add_parser("plotdata", help="long-format curve/band data for plotting")
    _add_source_args(p)
    _add_fit_args(p)
    p.add_argument("--t-grid", type=_t_grid_spec, default=None, metavar="START:STOP:COUNT|jumps")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--clip", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--svg", help="also write a minimal SVG rendering")
    p.add_argument("--output", required=True)

    return parser


def parse_args(argv=None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in vars(ns).items() if k in fields and v is not None}
    if ns.command == "plotdata" and getattr(ns, "t_grid", None) is None:
        kwargs.pop("t_grid", None)
        kwargs["t_grid"] = None
    return RunConfig(**kwargs)


def _load_sample(config: RunConfig):
    if (config.input is None) == (config.model is None):
        raise CondBandsError("exactly one of --input and --model is required")
    if config.input is not None:
        return ingest_csv(config.input), None
    model = sim_model(config.model)
    return draw(model, config.n, config.seed), model


def _resolve_bandwidth(config: RunConfig, n: int) -> float:
    if config.bandwidth == "auto":
        return reference_bandwidth(n)
    try:
        return float(config.bandwidth)
    except ValueError:
        raise CondBandsError(
            f'bandwidth must be a number or "auto", got {config.bandwidth!r}'
        ) from None


def _estimator_config(config: RunConfig, n: int) -> EstimatorConfig:
    return EstimatorConfig(
        kernel=get_kernel(config.kernel),
        bandwidth=_resolve_bandwidth(config, n),
        order=config.order,
    )


def _linspace(spec) -> np.ndarray:
    start, stop, count = spec
    return np.linspace(start, stop, count)


def _write_table(table, config: RunConfig) -> None:
    if config.fmt == "json":
        with open(config.output, "w") as fh:
            fh.write(table.to_json())
            fh.write("\n")
    else:
        table.to_csv(config.output)


def _cmd_simulate(config: RunConfig) -> int:
    sample = draw(sim_model(config.model), config.n, config.seed)
    with open(config.output, "w", newline="") as fh:
        bands_mod.write_csv(fh, ("x", "y"), (sample.xs, sample.ys))
    return 0


def _cmd_bands(config: RunConfig) -> int:
    sample, _ = _load_sample(config)
    cfg = _estimator_config(config, sample.n)
    t_grid = config.t_grid if config.t_grid == "jumps" else _linspace(config.t_grid)
    table = bands_mod.cdf_band(
        sample, _linspace(config.x_grid), t_grid, cfg,
        epsilon=config.epsilon, clip=config.clip,
    )
    _write_table(table, config)
    return 0


def _cmd_regression(config: RunConfig) -> int:
    sample, _ = _load_sample(config)
    cfg = _estimator_config(config, sample.n)
    table = bands_mod.regression_band(
        sample, _linspace(config.x_grid), cfg, config.y_range
    )
    _write_table(table, config)
    return 0


def _cmd_quantile(config: RunConfig) -> int:
    sample, model = _load_sample(config)
    cfg = _estimator_config(config, sample.n)
    if config.density == "oracle":
        if model is None:
            raise CondBandsError("--density oracle requires --model")
        provider = oracle_density_provider(model)
    else:
        def provider(x, y):
            return bands_mod.density_plugin(sample, x, y, cfg)

    table = bands_mod.quantile_band(
        sample, _linspace(config.x_grid), config.alpha, cfg, provider,
        use_raw_curve=config.raw_curve,
    )
    _write_table(table, config)
    return 0


def _cmd_experiment(config: RunConfig) -> int:
    model = sim_model(config.model)
    reports = []
    if config.experiment == "bochner":
        reports.append(
            exp_mod.bochner_check(
                model, config.x, config.h_list, get_kernel(config.kernel), t=config.t
            )
        )
    else:
        for n in config.n_list:
            cfg = _estimator_config(config, n)
            grid = _linspace(config.x_grid)
            if config.experiment == "sup":
                rep = exp_mod.sup_experiment(
                    model, n, config.reps, cfg, grid, config.seed, config.workers
                )
            elif config.experiment == "coverage":
                rep = exp_mod.coverage_experiment(
                    model, n, config.reps, config.epsilon, cfg, grid,
                    config.seed, config.workers,
                )
            else:
                rep = exp_mod.em_constant_experiment(
                    model, n, config.reps, cfg, config.interval, grid,
                    config.seed, config.workers,
                )
            reports.append(rep)
    with open(config.output, "w") as fh:
        if len(reports) == 1:
            fh.write(reports[0].to_json())
        else:
            fh.write("[\n")
            fh.write(",\n".join(r.to_json() for r in reports))
            fh.write("\n]")
        fh.write("\n")
    return 0


def _svg_polyline(ts, vals, box, t_lim, v_lim, color, dash=None):
    x0, y0, w, h = box
    t_min, t_max = t_lim
    v_min, v_max = v_lim
    t_span = (t_max - t_min) or 1.0
    v_span = (v_max - v_min) or 1.0
    pts = " ".join(
        f"{x0 + (t - t_min) / t_span * w:.2f},{y0 + h - (v - v_min) / v_span * h:.2f}"
        for t, v in zip(ts, vals)
    )
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.2"{dash_attr} '
        f'points="{pts}"/>'
    )


def _write_svg(path, panels):
    width, panel_h, margin = 640, 150, 30
    height = margin + len(panels) * (panel_h + margin)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for i, panel in enumerate(panels):
        y0 = margin + i * (panel_h + margin)
        box = (60, y0, width - 90, panel_h)
        ts = panel["ts"]
        series = [panel["lower"], panel["upper"], panel["estimate"]]
        if panel.get("truth") is not None:
            series.append(panel["truth"])
        v_min = min(float(np.min(s)) for s in series)
        v_max = max(float(np.max(s)) for s in series)
        t_lim = (float(ts[0]), float(ts[-1]))
        v_lim = (min(v_min, 0.0), max(v_max, 1.0))
        parts.append(
            f'<rect x="{box[0]}" y="{box[1]}" width="{box[2]}" height="{box[3]}" '
            'fill="none" stroke="#999"/>'
        )
        parts.append(
            f'<text x="{box[0]}" y="{box[1] - 8}" font-size="12" '
            f'font-family="sans-serif">x = {panel["x"]:.4g}</text>'
        )
        parts.append(_svg_polyline(ts, panel["lower"], box, t_lim, v_lim, "#7aa6c2"))
        parts.append(_svg_polyline(ts, panel["upper"], box, t_lim, v_lim, "#7aa6c2"))
        parts.append(_svg_polyline(ts, panel["estimate"], box, t_lim, v_lim, "#222"))
        if panel.get("truth") is not None:
            parts.append(
                _svg_polyline(ts, panel["truth"], box, t_lim, v_lim, "#c23b22", dash="4 3")
            )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def _cmd_plotdata(config: RunConfig) -> int:
    sample, model = _load_sample(config)
    cfg = _estimator_config(config, sample.n)
    if config.t_grid is None:
        t_grid = np.linspace(float(sample.ys.min()), float(sample.ys.max()), 101)
    elif config.t_grid == "jumps":
        t_grid = "jumps"
    else:
        t_grid = _linspace(config.t_grid)
    table = bands_mod.cdf_band(
        sample, _linspace(config.x_grid), t_grid, cfg,
        epsilon=config.epsilon, clip=config.clip,
    )
    skipped = table.metadata["skipped_locations"]
    if skipped:
        print(f"note: skipped degenerate locations {skipped}", file=sys.stderr)
    # One block of rows per kept location.  Explicit grids give every block
    # len(t_grid) rows; a jump curve contains the sample minimum exactly
    # once, as its first jump, so each jump block starts there.
    if isinstance(t_grid, str):
        starts = np.flatnonzero(table.t == sample.ys.min())
    else:
        starts = np.arange(0, len(table), t_grid.size)
    panels = []
    rows = []
    for block in np.split(np.arange(len(table)), starts[1:]):
        x = float(table.x[block[0]])
        ts = table.t[block]
        est, lower, upper = table.estimate[block], table.lower[block], table.upper[block]
        truth = true_cdf(model, x, ts) if model is not None else None
        for name, vals in (("estimate", est), ("lower", lower), ("upper", upper)):
            for t, v in zip(ts, vals):
                rows.append((x, float(t), name, float(v)))
        if truth is not None:
            for t, v in zip(ts, truth):
                rows.append((x, float(t), "truth", float(v)))
        panels.append(
            {"x": x, "ts": ts, "estimate": est, "lower": lower,
             "upper": upper, "truth": truth}
        )
    with open(config.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "t", "series", "value"])
        for row in rows:
            writer.writerow([repr(row[0]), repr(row[1]), row[2], repr(row[3])])
    if config.svg:
        _write_svg(config.svg, panels)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "bands": _cmd_bands,
    "regression": _cmd_regression,
    "quantile": _cmd_quantile,
    "experiment": _cmd_experiment,
    "plotdata": _cmd_plotdata,
}


def run(config: RunConfig) -> int:
    return _COMMANDS[config.command](config)


def main(argv=None) -> int:
    config = parse_args(argv)
    # The library rejects out-of-range argument values with ValueError.
    try:
        return run(config)
    except (CondBandsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
