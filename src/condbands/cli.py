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
import os
import re
import sys
import warnings

import numpy as np

from . import bands as bands_mod
from . import experiments as exp_mod
from .errors import CondBandsError, EmptyInput, ParseError
from .estimator import EstimatorConfig, Sample, reference_bandwidth
from .kernels import KERNELS, get_kernel
from .simulation import (
    MODEL_KINDS,
    draw,
    oracle_density_provider,
    sim_model,
    true_cdf,
)

__all__ = ["ingest_csv", "build_parser", "parse_args", "run", "main"]


def ingest_csv(path: str) -> Sample:
    """Read a sample from CSV with header ``x,y``; strict about bad rows.

    The file is UTF-8 whatever the locale, and may start with a byte order
    mark.
    """
    try:
        sample = _ingest_csv_fast(path)
        return sample if sample is not None else _ingest_csv_strict(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason}", line=_undecodable_line(path)) from None


def _undecodable_line(path: str):
    """Number of the first line of ``path`` that is not valid UTF-8."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None


# Characters of a body that only plain decimal numbers, commas, blanks and line
# ends make up.  loadtxt reads some others differently from float(): it strips
# \x1c-\x1f around a number, where float() refuses them.
_PLAIN_BODY = re.compile(r"[0-9eE.+\-, \t\r\n]*")
_CHUNK_CHARS = 1 << 20


def _ingest_csv_fast(path: str) -> Sample | None:
    """The sample parsed by ``np.loadtxt``, or None if the strict parser must decide.

    Only a file whose header line is ``x,y`` without quotes, whose body is
    plain numbers and gives at least one row of exactly two finite values,
    without any error or warning, is taken here.  Every such file parses to
    the same floats under :func:`_ingest_csv_strict`; any other file, and so
    every error, goes to the strict parser, which gives its own message and
    line number.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = fh.readline()
            if '"' in header or [
                c.strip().lower() for c in header.rstrip("\r\n").split(",")
            ] != ["x", "y"]:
                return None
            start = fh.tell()
            for chunk in iter(lambda: fh.read(_CHUNK_CHARS), ""):
                if not _PLAIN_BODY.fullmatch(chunk):
                    return None
            fh.seek(start)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                data = np.loadtxt(fh, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except (OSError, ValueError, Warning):  # ValueError covers UnicodeDecodeError
        return None
    if data.shape[0] < 1 or data.shape[1] != 2 or not np.isfinite(data).all():
        return None
    return Sample(xs=data[:, 0], ys=data[:, 1])


def _ingest_csv_strict(path: str) -> Sample:
    """Row-by-row ``csv.reader`` parse that names the line of every bad row."""
    xs, ys = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def _finite_float(text: str) -> float:
    """argparse type for a float; NaN and +-inf are usage errors too."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _grid_spec(text: str) -> np.ndarray:
    """argparse type for START:STOP:COUNT: its np.linspace grid; one point may sit anywhere."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
    try:
        start, stop, count = _finite_float(parts[0]), _finite_float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    if not math.isfinite(stop - start):
        if count > 1:
            raise argparse.ArgumentTypeError(f"grid {text!r} overflows: stop - start is not finite")
        stop = start  # np.linspace spaces even one point from STOP - START
    # the last point may round past the float range before linspace sets it to STOP
    try:
        with np.errstate(over="ignore"):
            return np.linspace(start, stop, count)
    except ValueError as exc:  # a count beyond numpy's array size limit
        raise argparse.ArgumentTypeError(f"grid {text!r}: {exc}") from None


def _t_grid_spec(text: str):
    if text == "jumps":
        return "jumps"
    return _grid_spec(text)


def _bandwidth_spec(text: str):
    return "auto" if text == "auto" else _finite_float(text)


def _range_spec(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    lo, hi = _finite_float(parts[0]), _finite_float(parts[1])
    if not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError(f"range {text!r} overflows: hi - lo is not finite")
    return (lo, hi)


def _list_type(convert, what: str):
    """argparse type for a non-empty comma-separated list of ``convert`` values."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(convert(p) for p in text.split(",") if p)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} list {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"{what} list {text!r} is empty")
        return values
    return parse


def _add_source_args(sub):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="CSV file with header x,y")
    source.add_argument("--model", choices=MODEL_KINDS, help="built-in model")
    sub.add_argument("--n", type=int, default=500, help="sample size for --model")
    sub.add_argument("--seed", type=int, default=0)


def _add_kernel_arg(sub):
    sub.add_argument("--kernel", default="epanechnikov", choices=list(KERNELS))


def _add_fit_args(sub, orders=(0, 1, 2)):
    _add_kernel_arg(sub)
    sub.add_argument("--bandwidth", type=_bandwidth_spec, default="auto", metavar="H|auto",
                     help='bandwidth in (0,1) or "auto" for n**(-1/5)')
    if orders:
        sub.add_argument("--order", type=int, default=1, choices=orders)
    sub.add_argument("--x-grid", type=_grid_spec, default="-1:1:41", metavar="START:STOP:COUNT")


def _add_experiment(kinds, kind: str, runner):
    """Parser of one experiment kind, which writes the reports ``runner(config)``.

    Abbreviations are off: ``--x`` would otherwise pass for ``--x-grid`` on
    the kinds that do not read ``--x``.
    """
    sub = kinds.add_parser(kind, allow_abbrev=False)
    sub.set_defaults(run=lambda config: _write_reports(config.output, runner(config)))
    sub.add_argument("--model", choices=MODEL_KINDS, required=True)
    sub.add_argument("--output", required=True)
    return sub


def _add_replication_args(sub, orders=(0, 1, 2)):
    sub.add_argument("--n-list", type=_list_type(int, "integer"), default=(500,), metavar="N1,N2,...")
    sub.add_argument("--reps", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    _add_fit_args(sub, orders)
    # without --x-grid the library takes its own default grid
    sub.set_defaults(x_grid=None)


def build_parser() -> argparse.ArgumentParser:
    """The whole parser: every subcommand with its arguments."""
    return _parser_for(None)


# The subcommands and their help, in the order ``condbands -h`` lists them.
_COMMAND_HELP = {
    "simulate": "draw a sample from a built-in model",
    "bands": "distribution band table",
    "regression": "regression band table",
    "quantile": "quantile band table",
    "experiment": "run a verification experiment",
    "plotdata": "long-format curve/band data for plotting",
}


def _parser_for(command: str | None) -> argparse.ArgumentParser:
    """The parser, with the arguments of ``command`` only if it names a subcommand.

    Every subcommand is listed either way, so the root help and errors stay
    the same; a run parses one subcommand, and builds only its arguments.
    """
    parser = argparse.ArgumentParser(
        prog="condbands",
        description="Conditional distribution estimates with uniform certainty bands.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    sub = {name: subs.add_parser(name, help=text) for name, text in _COMMAND_HELP.items()}
    if command in sub:
        sub = {command: sub[command]}

    if p := sub.get("simulate"):
        p.add_argument("--model", choices=MODEL_KINDS, required=True)
        p.add_argument("--n", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", required=True)
        p.set_defaults(run=_cmd_simulate)

    if p := sub.get("bands"):
        _add_source_args(p)
        _add_fit_args(p)
        p.add_argument("--t-grid", type=_t_grid_spec, default="jumps",
                       metavar="START:STOP:COUNT|jumps")
        p.add_argument("--epsilon", type=_finite_float, default=0.0)
        p.add_argument("--clip", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
        p.add_argument("--output", required=True)
        p.set_defaults(run=_table_command(_bands))

    if p := sub.get("regression"):
        _add_source_args(p)
        _add_fit_args(p)
        p.add_argument("--y-range", type=_range_spec, required=True, metavar="LO:HI")
        p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
        p.add_argument("--output", required=True)
        p.set_defaults(run=_table_command(_regression))

    if p := sub.get("quantile"):
        _add_source_args(p)
        _add_fit_args(p)
        p.add_argument("--alpha", type=_finite_float, default=0.5)
        p.add_argument("--density", choices=["plugin", "oracle"], default="plugin")
        p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
        p.add_argument("--output", required=True)
        p.set_defaults(run=_table_command(_quantile))

    if p := sub.get("experiment"):
        kinds = p.add_subparsers(dest="experiment", required=True)
        # the centering reference exists for orders 0 and 1 only
        k = _add_experiment(kinds, "sup", _each_n(exp_mod.sup_experiment))
        _add_replication_args(k, orders=(0, 1))
        k = _add_experiment(kinds, "coverage", _each_n(exp_mod.coverage_experiment, "epsilon"))
        _add_replication_args(k)
        k.add_argument("--epsilon", type=_finite_float, default=0.5)
        k = _add_experiment(kinds, "bochner", _bochner)
        _add_kernel_arg(k)
        k.add_argument("--x", type=_finite_float, default=0.0, help="location")
        k.add_argument("--t", type=_finite_float, default=0.5, help="response point")
        k.add_argument("--h-list", type=_list_type(_finite_float, "float"),
                       default=(0.4, 0.2, 0.1, 0.05))
        # em-constant fits orders 0 and 1 itself; without --x-grid, the library
        # spreads its grid over --interval
        k = _add_experiment(kinds, "em-constant",
                            _each_n(exp_mod.em_constant_experiment, "interval"))
        _add_replication_args(k, orders=())
        k.add_argument("--interval", type=_range_spec, default=(-1.0, 1.0), metavar="LO:HI")

    if p := sub.get("plotdata"):
        _add_source_args(p)
        _add_fit_args(p)
        p.add_argument("--t-grid", type=_t_grid_spec, default=None,
                       metavar="START:STOP:COUNT|jumps")
        p.add_argument("--epsilon", type=_finite_float, default=0.0)
        p.add_argument("--clip", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument("--svg", help="also write a minimal SVG rendering")
        p.add_argument("--output", required=True)
        p.set_defaults(run=_cmd_plotdata)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the root parser has no option that takes a value: its first word not
    # starting with "-" names the subcommand
    parser = _parser_for(next((arg for arg in argv if not arg.startswith("-")), None))
    config, extras = parser.parse_known_args(argv)
    if extras:
        _innermost(parser, config).error(f"unrecognized arguments: {' '.join(extras)}")
    return config


def _innermost(parser: argparse.ArgumentParser, config: argparse.Namespace):
    """The parser of the deepest subcommand named in ``config``.

    argparse hands a subparser's unrecognized arguments back to the root
    parser, whose usage line lists only the subcommands.
    """
    while True:
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return parser
        parser = subs[0].choices[getattr(config, subs[0].dest)]


def _load_sample(config: argparse.Namespace):
    if config.input is not None:
        return ingest_csv(config.input), None
    model = sim_model(config.model)
    return draw(model, config.n, config.seed), model


def _estimator_config(config: argparse.Namespace, n: int) -> EstimatorConfig:
    # em-constant declares no --order, and gets the library default
    order = {"order": config.order} if "order" in config else {}
    return EstimatorConfig(
        kernel=get_kernel(config.kernel),
        bandwidth=reference_bandwidth(n) if config.bandwidth == "auto" else config.bandwidth,
        **order,
    )


def _note_skipped(skipped: list) -> None:
    """Name on stderr the skipped grid locations, if any."""
    if skipped:
        print(f"note: skipped degenerate locations {skipped}", file=sys.stderr)


def _cmd_simulate(config: argparse.Namespace) -> None:
    sample = draw(sim_model(config.model), config.n, config.seed)
    with open(config.output, "wb") as fh:
        bands_mod.write_csv(fh, ("x", "y"), (sample.xs, sample.ys))


def _table_command(build):
    """Command writing the band table ``build(config, sample, model, cfg)`` as CSV or JSON."""
    def command(config: argparse.Namespace) -> None:
        sample, model = _load_sample(config)
        table = build(config, sample, model, _estimator_config(config, sample.n))
        _note_skipped(table.metadata["skipped_locations"])
        if config.fmt == "json":
            with open(config.output, "w") as fh:
                fh.write(table.to_json())
                fh.write("\n")
        else:
            table.to_csv(config.output)
    return command


def _bands(config, sample, model, cfg):
    return bands_mod.cdf_band(sample, config.x_grid, config.t_grid, cfg,
                              epsilon=config.epsilon, clip=config.clip)


def _regression(config, sample, model, cfg):
    return bands_mod.regression_band(sample, config.x_grid, cfg, config.y_range)


def _quantile(config, sample, model, cfg):
    if config.density == "oracle":
        if model is None:
            raise CondBandsError("--density oracle requires --model")
        provider = oracle_density_provider(model)
    else:
        def provider(x, y):
            return bands_mod.density_plugin(sample, x, y, cfg)

    return bands_mod.quantile_band(sample, config.x_grid, config.alpha, cfg, provider)


def _each_n(experiment, *own: str):
    """Runner of a replicated experiment kind: one report per --n-list entry.

    ``own`` names the options of the kind alone; each is passed on as the
    keyword argument of the same name.
    """
    def runner(config):
        model = sim_model(config.model)
        kwargs = {name: getattr(config, name) for name in own}
        return [
            experiment(
                model, n, config.reps, cfg=_estimator_config(config, n),
                x_grid=config.x_grid, seed=config.seed, **kwargs,
            )
            for n in config.n_list
        ]
    return runner


def _bochner(config):
    kernel = get_kernel(config.kernel)
    return [exp_mod.bochner_check(sim_model(config.model), config.x, config.h_list, kernel, t=config.t)]


def _write_reports(path: str, reports: list) -> None:
    with open(path, "w") as fh:
        if len(reports) == 1:
            fh.write(reports[0].to_json())
        else:
            fh.write("[\n")
            fh.write(",\n".join(r.to_json() for r in reports))
            fh.write("\n]")
        fh.write("\n")


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


# (stroke, dash) of each plotdata series, in the order the SVG draws them
_SVG_STYLES = {
    "lower": ("#7aa6c2", None),
    "upper": ("#7aa6c2", None),
    "estimate": ("#222", None),
    "truth": ("#c23b22", "4 3"),
}


def _write_svg(path, panels):
    width, panel_h, margin = 640, 150, 30
    height = margin + len(panels) * (panel_h + margin)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for i, (x, ts, series) in enumerate(panels):
        y0 = margin + i * (panel_h + margin)
        box = (60, y0, width - 90, panel_h)
        values = np.concatenate(list(series.values()))
        t_lim = (float(ts[0]), float(ts[-1]))
        v_lim = (min(float(values.min()), 0.0), max(float(values.max()), 1.0))
        parts.append(
            f'<rect x="{box[0]}" y="{box[1]}" width="{box[2]}" height="{box[3]}" '
            'fill="none" stroke="#999"/>'
        )
        parts.append(
            f'<text x="{box[0]}" y="{box[1] - 8}" font-size="12" '
            f'font-family="sans-serif">x = {x:.4g}</text>'
        )
        parts.extend(
            _svg_polyline(ts, series[name], box, t_lim, v_lim, *style)
            for name, style in _SVG_STYLES.items() if name in series
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def _cmd_plotdata(config: argparse.Namespace) -> None:
    sample, model = _load_sample(config)
    cfg = _estimator_config(config, sample.n)
    t_grid = np.linspace(*sample.y_range, 101) if config.t_grid is None else config.t_grid
    blocks, skipped = bands_mod.fit_grid(
        sample, config.x_grid, cfg, bands_mod._cdf_reduction(sample, t_grid, config.epsilon)
    )
    _note_skipped(skipped)
    # (x, ts, {series name: values}) per location, in CSV row order
    panels = []
    for block in blocks:
        xs, ts, estimate, _, lower, upper = bands_mod._table_columns([block], config.clip)
        x = float(xs[0])
        series = {"estimate": estimate, "lower": lower, "upper": upper}
        if model is not None:
            series["truth"] = true_cdf(model, x, ts)
        panels.append((x, ts, series))
    with open(config.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "t", "series", "value"])
        for x, ts, series in panels:
            for name, vals in series.items():
                writer.writerows(
                    [repr(x), repr(float(t)), name, repr(float(v))] for t, v in zip(ts, vals)
                )
    if config.svg:
        _write_svg(config.svg, panels)


def _check_outputs(config: argparse.Namespace) -> None:
    """Fail before any work if an output lacks its directory, or names the input or another output.

    Nothing is read, created or truncated here; the command opens its
    outputs only once their contents are computed.
    """
    outputs = [("--output", config.output), ("--svg", getattr(config, "svg", None))]
    outputs = [(flag, path) for flag, path in outputs if path is not None]
    source = getattr(config, "input", None)
    files = {} if source is None else {os.path.realpath(source): "--input"}
    for flag, path in outputs:
        other = files.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise CondBandsError(f"{flag} {path!r} names the same file as {other}")
    for flag, path in outputs:
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise CondBandsError(f"output directory {folder!r} of {path!r} does not exist")
        if os.path.isdir(path):
            raise CondBandsError(f"output {path!r} is a directory")


def run(config: argparse.Namespace) -> int:
    """Run the command ``parse_args`` set in ``config``; a failure raises, success returns 0."""
    _check_outputs(config)
    config.run(config)
    return 0


def main(argv=None) -> int:
    # The library rejects out-of-range argument values with ValueError, a path
    # that cannot be read or written fails with OSError, and a grid (made while
    # parsing) or a sample too large to allocate fails with MemoryError.
    try:
        return run(parse_args(argv))
    except (CondBandsError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
