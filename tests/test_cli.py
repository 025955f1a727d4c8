import csv
import io
import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import condbands
from condbands import (
    EmptyInput,
    EstimatorConfig,
    ParseError,
    cdf_band,
    draw,
    get_kernel,
    reference_bandwidth,
    sim_model,
)
from condbands.cli import ingest_csv, main, parse_args

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# A child interpreter imports the same condbands as this process, also when
# only pytest's `pythonpath` setting put the package on the path.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(condbands.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH")) if p
    ),
}


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def test_ingest_round_trip(tmp_path):
    out = tmp_path / "sample.csv"
    assert main(["simulate", "--model", "m1", "--n", "50", "--seed", "7",
                 "--output", str(out)]) == 0
    sample = ingest_csv(str(out))
    direct = draw(sim_model("m1"), 50, 7)
    assert np.array_equal(sample.xs, direct.xs)
    assert np.array_equal(sample.ys, direct.ys)


def reference_simulate_csv(sample, path):
    """The per-row ``simulate`` writer that the columnar writer replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in zip(sample.xs, sample.ys):
            writer.writerow([repr(float(x)), repr(float(y))])


@pytest.mark.parametrize("model", ["m1", "m2"])
def test_simulate_matches_per_row_writer(tmp_path, model):
    out = tmp_path / "sample.csv"
    assert main(["simulate", "--model", model, "--n", "2049", "--seed", "12",
                 "--output", str(out)]) == 0
    reference_simulate_csv(draw(sim_model(model), 2049, 12), tmp_path / "ref.csv")
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_simulate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        main(["simulate", "--model", "m2", "--n", "30", "--seed", "3",
              "--output", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_ingest_header_only(tmp_path):
    path = write(tmp_path / "empty.csv", "x,y\n")
    with pytest.raises(EmptyInput):
        ingest_csv(path)


def test_ingest_bad_header(tmp_path):
    path = write(tmp_path / "h.csv", "a,b\n1,2\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert err.value.line == 1


def test_ingest_bad_row_reports_line(tmp_path):
    path = write(tmp_path / "r.csv", "x,y\n0.1,0.2\n0.3,0.4\nbogus,0.5\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert err.value.line == 4
    assert "line 4" in str(err.value)


def test_ingest_wrong_field_count(tmp_path):
    path = write(tmp_path / "c.csv", "x,y\n0.1,0.2,0.3\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert err.value.line == 2


def test_ingest_rejects_non_finite(tmp_path):
    path = write(tmp_path / "n.csv", "x,y\n0.1,nan\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert err.value.line == 2


def test_ingest_skips_blank_lines(tmp_path):
    path = write(tmp_path / "b.csv", "x,y\n\n0.1,0.2\n\n0.3,0.4\n")
    sample = ingest_csv(path)
    assert sample.n == 2


# ---------------------------------------------------------------------------
# Band commands
# ---------------------------------------------------------------------------

def test_bands_auto_bandwidth_metadata(tmp_path):
    out = tmp_path / "bands.json"
    assert main(["bands", "--model", "m1", "--n", "500", "--seed", "1",
                 "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["bandwidth"] == reference_bandwidth(500)
    assert doc["metadata"]["bandwidth"] == 0.2885399811814427


def test_bands_match_library_pipeline(tmp_path):
    out = tmp_path / "bands.csv"
    argv = ["bands", "--model", "m1", "--n", "200", "--seed", "11",
            "--kernel", "epanechnikov", "--bandwidth", "0.3", "--order", "1",
            "--x-grid=-0.5:0.5:5", "--epsilon", "0.25",
            "--output", str(out)]
    assert main(argv) == 0
    sample = draw(sim_model("m1"), 200, 11)
    cfg = EstimatorConfig(kernel=get_kernel("epanechnikov"), bandwidth=0.3, order=1)
    table = cdf_band(sample, np.linspace(-0.5, 0.5, 5), "jumps", cfg, epsilon=0.25)
    buf = io.StringIO()
    table.to_csv(buf)
    assert out.read_bytes().decode() == buf.getvalue()


def test_bands_epsilon_nesting(tmp_path):
    common = ["bands", "--model", "m1", "--n", "300", "--seed", "2",
              "--t-grid", "0.1:0.9:9", "--format", "json"]
    tight = tmp_path / "tight.json"
    wide = tmp_path / "wide.json"
    main(common + ["--epsilon", "0.0", "--output", str(tight)])
    main(common + ["--epsilon", "0.5", "--output", str(wide)])
    a = json.loads(tight.read_text())["rows"]
    b = json.loads(wide.read_text())["rows"]
    assert [r["estimate"] for r in a] == [r["estimate"] for r in b]
    for ra, rb in zip(a, b):
        assert rb["lower"] <= ra["lower"] and ra["upper"] <= rb["upper"]


def test_regression_range_violation_exits_one(tmp_path, capsys):
    src = tmp_path / "s.csv"
    main(["simulate", "--model", "m1", "--n", "100", "--seed", "0",
          "--output", str(src)])
    code = main(["regression", "--input", str(src), "--y-range", "0.4:0.6",
                 "--bandwidth", "0.3", "--output", str(tmp_path / "r.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_regression_table(tmp_path):
    out = tmp_path / "reg.csv"
    assert main(["regression", "--model", "m1", "--n", "400", "--seed", "4",
                 "--y-range", "0:1", "--bandwidth", "0.3",
                 "--x-grid=-0.5:0.5:3", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,t,estimate,halfwidth,lower,upper"
    assert len(lines) == 4
    # regression rows carry no response point
    assert all(row.split(",")[1] == "" for row in lines[1:])


def test_quantile_requires_source(capsys):
    code = main(["quantile", "--alpha", "0.5", "--output", "/tmp/unused.csv"])
    assert code == 1
    assert "exactly one" in capsys.readouterr().err


def test_quantile_oracle_density(tmp_path):
    out = tmp_path / "q.json"
    assert main(["quantile", "--model", "m1", "--n", "500", "--seed", "9",
                 "--alpha", "0.5", "--density", "oracle", "--format", "json",
                 "--x-grid=-0.4:0.4:3", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["alpha"] == 0.5
    assert all(r["lower"] <= r["estimate"] <= r["upper"] for r in doc["rows"])


def test_bad_bandwidth_text(capsys):
    code = main(["bands", "--model", "m1", "--bandwidth", "wide",
                 "--output", "/tmp/unused.csv"])
    assert code == 1
    assert "auto" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bands", "--model", "m1", "--epsilon", "1.5"],
    ["plotdata", "--model", "m1", "--epsilon", "1.5"],
    ["quantile", "--model", "m1", "--alpha", "1.5"],
    ["regression", "--model", "m1", "--y-range", "1:0"],
    ["experiment", "sup", "--model", "m1", "--reps", "0"],
    ["experiment", "coverage", "--model", "m1", "--epsilon", "0"],
    ["bands", "--model", "m1", "--n", "0"],
    ["experiment", "sup", "--model", "m1", "--n-list", "200", "--reps", "2", "--workers", "0"],
    ["experiment", "sup", "--model", "m1", "--n-list", "200", "--reps", "2", "--workers", "-3"],
], ids=["bands-epsilon", "plotdata-epsilon", "quantile-alpha", "regression-y-range",
        "sup-reps", "coverage-epsilon", "bands-n", "sup-workers-0", "sup-workers-negative"])
def test_out_of_range_values_exit_one_without_traceback(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Experiments and plot data
# ---------------------------------------------------------------------------

def test_experiment_em_constant_deterministic(tmp_path):
    args = ["experiment", "em-constant", "--model", "m1", "--n-list", "150",
            "--reps", "3", "--seed", "21"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert main(args + ["--workers", "2", "--output", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["kind"] == "em-constant"


def test_experiment_multiple_n_writes_array(tmp_path):
    out = tmp_path / "cov.json"
    assert main(["experiment", "coverage", "--model", "m1",
                 "--n-list", "120,180", "--reps", "2", "--epsilon", "0.5",
                 "--output", str(out)]) == 0
    docs = json.loads(out.read_text())
    assert isinstance(docs, list)
    assert [d["n_values"] for d in docs] == [[120], [180]]


def test_experiment_bochner(tmp_path):
    out = tmp_path / "boch.json"
    assert main(["experiment", "bochner", "--model", "m1", "--x", "0.0",
                 "--h-list", "0.4,0.1", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "bochner"
    assert doc["flags"]["density_moment_0_improves"]


def test_plotdata_long_format_and_svg(tmp_path):
    out = tmp_path / "plot.csv"
    svg = tmp_path / "plot.svg"
    assert main(["plotdata", "--model", "m1", "--n", "200", "--seed", "5",
                 "--x-grid=-0.5:0.5:3", "--t-grid", "0:1:21",
                 "--svg", str(svg), "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,t,series,value"
    series = {row.split(",")[2] for row in lines[1:]}
    assert series == {"estimate", "lower", "upper", "truth"}
    # 3 panels x 21 points x 4 series
    assert len(lines) - 1 == 3 * 21 * 4
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")


def test_plotdata_file_input_has_no_truth(tmp_path):
    src = tmp_path / "s.csv"
    main(["simulate", "--model", "m1", "--n", "150", "--seed", "6",
          "--output", str(src)])
    out = tmp_path / "plot.csv"
    assert main(["plotdata", "--input", str(src), "--x-grid", "0:0:1",
                 "--t-grid", "0:1:5", "--output", str(out)]) == 0
    series = {row.split(",")[2] for row in out.read_text().strip().splitlines()[1:]}
    assert series == {"estimate", "lower", "upper"}


def test_plotdata_skips_degenerate_locations(tmp_path, capsys):
    # only x = 0 has data in its window; the others are skipped, as in bands
    out = tmp_path / "plot.csv"
    assert main(["plotdata", "--model", "m1", "--n", "200", "--x-grid=-6:6:5",
                 "--output", str(out)]) == 0
    xs = {row.split(",")[0] for row in out.read_text().strip().splitlines()[1:]}
    assert xs == {"0.0"}
    err = capsys.readouterr().err
    assert "note: skipped degenerate locations [-6.0, -3.0, 3.0, 6.0]" in err
    assert main(["plotdata", "--model", "m1", "--n", "200", "--x-grid=5:6:2",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_args_round_trip():
    config = parse_args(["bands", "--model", "m2", "--n", "42", "--seed", "8",
                         "--epsilon", "0.3", "--no-clip", "--t-grid", "jumps",
                         "--output", "out.csv"])
    assert config.command == "bands"
    assert config.model == "m2"
    assert config.n == 42
    assert config.epsilon == 0.3
    assert config.clip is False
    assert config.t_grid == "jumps"
    # plotdata's default t grid is None: a 101-point span of the responses
    plot = parse_args(["plotdata", "--model", "m1", "--output", "out.csv"])
    assert plot.t_grid is None
    assert plot.svg is None and plot.input is None
    # the experiment subcommand shares the fit options and their defaults
    exp = parse_args(["experiment", "sup", "--model", "m1", "--output", "out.json"])
    assert (exp.kernel, exp.bandwidth, exp.order, exp.x_grid) == (
        "epanechnikov", "auto", 1, (-1.0, 1.0, 41)
    )
    assert (exp.n_list, exp.reps, exp.workers) == ((500,), 100, 1)
    cov = parse_args(["experiment", "coverage", "--model", "m1", "--output", "out.json"])
    assert cov.epsilon == 0.5


# The options each experiment kind reads.  Any other experiment option is
# a usage error; VALUES holds a valid value for every one of them.
_SUP = ["--model", "--n-list", "--reps", "--seed", "--workers",
        "--kernel", "--bandwidth", "--order", "--x-grid", "--output"]
READS = {
    "sup": _SUP,
    "coverage": _SUP + ["--epsilon"],
    "bochner": ["--model", "--kernel", "--x", "--t", "--h-list", "--output"],
    "em-constant": [o for o in _SUP if o != "--order"] + ["--interval"],
}
VALUES = {"--n-list": "200", "--reps": "2", "--seed": "1", "--workers": "1",
          "--kernel": "uniform", "--bandwidth": "0.3", "--order": "0",
          "--x-grid": "-0.5:0.5:3", "--epsilon": "0.5", "--x": "0.1", "--t": "0.4",
          "--h-list": "0.4,0.2", "--interval": "-1:1"}
UNREAD = [(kind, opt) for kind in READS for opt in VALUES if opt not in READS[kind]]


@pytest.mark.parametrize("kind", READS)
def test_experiment_kinds_parse_only_the_options_they_read(kind):
    config = parse_args(["experiment", kind, "--model", "m1", "--output", "out.json"])
    declared = {opt[2:].replace("-", "_") for opt in READS[kind]}
    assert set(vars(config)) == declared | {"command", "experiment", "runner"}
    assert len(UNREAD) == 23


@pytest.mark.parametrize("kind,opt", UNREAD, ids=[f"{k}{o}" for k, o in UNREAD])
def test_options_a_kind_does_not_read_are_usage_errors(tmp_path, capsys, kind, opt):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", kind, "--model", "m1", f"{opt}={VALUES[opt]}",
              "--output", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {opt}=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bands", "--model", "m1", "--n", "300", "--x-grid", "nan:1:3"],
    ["bands", "--model", "m1", "--x-grid", "0:inf:3"],
    ["bands", "--model", "m1", "--n", "300", "--x-grid", "0:0:1", "--t-grid", "nan:1:3"],
    ["bands", "--model", "m1", "--epsilon", "nan"],
    ["plotdata", "--model", "m1", "--epsilon", "inf"],
    ["plotdata", "--model", "m1", "--t-grid=-inf:1:3"],
    ["regression", "--model", "m1", "--n", "300", "--y-range", "0:1", "--x-grid", "nan:0:2"],
    ["regression", "--model", "m1", "--y-range", "nan:1"],
    ["quantile", "--model", "m1", "--alpha", "nan"],
    ["experiment", "sup", "--model", "m1", "--x-grid", "nan:0:3"],
    ["experiment", "coverage", "--model", "m1", "--epsilon", "nan"],
    ["experiment", "em-constant", "--model", "m1", "--n-list", "200", "--reps", "2",
     "--interval=-1:inf"],
    ["experiment", "bochner", "--model", "m1", "--t", "inf"],
    ["experiment", "bochner", "--model", "m1", "--x=-inf"],
    ["experiment", "bochner", "--model", "m1", "--h-list", "0.4,nan"],
])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(out)])
    assert exc.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["experiment", "sup", "--model", "m1", "--n-list", ","],
    ["experiment", "bochner", "--model", "m1", "--h-list", ""],
], ids=["n-list", "h-list"])
def test_empty_number_lists_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(out)])
    assert exc.value.code == 2
    assert "is empty" in capsys.readouterr().err
    assert not out.exists()


def test_console_script_smoke(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "condbands.cli", "simulate", "--model", "m1",
         "--n", "20", "--seed", "1", "--output", str(out)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == "x,y"

    # The entry point as declared, run the way the generated wrapper runs
    # it, so the check needs no installed executable.
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert list(scripts) == ["condbands"]
    module, attr = scripts["condbands"].split(":")
    call = (f"import importlib, sys; "
            f"sys.exit(getattr(importlib.import_module({module!r}), {attr!r})())")
    proc = subprocess.run(
        [sys.executable, "-c", call, "--help"], capture_output=True, text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: condbands")
    assert "simulate" in proc.stdout


@pytest.mark.skipif(shutil.which("condbands") is None,
                    reason="no condbands executable on PATH (package not installed)")
def test_installed_console_script(tmp_path):
    proc = subprocess.run(
        ["condbands", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "simulate" in proc.stdout
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        ["condbands", "simulate", "--model", "m1", "--n", "20", "--seed", "1",
         "--output", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == "x,y"
