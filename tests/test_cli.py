import argparse
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import condbands
import condbands.cli as cli
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


def test_ingest_accepts_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("x,y\n0.1,0.2\n0.3,0.4\n".encode("utf-8-sig"))
    sample = ingest_csv(str(path))
    assert sample.xs.tolist() == [0.1, 0.3]
    assert sample.ys.tolist() == [0.2, 0.4]


def test_ingest_reports_undecodable_bytes_as_parse_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x,y\n0.1,0.2\n0.3,0.4\n0.5,\xe90\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(str(path))
    assert err.value.line == 4
    assert "UTF-8" in str(err.value)


# a field longer than csv.field_size_limit() (131 072 characters by default),
# unquoted and quoted
OVERLONG_FIELDS = {"unquoted": "3," + "a" * 200_000, "quoted": '3,"' + "4" * 200_000 + '"'}


@pytest.mark.parametrize("row", OVERLONG_FIELDS.values(), ids=OVERLONG_FIELDS)
def test_an_overlong_field_is_a_parse_error(tmp_path, capsys, row):
    path = write(tmp_path / "long.csv", f"x,y\n1,2\n{row}\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert err.value.line == 3
    assert str(err.value).startswith("line 3: field larger than field limit")
    out = tmp_path / "out.csv"
    assert main(["bands", "--input", path, "--output", str(out)]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: line 3: ") and "Traceback" not in stderr
    assert stderr.count("\n") == 1
    assert not out.exists()


def _outcome(path, fast=True):
    """What ``ingest_csv(path)`` gives, with or without its fast path: the
    sample's bytes, or the error's type, message and line."""
    with mock.patch.object(cli, "_ingest_csv_fast", cli._ingest_csv_fast if fast else lambda p: None):
        try:
            sample = ingest_csv(path)
        except Exception as exc:
            return type(exc), str(exc), getattr(exc, "line", None)
    return sample.xs.tobytes(), sample.ys.tobytes()


# fields: mostly plain numbers, some that float() and np.loadtxt read differently
# or that the strict parser must reject
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.6g}"),
    st.integers(-10**6, 10**6).map(str),
)
_FIELDS = st.one_of(
    _NUMBERS,
    st.sampled_from([
        "1_0", "nan", "inf", "-inf", "1e999", "1e-400", '"2.5"', "", " ", "0x1p3",
        "\u0661", "2\x1c", "+.5", "5.", "-0", " 0.25 ", "\t3", "1e", "1.2.3", "e5",
    ]),
)
_ROWS = st.one_of(
    st.lists(_FIELDS, min_size=2, max_size=2).map(",".join),
    st.lists(_FIELDS, min_size=1, max_size=3).map(",".join),
    st.lists(_FIELDS, min_size=2, max_size=2).map(lambda f: ",".join(f) + ","),
    st.sampled_from(["", "  ", "\t", " , ", ","]),
)
_PLAIN_ROWS = st.one_of(
    st.tuples(_NUMBERS, _NUMBERS).map(",".join),
    st.tuples(_NUMBERS, _NUMBERS).map(lambda f: f" {f[0]} ,\t{f[1]}"),
    st.just(""),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    bom=st.booleans(),
    header=st.one_of(
        st.sampled_from(["x,y", "X, Y", " x ,y "]),
        st.sampled_from(['"x","y"', "x,y,z", "a,b", "x;y", ""]),
    ),
    rows=st.one_of(st.lists(_PLAIN_ROWS, max_size=8), st.lists(_ROWS, max_size=8)),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    final=st.booleans(),
)
def test_ingest_fast_path_matches_the_strict_parser(bom, header, rows, newline, final):
    # every file gives the strict parser's floats bit for bit, or its error
    # type and line number; about a quarter of the files are plain enough for
    # the fast path
    text = newline.join([header, *rows]) + (newline if final else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
            fh.write(text)
        assert _outcome(path) == _outcome(path, fast=False)


@pytest.mark.parametrize("text", [
    "x,y\n0.5,1\n-2e-3,+.25\n",
    "X , Y\r\n0.5,1\r\n\r\n 3 ,\t4\r\n",
    "\ufeffx,y\r0.1,0.2\r-0,5.\r",
])
def test_ingest_fast_path_takes_plain_files(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = cli._ingest_csv_fast(str(path))
    assert fast is not None
    strict = cli._ingest_csv_strict(str(path))
    assert fast.xs.tobytes() == strict.xs.tobytes() and fast.ys.tobytes() == strict.ys.tobytes()


@pytest.mark.parametrize("body", [
    "", "\n", "1_0,2\n", "nan,1\n", "1,inf\n", "1e999,1\n", '"1",2\n', "1,2,\n",
    "1\n", "1,2,3\n", "1,2\n  \n", " , \n", "2\x1c,1\n", "\u0661,2\n", "1,2\n3\n",
])
def test_ingest_fast_path_leaves_anything_else_to_the_strict_parser(tmp_path, body):
    path = tmp_path / "in.csv"
    path.write_bytes(("x,y\n" + body).encode("utf-8"))
    assert cli._ingest_csv_fast(str(path)) is None
    assert _outcome(str(path)) == _outcome(str(path), fast=False)


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


@pytest.mark.parametrize("source,message", [
    ([], "one of the arguments --input --model is required"),
    (["--input", "s.csv", "--model", "m1"], "argument --model: not allowed with argument --input"),
], ids=["neither", "both"])
def test_quantile_requires_source(tmp_path, capsys, source, message):
    out = tmp_path / "q.csv"
    with pytest.raises(SystemExit) as exc:
        main(["quantile", *source, "--alpha", "0.5", "--output", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: condbands quantile")
    assert message in err
    assert not out.exists()


def test_quantile_oracle_density(tmp_path):
    out = tmp_path / "q.json"
    assert main(["quantile", "--model", "m1", "--n", "500", "--seed", "9",
                 "--alpha", "0.5", "--density", "oracle", "--format", "json",
                 "--x-grid=-0.4:0.4:3", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["alpha"] == 0.5
    assert "raw_curve" not in doc["metadata"]
    assert all(r["lower"] <= r["estimate"] <= r["upper"] for r in doc["rows"])


def test_quantile_skips_a_location_whose_curve_never_reaches_alpha(tmp_path, capsys):
    # one such location used to fail the whole band with "curve never reaches level"
    out = tmp_path / "q.csv"
    assert main(["quantile", "--model", "m1", "--n", "2000", "--alpha", "0.9999999999999999",
                 "--output", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    err = capsys.readouterr().err
    prefix, suffix = "note: skipped locations [", "]: curve never reaches level 0.9999999999999999"
    assert err.startswith(prefix) and err.endswith(suffix + "\n") and err.count("\n") == 1
    skipped = err[len(prefix) : -len(suffix) - 1].split(", ")
    assert rows and len(rows) + len(skipped) == 41


def test_quantile_skip_note_names_each_reason(tmp_path, capsys):
    # the fit at 0 is sound there; m2's joint density at the quantile is 0
    out = tmp_path / "q.csv"
    assert main(["quantile", "--model", "m2", "--n", "400", "--seed", "3", "--density", "oracle",
                 "--output", str(out)]) == 0
    assert re.fullmatch(r"note: skipped locations \[0\.0\]: joint density 0\.0 at \(x, q\) = "
                        r"\(0\.0, \S+\) is not finite above tolerance\n", capsys.readouterr().err)
    assert main(["quantile", "--model", "m2", "--n", "400", "--seed", "3", "--density", "oracle",
                 "--x-grid=-6:0:3", "--format", "json", "--output", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (
        "note: skipped locations [-6.0]: degenerate local linear fit at x (denominator 0.000e+00)"
    )
    assert err[1].startswith("note: skipped locations [0.0]: joint density 0.0 at (x, q) = (0.0, ")
    assert len(err) == 2
    assert json.loads(out.read_text())["metadata"]["skipped_locations"] == [-6.0, 0.0]


def test_quantile_oracle_density_requires_a_model(tmp_path, capsys):
    src = write(tmp_path / "s.csv", "x,y\n0.0,0.5\n0.1,0.2\n")
    out = tmp_path / "q.csv"
    assert main(["quantile", "--input", src, "--density", "oracle", "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: --density oracle requires --model\n"
    assert not out.exists()


def test_bad_bandwidth_text(tmp_path, capsys):
    out = tmp_path / "b.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--model", "m1", "--bandwidth", "wide", "--output", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: condbands bands")
    assert "auto" in err
    assert "argument --bandwidth: invalid float value: 'wide'" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bands", "--model", "m1", "--epsilon", "1.5"],
    ["plotdata", "--model", "m1", "--epsilon", "1.5"],
    ["quantile", "--model", "m1", "--alpha", "1.5"],
    ["regression", "--model", "m1", "--y-range", "1:0"],
    ["experiment", "sup", "--model", "m1", "--reps", "0"],
    ["experiment", "coverage", "--model", "m1", "--epsilon", "0"],
    ["bands", "--model", "m1", "--n", "0"],
    ["bands", "--model", "m1", "--bandwidth", "1.5"],
    # 10**17 float64 values need more bytes than any 64-bit address space
    # holds, so each allocation fails at once, whatever the overcommit setting
    ["bands", "--model", "m1", "--x-grid=-1:1:100000000000000000"],
    ["simulate", "--model", "m1", "--n", "100000000000000000"],
    ["experiment", "sup", "--model", "m1", "--n-list", "100000000000000000", "--reps", "1"],
], ids=["bands-epsilon", "plotdata-epsilon", "quantile-alpha", "regression-y-range",
        "sup-reps", "coverage-epsilon", "bands-n", "bands-bandwidth", "bands-x-grid-too-large",
        "simulate-n-too-large", "sup-n-list-too-large"])
def test_out_of_range_values_exit_one_without_traceback(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bands", "--input", "{tmp}/missing.csv", "--output", "{tmp}/out.csv"],
    ["bands", "--input", "{tmp}", "--output", "{tmp}/out.csv"],
    ["simulate", "--model", "m1", "--n", "20", "--output", "{tmp}/no/such/dir/o.csv"],
    ["bands", "--model", "m1", "--n", "200", "--x-grid=-0.5:0.5:3",
     "--output", "{tmp}/no/such/dir/o.csv"],
    ["bands", "--input", "{tmp}/empty.csv", "--output", "{tmp}/out.csv"],
], ids=["input-missing", "input-directory", "simulate-output-dir-missing",
        "bands-output-dir-missing", "input-empty"])
def test_file_errors_exit_one_without_traceback(tmp_path, capsys, argv):
    (tmp_path / "empty.csv").write_bytes(b"")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "m1", "--output", "{tmp}/missing/o.csv"],
    ["bands", "--model", "m1", "--output", "{tmp}/missing/o.csv"],
    ["bands", "--input", "{tmp}/in.csv", "--output", "{tmp}/missing/o.csv"],
    ["regression", "--model", "m1", "--y-range", "0:1", "--output", "{tmp}/missing/o.csv"],
    ["quantile", "--model", "m1", "--output", "{tmp}/missing/o.csv"],
    ["plotdata", "--model", "m1", "--output", "{tmp}/missing/o.csv"],
    ["plotdata", "--model", "m1", "--svg", "{tmp}/missing/p.svg", "--output", "{tmp}/keep.csv"],
    ["experiment", "sup", "--model", "m1", "--reps", "2", "--output", "{tmp}/missing/dir/r.json"],
    ["experiment", "em-constant", "--model", "m1", "--reps", "2",
     "--output", "{tmp}/missing/r.json"],
    ["bands", "--model", "m1", "--output", "{tmp}"],
    ["plotdata", "--model", "m1", "--svg", "{tmp}/keep.csv", "--output", "{tmp}/keep.csv"],
    ["plotdata", "--model", "m1", "--svg", "{tmp}/../{name}/keep.csv", "--output", "{tmp}/keep.csv"],
    ["bands", "--input", "{tmp}/in.csv", "--output", "{tmp}/in.csv"],
    ["regression", "--input", "{tmp}/in.csv", "--y-range", "0:1", "--output", "{tmp}/in.csv"],
    ["quantile", "--input", "{tmp}/in.csv", "--output", "{tmp}/../{name}/in.csv"],
    ["plotdata", "--input", "{tmp}/in.csv", "--output", "{tmp}/in.csv"],
    ["plotdata", "--input", "{tmp}/../{name}/in.csv", "--svg", "{tmp}/in.csv",
     "--output", "{tmp}/keep.csv"],
    ["bands", "--input", "{tmp}/in.csv", "--output", "{tmp}/in-link.csv"],
    ["plotdata", "--input", "{tmp}/in.csv", "--svg", "{tmp}/in-link.csv",
     "--output", "{tmp}/keep.csv"],
    ["plotdata", "--model", "m1", "--svg", "{tmp}/keep-link.csv", "--output", "{tmp}/keep.csv"],
], ids=["simulate", "bands", "bands-input", "regression", "quantile", "plotdata", "plotdata-svg",
        "experiment-sup", "experiment-em-constant", "output-is-directory", "svg-is-output",
        "svg-is-output-spelled-otherwise", "bands-output-is-input", "regression-output-is-input",
        "quantile-output-is-input-spelled-otherwise", "plotdata-output-is-input",
        "plotdata-svg-is-input", "bands-output-is-a-hard-link-to-input",
        "plotdata-svg-is-a-hard-link-to-input", "plotdata-svg-is-a-hard-link-to-output"])
def test_bad_output_paths_fail_before_any_sampling(tmp_path, capsys, monkeypatch, argv):
    # no draw, no ingest and no replication runs, and no file is created
    # or truncated; NAME-link.csv is a hard link to NAME.csv, which another
    # path does not reveal
    work = []
    monkeypatch.setattr(condbands.cli, "draw", lambda *a: work.append("draw"))
    monkeypatch.setattr(condbands.cli, "ingest_csv", lambda *a: work.append("ingest"))
    monkeypatch.setattr(condbands.experiments, "draw", lambda *a: work.append("replication"))
    (tmp_path / "in.csv").write_text("x,y\n0.1,0.2\n")
    keep = tmp_path / "keep.csv"
    keep.write_text("kept\n")
    links = [f"{name}-link.csv" for name in ("in", "keep") if f"{{tmp}}/{name}-link.csv" in argv]
    for link in links:
        try:
            os.link(tmp_path / link.replace("-link", ""), tmp_path / link)
        except (AttributeError, OSError) as exc:  # no os.link, or a file system without links
            pytest.skip(f"cannot make a hard link: {exc!r}")
    assert main([a.format(tmp=tmp_path, name=tmp_path.name) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1
    assert work == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["in.csv", "keep.csv", *links])
    assert keep.read_text() == "kept\n"
    assert (tmp_path / "in.csv").read_text() == "x,y\n0.1,0.2\n"


# ---------------------------------------------------------------------------
# Experiments and plot data
# ---------------------------------------------------------------------------

def test_experiment_em_constant_deterministic(tmp_path):
    args = ["experiment", "em-constant", "--model", "m1", "--n-list", "150",
            "--reps", "3", "--seed", "21"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["kind"] == "em-constant"


def test_experiment_em_constant_grid_follows_the_interval(tmp_path):
    args = ["experiment", "em-constant", "--model", "m1", "--n-list", "150",
            "--reps", "2", "--interval=-0.5:0.5"]
    out = tmp_path / "em.json"
    assert main(args + ["--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["interval"] == [-0.5, 0.5]
    assert doc["params"]["x_grid"] == [-0.5, 0.5, 41]
    # an explicit grid still wins
    assert main(args + ["--x-grid=-0.2:0.2:5", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["x_grid"] == [-0.2, 0.2, 5]


@pytest.mark.parametrize("kind,default,explicit", [
    ("sup", [], ["--x-grid=-1:1:41"]),
    ("coverage", [], ["--x-grid=-1:1:41"]),
    ("em-constant", ["--interval=-0.5:0.5"], ["--interval=-0.5:0.5", "--x-grid=-0.5:0.5:41"]),
])
def test_experiment_default_grid_is_the_librarys(tmp_path, kind, default, explicit):
    args = ["experiment", kind, "--model", "m1", "--n-list", "150", "--reps", "2"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + default + ["--output", str(a)]) == 0
    assert main(args + explicit + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_experiment_bochner_refuses_a_vanishing_design_density(tmp_path, capsys):
    out = tmp_path / "boch.json"
    assert main(["experiment", "bochner", "--model", "m1", "--x", "50",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: design density f_X(50.0) = 0.000e+00")
    assert not out.exists()


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


# SHA-256 of plotdata's CSV and SVG for two small runs.  The uniform kernel at
# order 0, a fixed bandwidth and m2's piecewise-linear conditional law keep the
# values to plain arithmetic, so the bytes should not depend on the platform.
PLOTDATA_DIGESTS = {
    # m2 with its truth series, a decreasing explicit t grid and no clipping
    "model": ("7c71771ecee015d3c552310af8cc490acc4b8ed96614ebc92f39db00df8b82b9",
              "85d83a094f0d2287f699af74a85f2ef4962c8e63c254b42f804a33671670395f"),
    # a CSV sample without truth, jump grids and two skipped locations
    "input": ("7257fe3aee598bce2ade901b0afc2c424a50287e144b076245ee1b858e343e3f",
              "5081bbfcf88a83f12298398d3ce6e0f7a6a74402ac223927d05b09017f919899"),
}


@pytest.mark.parametrize("source", PLOTDATA_DIGESTS)
def test_plotdata_csv_and_svg_bytes_are_pinned(tmp_path, source):
    fit = ["--kernel", "uniform", "--order", "0", "--bandwidth", "0.5"]
    if source == "model":
        argv = ["--model", "m2", "--n", "60", "--seed", "3", "--x-grid=-0.5:0.5:3",
                "--t-grid=0.5:-0.5:3", "--no-clip"]
    else:
        sample = tmp_path / "s.csv"
        assert main(["simulate", "--model", "m2", "--n", "30", "--seed", "4",
                     "--output", str(sample)]) == 0
        argv = ["--input", str(sample), "--x-grid=-6:6:3", "--t-grid", "jumps"]
    out, svg = tmp_path / "plot.csv", tmp_path / "plot.svg"
    assert main(["plotdata", *argv, *fit, "--svg", str(svg), "--output", str(out)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, svg))
    assert digests == PLOTDATA_DIGESTS[source]


# SHA-256 of each table command's output for an m2 run in the arithmetic of
# PLOTDATA_DIGESTS, whose x grid holds one location (3.0) without data.
TABLE_DIGESTS = {
    "bands-csv": (["bands"],
                  "6d9bb5c6454a2bbe04ac0c30f2129ba01075ef9834120394c4f0558672e6bd5f"),
    "bands-json": (["bands", "--t-grid", "0.5:-0.5:5", "--no-clip", "--format", "json"],
                   "5da66a787e5afc68f2c3f5d5a1ee5d7f91ddccc116960e521417d3c7fbf512c4"),
    "regression-csv": (["regression", "--y-range=-3:3"],
                       "bbbf9015c58a8cb1790fb2f2c14a26226255377a60f25319d701d31cb18e4995"),
    "regression-json": (["regression", "--y-range=-3:3", "--format", "json"],
                        "c49beebd5b0fecb111810eb4a58dac676b22b0cd1cbc3999b69146bf39c9bf4f"),
    "quantile-csv": (["quantile", "--density", "plugin"],
                     "403f0de14627db1f69bead9221b5ad9f7108b312213baf81aafbbeb8fff8cb4a"),
    "quantile-json": (["quantile", "--density", "plugin", "--format", "json"],
                      "fa52302575c72d8a5c0336bf61cd314d82e9ee613030e854721621c4ba521ecd"),
}


@pytest.mark.parametrize("case", TABLE_DIGESTS)
def test_table_command_bytes_are_pinned(tmp_path, capsys, case):
    argv, digest = TABLE_DIGESTS[case]
    out = tmp_path / "table"
    assert main([*argv, "--model", "m2", "--n", "60", "--seed", "3", "--kernel", "uniform",
                 "--order", "0", "--bandwidth", "0.5", "--x-grid=-3:3:7",
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr() == (
        "", "note: skipped locations [3.0]: no kernel mass near x (order 0 denominator 0.000e+00)\n"
    )


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
    assert "note: skipped locations [-6.0, -3.0, 3.0, 6.0]: degenerate local linear fit at x" in err
    assert main(["plotdata", "--model", "m1", "--n", "200", "--x-grid=5:6:2",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["bands"],
    ["bands", "--format", "json"],
    ["regression", "--y-range", "0:1"],
    ["quantile"],
    ["plotdata"],
], ids=["bands", "bands-json", "regression", "quantile", "plotdata"])
def test_table_commands_note_skipped_locations(tmp_path, capsys, argv):
    # +-4 has no data in its window at n = 300; the table keeps -2, 0 and 2
    out = tmp_path / "out"
    assert main(argv + ["--model", "m1", "--n", "300", "--x-grid=-4:4:5",
                        "--output", str(out)]) == 0
    assert capsys.readouterr().err == (
        "note: skipped locations [-4.0, 4.0]: "
        "degenerate local linear fit at x (denominator 0.000e+00)\n"
    )


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
    # --x-grid's default is parsed anew into each namespace
    assert config.x_grid.tobytes() == np.linspace(-1.0, 1.0, 41).tobytes()
    assert parse_args(["bands", "--model", "m1", "--output", "o"]).x_grid is not config.x_grid
    # plotdata's default t grid is None: a 101-point span of the responses
    plot = parse_args(["plotdata", "--model", "m1", "--output", "out.csv"])
    assert plot.t_grid is None
    assert plot.svg is None and plot.input is None
    # the experiment subcommand shares the fit options and their defaults;
    # without --x-grid the library's own grid is used
    exp = parse_args(["experiment", "sup", "--model", "m1", "--output", "out.json"])
    assert (exp.kernel, exp.bandwidth, exp.order, exp.x_grid) == (
        "epanechnikov", "auto", 1, None
    )
    assert (exp.n_list, exp.reps) == ((500,), 100)
    cov = parse_args(["experiment", "coverage", "--model", "m1", "--output", "out.json"])
    assert cov.epsilon == 0.5
    # coverage compares with the truth only, so it takes order 2; sup does not
    cov2 = parse_args(["experiment", "coverage", "--model", "m1", "--order", "2",
                       "--output", "out.json"])
    assert cov2.order == 2


# The options each experiment kind reads.  Any other experiment option is
# a usage error; VALUES holds a valid value for every one of them, and for
# --workers, which no kind reads.
_SUP = ["--model", "--n-list", "--reps", "--seed",
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
    assert set(vars(config)) == declared | {"command", "experiment", "run"}
    assert len(UNREAD) == 26


@pytest.mark.parametrize("kind,opt", UNREAD, ids=[f"{k}{o}" for k, o in UNREAD])
def test_options_a_kind_does_not_read_are_usage_errors(tmp_path, capsys, kind, opt):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", kind, "--model", "m1", f"{opt}={VALUES[opt]}",
              "--output", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the kind's own usage line, which lists the options it does read
    assert err.startswith(f"usage: condbands experiment {kind} [-h] --model")
    assert f"unrecognized arguments: {opt}=" in err
    assert not out.exists()


def test_unrecognized_options_show_the_subcommand_usage(tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--model", "m1", "--foo", "1", "--output", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: condbands bands [-h] (--input INPUT | --model {m1,m2})")
    assert err.rstrip().endswith("unrecognized arguments: --foo 1")
    assert not out.exists()


PRINTING_ARGVS = [
    ["-h"], ["-h", "bands"], *([command, "-h"] for command in cli._COMMAND_HELP),
    *(["experiment", kind, "-h"] for kind in ("sup", "coverage", "bochner", "em-constant")),
    [], ["nosuch", "--model", "m1"], ["bands", "--model", "m1", "--nosuch", "--output", "o"],
    ["--nosuch", "plotdata", "--model", "m1", "--output", "o"],
    ["experiment", "sup", "--model", "m1", "--output", "o", "--nosuch"],
]


@pytest.mark.parametrize("argv", PRINTING_ARGVS, ids=lambda argv: " ".join(argv) or "no-command")
def test_parsing_prints_what_the_whole_parser_prints(capsys, monkeypatch, argv):
    # a run builds the arguments of its own subcommand only, which must not
    # change a help text, a usage line or an error
    def printed():
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        return exc.value.code, capsys.readouterr()

    own = printed()
    whole = cli._parser_for
    monkeypatch.setattr(cli, "_parser_for", lambda command: whole(None))
    assert printed() == own


# sha256 of each help text at 80 columns, as Python 3.11's argparse prints it
HELP_DIGESTS = {
    "-h": "d4acd41420ea6b3fcf3c334a4e3f17ecaf9d633dea01f4d7611f67706068ba05",
    "bands -h": "ccd5c2227643cbe13c4d820a5b3065f8bf0aa6bccd2c698197eb1c3fb34aad73",
    "experiment -h": "8ddeb4bb47406a543a71293be85a765d8fbf8efb03a1ecd9dcdeb8b4219b0f5d",
    "experiment bochner -h": "cec2c7ee29c369c74b0d5502150120c6c87901a8058ef4b589b36a2b73bda730",
    "experiment coverage -h": "121d369377731eade64274c8712b54b84aa783d864547923192dd91f2da5bfa3",
    "experiment em-constant -h": "a8839c186ceac56049e6645a352fe7f4ffe2100b32c883b7b7dd4da8e1224c25",
    "experiment sup -h": "2a4d8cda94754fb178a876f46c07a7b33628856137717a29f4f012384714f417",
    "plotdata -h": "ddab07fb51b80232f9c62025f692ce8a7a54ca5ad8c9977e91637e549852b15e",
    "quantile -h": "d9985497678667454de54ad43bdf0a0b7f1250a980bec48d524c544a9f04a149",
    "regression -h": "b5223c214e4c655465029d45bfcb7adb9b465e39a40756f77c83266e0b01efd3",
    "simulate -h": "445884aa808054a79c83f23cac3345808f50500f2a67a5ad8373cff730a387d5",
}


@pytest.mark.parametrize("argv", sorted(HELP_DIGESTS))
def test_help_texts_keep_their_bytes(capsys, monkeypatch, argv):
    # the --order choices come from ORDERS and CENTERING_ORDERS, and the
    # em-constant --interval default from DEFAULT_INTERVAL
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        parse_args(argv.split())
    assert exc.value.code == 0
    text = capsys.readouterr().out
    command = argv.removesuffix(" -h").split(" ")[-1]
    fits = ("bands", "regression", "quantile", "plotdata", "coverage")
    orders = ["{0,1}"] if command == "sup" else ["{0,1,2}"] if command in fits else []
    assert re.findall(r"--order (\{[\d,]*\})", text)[:1] == orders
    if sys.version_info[:2] == (3, 11):
        assert hashlib.sha256(text.encode()).hexdigest() == HELP_DIGESTS[argv]


@pytest.mark.parametrize("command", [*cli._COMMAND_HELP, "nosuch", None])
def test_a_parser_holds_the_arguments_of_the_named_command_only(command):
    subs = next(a for a in cli._parser_for(command)._actions
                if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(cli._COMMAND_HELP)
    filled = [name for name, sub in subs.choices.items() if len(sub._actions) > 1]
    assert filled == ([command] if command in subs.choices else list(subs.choices))


@pytest.mark.parametrize("argv", [
    ["bands", "--model", "m1", "--n", "300", "--x-grid", "nan:1:3"],
    ["bands", "--model", "m1", "--x-grid", "0:inf:3"],
    ["bands", "--model", "m1", "--n", "300", "--x-grid", "0:0:1", "--t-grid", "nan:1:3"],
    ["bands", "--model", "m1", "--epsilon", "nan"],
    ["bands", "--model", "m1", "--bandwidth", "nan"],
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


@pytest.mark.parametrize("argv,message", [
    (["experiment", "sup", "--model", "m1", "--order", "2"],
     "argument --order: invalid choice: 2"),
    (["regression", "--model", "m1", "--y-range", "a:1"], "invalid float value: 'a'"),
    (["experiment", "em-constant", "--model", "m1", "--interval", "a:1"],
     "invalid float value: 'a'"),
    (["bands", "--model", "m1", "--x-grid", "0:1"], "expected start:stop:count, got '0:1'"),
    (["bands", "--model", "m1", "--x-grid", "0:1:x"], "bad grid spec '0:1:x'"),
    (["bands", "--model", "m1", "--x-grid", "0:1:0"], "grid count must be >= 1"),
    (["bands", "--model", "m1", "--x-grid=1e308:-1e308:3"],
     "argument --x-grid: grid '1e308:-1e308:3' overflows: stop - start is not finite"),
    (["plotdata", "--model", "m1", "--t-grid=-1e308:1e308:2"],
     "argument --t-grid: grid '-1e308:1e308:2' overflows"),
    (["bands", "--model", "m1", "--x-grid=-1:1:1000000000000000000000"],
     "argument --x-grid: grid '-1:1:1000000000000000000000': Maximum allowed size exceeded"),
    (["regression", "--model", "m1", "--y-range", "0:1:2"], "expected lo:hi, got '0:1:2'"),
    (["regression", "--model", "m1", "--y-range=-1e308:1e308"],
     "argument --y-range: range '-1e308:1e308' overflows: hi - lo is not finite"),
    (["experiment", "em-constant", "--model", "m1", "--interval=-1e308:1e308"],
     "argument --interval: range '-1e308:1e308' overflows"),
    (["experiment", "sup", "--model", "m1", "--n-list", "1,a"], "bad integer list '1,a'"),
], ids=["sup-order-2", "y-range-not-a-number", "interval-not-a-number", "x-grid-two-parts",
        "x-grid-count-not-a-number", "x-grid-count-0", "x-grid-overflows", "t-grid-overflows",
        "x-grid-too-long", "y-range-three-parts", "y-range-overflows", "interval-overflows",
        "n-list-not-a-number"])
def test_malformed_option_values_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    command = " ".join(argv[: argv.index("--model")])
    assert err.startswith(f"usage: condbands {command} [-h]")
    assert message in err
    assert not out.exists()


def test_a_one_point_grid_may_sit_anywhere_finite(tmp_path, capsys):
    argv = ["bands", "--model", "m1", "--n", "200", "--x-grid=1e308:-1e308:1"]
    config = parse_args(argv + ["--output", "o"])
    assert config.x_grid.tolist() == [1e308]
    # the point reaches the library as 1e308, never NaN, and without a warning
    out = tmp_path / "o.csv"
    assert main(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: every grid location was skipped; the last, x = 1e+308: "
        "degenerate local linear fit at x (denominator 0.000e+00)\n"
    )
    assert not out.exists()


def test_quantile_with_a_far_response_prints_nothing_to_stderr(tmp_path, capsys):
    # the plug-in joint density's (q - Y) / h of Y = 1e300 overflows in K's
    # u u, which printed a RuntimeWarning; K is 0 there, as inf gives
    rng = np.random.default_rng(0)
    xs, ys = rng.standard_normal(50), rng.random(50)
    xs[7], ys[7] = 0.0, 1e300
    data, out = tmp_path / "far.csv", tmp_path / "q.csv"
    data.write_text("x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(xs, ys)))
    with warnings.catch_warnings():
        warnings.simplefilter("always")  # printed, as outside the test run
        assert main(["quantile", "--input", str(data), "--density", "plugin",
                     "--x-grid=0:0:1", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 1 and all(np.isfinite(float(rows[0][k])) for k in ("estimate", "halfwidth"))


@pytest.mark.parametrize("argv,message", [
    # the fit at x = 0 is sound (d0 = 0.478): m2's joint density vanishes there
    (["quantile", "--model", "m2", "--n", "400", "--seed", "1", "--density", "oracle",
      "--x-grid=0:0:1"],
     "error: every grid location was skipped; the last, x = 0.0: joint density 0.0 at (x, q) = "),
    # inf f_X underflows to 0 on the interval, which used to end in a ZeroDivisionError
    (["experiment", "em-constant", "--model", "m1", "--interval=-40:40", "--n-list", "200",
      "--reps", "2"],
     "error: design density 0.000e+00 on [-40.0, 40.0] too small for a limit\n"),
], ids=["quantile-all-skipped", "em-constant-no-design-density"])
def test_a_run_without_a_usable_location_is_one_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize("spec,start,stop,count", [
    ("0:1.7976931348623157e308:4", 0.0, 1.7976931348623157e308, 4),  # the last point overflows
    ("-0.0:0:1", -0.0, 0.0, 1),  # linspace gives 0.0, not START
])
def test_a_parsed_grid_is_linspace_bit_for_bit(spec, start, stop, count):
    config = parse_args(["plotdata", "--model", "m1", f"--x-grid={spec}", f"--t-grid={spec}",
                         "--output", "o"])
    with np.errstate(over="ignore"):  # before linspace sets the last point to stop
        expected = np.linspace(start, stop, count).tobytes()
    assert config.x_grid.tobytes() == expected and config.t_grid.tobytes() == expected


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


# Run in a child: the test modules import scipy themselves.
SCIPY_ONLY_FOR_QUADRATURE = """
import json, sys
import condbands, condbands.cli as cli

tmp = sys.argv[1]
codes = [cli.main(argv) for argv in (
    ["simulate", "--model", "m1", "--n", "200", "--output", tmp + "/s.csv"],
    ["bands", "--input", tmp + "/s.csv", "--x-grid=-0.5:0.5:3", "--output", tmp + "/b.csv"],
    ["regression", "--input", tmp + "/s.csv", "--y-range", "0:1", "--x-grid=-0.5:0.5:3",
     "--output", tmp + "/r.csv"],
    ["experiment", "sup", "--model", "m2", "--n-list", "150", "--reps", "2",
     "--x-grid=-0.5:0.5:3", "--output", tmp + "/sup.json"],
)]
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
bochner = cli.main(["experiment", "bochner", "--model", "m1", "--h-list", "0.4,0.1",
                    "--output", tmp + "/boch.json"])
print(json.dumps({"codes": codes, "before": before, "bochner": bochner,
                  "after": "scipy" in sys.modules}))
"""


def test_scipy_is_imported_only_by_adaptive_quadrature(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_ONLY_FOR_QUADRATURE, str(tmp_path)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0, 0, 0, 0]
    assert doc["before"] == []
    assert doc["bochner"] == 0
    assert doc["after"]


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
