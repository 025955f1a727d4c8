"""``floatfmt.encode_rows`` against ``repr``, field by field and byte by byte."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import condbands
from condbands import floatfmt
from condbands.floatfmt import encode_rows

SWITCHES = [9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16]


def reference(block, blank):
    """The rows ``csv.writer`` writes for ``repr`` fields, NaN blank where asked."""
    rows = []
    for row in np.asarray(block, dtype=np.float64).tolist():
        fields = ["" if b and math.isnan(v) else repr(v) for v, b in zip(row, blank)]
        rows.append(",".join(fields) + "\r\n")
    return "".join(rows).encode()


def check_column(values, three=True):
    """Each value as a one-field row and, with ``three``, in rows of three."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    expected = "".join([repr(v) + "\r\n" for v in values.tolist()]).encode()
    step = 1 << 16  # rows per call, to keep the temporaries small
    got = b"".join(encode_rows(values[i:i + step].reshape(-1, 1), [False])
                   for i in range(0, values.size, step))
    assert got == expected
    if three:
        block = values[: values.size // 3 * 3].reshape(-1, 3)
        assert encode_rows(block, [False] * 3) == reference(block, [False] * 3)


def random_patterns(rng, n):
    """n random bit patterns, 9 in 10 with the exponent of a positional value.

    Uniform patterns would almost all print in exponent form, which is
    ``repr``'s own text; these cover both switches and the binades between.
    """
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    be = rng.integers(1005, 1081, n).astype(np.uint64)
    bits = (bits & np.uint64(0x800FFFFFFFFFFFFF)) | (be << np.uint64(52))
    bits[: n // 50] = rng.integers(0, 2**64, n // 50, dtype=np.uint64, endpoint=False)
    return bits.view(np.float64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=30))
def test_hypothesis_floats_match_repr(values):
    check_column(values)


def test_random_bit_patterns_match_repr():
    check_column(random_patterns(np.random.default_rng(20), 1_000_000), three=False)


@pytest.mark.slow
def test_ten_million_random_bit_patterns_match_repr():
    rng = np.random.default_rng(21)
    for _ in range(10):
        check_column(random_patterns(rng, 1_000_000), three=False)


def test_every_power_of_two_matches_repr():
    # Schubfach gives c = 2**52 the interval [c - 1/4, c + 1/2] * 2**q; the
    # writer takes [c - 1/2, c + 1/2] for the 68 in the positional range
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    check_column(np.concatenate([powers, -powers]))


def test_powers_of_ten_and_form_switches_match_repr():
    tens = [float(f"1e{k}") for k in range(-30, 31)]
    near = [np.nextafter(v, d) for v in SWITCHES + tens for d in (0.0, np.inf)]
    check_column(tens + SWITCHES + near + [-v for v in SWITCHES])
    assert encode_rows(np.array([SWITCHES]), [False] * 4) == (
        b"9.999999999999999e-05,0.0001,9999999999999998.0,1e+16\r\n")


def test_one_digit_values_strip_sixteen_zeros():
    values = [d * 10.0**k for d in range(1, 10) for k in range(-4, 16)]
    check_column(values + [-v for v in values])
    assert encode_rows(np.array([[0.1, 1.0, 1e15, 3e-4]]), [False] * 4) == (
        b"0.1,1.0,1000000000000000.0,0.0003\r\n")


def test_signed_zeros():
    assert encode_rows(np.array([[0.0, -0.0], [-0.0, 0.0]]), [False, True]) == (
        b"0.0,-0.0\r\n-0.0,0.0\r\n")


def test_longest_positional_fields():
    # "-0.000" and 17 digits: 23 bytes, with "," in 24; with CRLF, 25 go to repr
    v = -0.00012345678901234567
    assert repr(v) == "-0.00012345678901234567"
    block = np.array([[v, v], [-v, -v]])
    assert encode_rows(block, [False, False]) == reference(block, [False, False])
    rng = np.random.default_rng(22)
    check_column(-rng.uniform(1e-4, 1e-3, 30_000))


def test_nan_is_blank_only_where_asked():
    block = np.array([[np.nan, np.nan, np.inf], [-np.inf, np.nan, 1.5]])
    assert encode_rows(block, [True, False, True]) == b",nan,inf\r\n-inf,nan,1.5\r\n"
    assert encode_rows(block, [False, True, False]) == b"nan,,inf\r\n-inf,,1.5\r\n"


def test_fields_beside_repr_fields_keep_their_separators():
    block = np.array([[1e-300, 0.5, 1e300], [5e-324, np.nan, -2.5e-5], [0.25, 1e20, 7.0]])
    assert encode_rows(block, [False] * 3) == reference(block, [False] * 3)


def test_legacy_repr_style_writes_every_field_with_repr(monkeypatch):
    monkeypatch.setattr(sys, "float_repr_style", "legacy")
    block = np.array([[0.1, np.nan, 1e-7], [2.0, -0.0, 123.456]])
    assert encode_rows(block, [False, True, False]) == reference(block, [False, True, False])


def test_exponent_table_spans_the_positional_binades():
    # binade be holds [2**(be - 1023), 2**(be - 1022)); 1e-4 and 1e16 fall in
    # the first and one past the last
    lo, hi = floatfmt._BE_MIN - 1023, floatfmt._BE_MAX - 1023
    assert 2.0**lo <= 1e-4 < 2.0 ** (lo + 1) and 2.0**hi < 1e16 <= 2.0 ** (hi + 1)
    shift = floatfmt._exponent_table()[3]
    assert shift.size == hi - lo + 1
    assert int(shift.min()) == 0 and int(shift.max()) == 47


def test_tables_are_built_on_first_write_not_at_import():
    code = ("import condbands.cli, condbands.floatfmt as f;"
            "print(f._exponent_table.cache_info().currsize,"
            " f._digit_table.cache_info().currsize, f._layout_table.cache_info().currsize)")
    src = str(Path(condbands.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"]
