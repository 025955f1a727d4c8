"""CSV rows of float64 fields with ``repr``'s exact text, in numpy.

``encode_rows`` turns a block of float64 fields into the bytes of CSV rows:
``,`` between fields, CRLF after each row, each field ``repr(float(v))`` or
empty for NaN in a column marked blank.  It uses numpy ``uint64`` arithmetic
only; CPython's ``repr`` costs about 0.8 us per 17-digit float, a uint64
operation about 1 ns per element.

Digits.  A field with 1e-4 <= |v| < 1e16 prints in positional form.  Its
digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal inside the value's rounding interval,
of those the closest to the value, ties to even, which are the digits of
``repr``.  For v = c * 2**q in that range the power of ten that scales the
interval is 10**K with 0 <= K <= 20, and 10**K * 2**q = 5**K * 2**(K + q) with
5**K < 2**47.  So the scaled ends of the interval are exact products of at
most 103 bits, taken in 32-bit limbs and rounded to odd; no power of ten is
approximated.

Text.  The digits, normalized to 17 with their decimal point position, are
written through a 4-digit lookup table, trailing zeros as zero bytes.  Each
field is laid out in three little-endian uint64 words (24 bytes): a sign
byte, the digits placed after ``0.`` and leading zeros or split around the
``.``, and the separator in the top byte (``,``) or two (CRLF).  Bytes a
field does not use stay zero and are deleted by ``bytes.translate``.

Runs.  Down a column, fields with the same bits make a run, such as x and the
half-width over a location's rows of a band table.  Each run is formatted
once, from its first field, and its three words are repeated down the run.
Runs compare bits, so -0.0 and 0.0 stay apart, as do NaNs of different
payloads; a column of distinct values is runs of length one.

Other fields -- exponent form, subnormals, infinities, NaN outside a blank
column and a field whose text and separator exceed 24 bytes -- leave a marker
byte that is replaced by their ``repr``, field by field in row order.  So
does every field when ``repr`` is not in the short style, which the digits
assume.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

import numpy as np

__all__ = ["encode_rows"]

# Every operand of the kernels below is uint64 (or bool): mixed with int64
# or, before NEP 50, with a negative Python int, uint64 promotes to float64.
# Every shift count stays below 64.
_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_HIDDEN = _U(1 << 52)
_FRACTION = _U((1 << 52) - 1)

# Biased exponents of the positional range 1e-4 <= |v| < 1e16.
_BE_MIN, _BE_MAX = 1009, 1076
# Decimal point positions in that range: value = 0.d1d2... * 10**decpt.
_DECPT_MIN, _DECPT_MAX = -3, 16
_FIELD_BYTES = 24
_SEPARATORS = (b",", b"\r\n")  # after a field, after the last field of a row
_MARK = 1  # stands in a field's text for its repr
_TRIMMED = _U(10_000)  # offset of the trimmed half of the digit table


def _words(data: bytes) -> list[int]:
    """Three little-endian 64-bit words of a text of at most 24 bytes."""
    n = int.from_bytes(data.ljust(_FIELD_BYTES, b"\0"), "little")
    return [(n >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(3)]


@functools.cache
def _exponent_table() -> tuple[np.ndarray, ...]:
    """Columns of per-binade constants for v = c * 2**q, 2**52 <= c < 2**53.

    K = -floor(log10(2**q)).  With g = 2 * 5**K, (4c * g) >> sh is 4 * v * 10**K,
    and (4c - 2) * g >> sh and (4c + 2) * g >> sh are the ends of the rounding
    interval.  ``e20`` is 20 - K, which stays unsigned.
    """
    rows = []
    for be in range(_BE_MIN, _BE_MAX + 1):
        q = be - 1075
        big_k = -math.floor(q * math.log10(2))
        num, den = 10**big_k << max(q, 0), 1 << max(-q, 0)  # 2**q * 10**K
        assert den <= num < 10 * den and 0 <= big_k <= 20
        g = 2 * 5**big_k
        sh = 1 - q - big_k
        assert 0 <= sh <= 47 and g < 1 << 48
        rows.append((g & 0xFFFFFFFF, g >> 32, 2 * g, sh, 63 - sh, 20 - big_k))
    return tuple(np.array(col, dtype=np.uint64) for col in zip(*rows))


@functools.cache
def _digit_table() -> np.ndarray:
    """ASCII of each 4-digit group, little-endian in the low 32 bits.

    Entry g is group g in full; entry 10000 + g is the same with its
    trailing zeros as zero bytes, for the last group that is not all zeros
    and those after it.
    """
    g = np.arange(10_000, dtype=np.uint64)
    full = np.zeros(g.size, dtype=np.uint64)
    keep = np.zeros(g.size, dtype=np.uint64)  # bytes up to the last non-zero digit
    for j in range(4):
        digit = (g // _U(10 ** (3 - j))) % _U(10)
        full |= (digit + _U(ord("0"))) << _U(8 * j)
        keep[digit != 0] = (1 << (8 * j + 8)) - 1
    return np.concatenate([full, full & keep])


def _mask(lo: int, hi: int) -> int:
    return sum(0xFF << (8 * j) for j in range(lo, hi))


@functools.cache
def _layout_table() -> tuple[np.ndarray, ...]:
    """Columns of text layout constants per decpt = -3 .. 16, then again for
    the last field of a row.

    Byte 0 holds the sign.  The text is "0." with -decpt zeros and the
    digits for decpt <= 0, else the digits with ``.`` after digit decpt.
    Columns: the shift that puts digit 0 at byte u + 1 (u zeros go in front
    of the digits), then three words each of the integer-part mask (bytes
    1 .. p), the fraction-part mask (bytes p + 2 on) and the constant bytes:
    ``.`` at p + 1; ``0`` over the integer part, at p + 2 and in the zero
    fill, where it turns a trimmed zero back into ``0`` and leaves any other
    digit as it is; and the separator in the top byte or two.
    """
    cols = []
    for sep in _SEPARATORS:
        for decpt in range(_DECPT_MIN, _DECPT_MAX + 1):
            u = max(0, 1 - decpt)
            p = max(decpt, 1)  # digits (and zeros) before the point
            const = bytearray(_FIELD_BYTES)
            for j in [*range(1, p + 1), *range(p + 2, max(p + 3, u + 2))]:
                const[j] = ord("0")
            const[p + 1] = ord(".")
            const[-len(sep):] = sep
            cols.append([8 * (u + 1)]
                        + _words(_mask(1, p + 1).to_bytes(_FIELD_BYTES, "little"))
                        + _words(_mask(p + 2, _FIELD_BYTES - len(sep)).to_bytes(
                            _FIELD_BYTES, "little"))
                        + _words(bytes(const)))
    return tuple(np.array(row, dtype=np.uint64) for row in zip(*cols))


def _round_to_odd(hi, lo, sh, rsh):
    """(hi * 2**64 + lo) >> sh, with bit 0 set if any bit shifted out was.

    ``rsh`` is 63 - sh; the split shifts keep every count below 64.
    """
    return ((hi << _U(1)) << rsh) | (lo >> sh) | np.minimum((lo << _U(1)) << rsh, _U(1))


def _shortest(bits: np.ndarray):
    """Shortest digits of positional values: (17-digit integer, decpt + 3).

    Lanes outside 1e-4 <= |v| < 1e16 get meaningless numbers.
    """
    be = (bits >> _U(52)) & _U(0x7FF)
    m = bits & _FRACTION
    # Lanes below the range wrap around and are clipped with those above it.
    row = np.minimum(be - _U(_BE_MIN), _U(_BE_MAX - _BE_MIN)).astype(np.intp)
    g0, g1, half, sh, rsh, e20 = (col.take(row) for col in _exponent_table())

    cb = (m | _HIDDEN) << _U(2)
    c0, c1 = cb & _MASK32, cb >> _U(32)
    lo = c0 * g0
    mid = c1 * g0 + c0 * g1
    pl = lo + (mid << _U(32))
    ph = c1 * g1 + (mid >> _U(32)) + (pl < lo)
    vb = _round_to_odd(ph, pl, sh, rsh)
    # A power of two (m == 0) has its lower neighbour twice as near, and
    # Schubfach narrows its interval to [c - 1/4, c + 1/2].  For the 68 powers
    # of two in range the whole interval gives the same digits, as the tests
    # check for every one of them, so all lanes take [c - 1/2, c + 1/2].
    rl = pl + half
    vbr = _round_to_odd(ph + (rl < pl), rl, sh, rsh)
    ll = pl - half
    vbl = _round_to_odd(ph - (ll > pl), ll, sh, rsh)

    # Schubfach's choice (Giulietti, figure 4): the one multiple of 10**(k+1)
    # inside the interval if there is one, else the multiple of 10**k
    # closest to the value, ties to even.  Both are kept on the 10**k scale.
    odd = m & _U(1)
    lower = vbl + odd
    upper = vbr - odd
    s = vb >> _U(2)
    sp = (s // _U(10)) * _U(10)
    wp_in = (sp << _U(2)) + _U(40) <= upper
    shorter = (lower <= sp << _U(2)) != wp_in
    s4 = s << _U(2)
    # vb & 3 is 4 * (value - s) rounded to odd: 3 is above the midpoint and
    # 2 on it, where s + 1 wins if s is odd.
    up = (s4 + _U(4) <= upper) & (
        (lower > s4) | ((vb & _U(3)) + ((vb >> _U(2)) & _U(1)) >= _U(3)))
    digits = np.where(shorter, sp + wp_in * _U(10), s + up)

    # 16 or 17 digits; pad to 17
    lt16 = digits < _U(10**16)
    digits *= _U(1) + lt16 * _U(9)
    return digits, e20 - lt16


def _text_words(digits, decpt3, neg, tail, out) -> np.ndarray:
    """Text and separator of 17-digit values, three words per row of ``out``.

    The values from index ``tail`` on end a row.  Returns where the text of
    those leaves no room for the separator.
    """
    ascii4 = _digit_table()
    top = digits // _U(10**8)
    low = digits - top * _U(10**8)
    first = top // _U(10**8)
    top -= first * _U(10**8)
    a = top // _U(10**4)
    b = top - a * _U(10**4)
    c = low // _U(10**4)
    d = low - c * _U(10**4)
    # trailing zeros become zero bytes: the last group is always looked up
    # trimmed, an earlier one when every group after it is zero
    d += _TRIMMED
    c += (d == _TRIMMED) * _TRIMMED
    b += (c == _TRIMMED) * _TRIMMED
    a += (b == _TRIMMED) * _TRIMMED
    a, b, c, d = (ascii4.take(g.astype(np.intp)) for g in (a, b, c, d))
    s0 = (first + _U(ord("0"))) | (a << _U(8)) | (b << _U(40))
    s1 = (b >> _U(24)) | (c << _U(8)) | (d << _U(40))
    s2 = d >> _U(24)

    layout = np.minimum(decpt3, _U(_DECPT_MAX - _DECPT_MIN)).astype(np.intp)
    last = layout[tail:]
    last += _DECPT_MAX - _DECPT_MIN + 1
    shift, *masks = (col.take(layout) for col in _layout_table())
    rshift = _U(64) - shift
    # the digits at byte u + 1 (x) and one byte further (y)
    x0 = s0 << shift
    x1 = (s1 << shift) | (s0 >> rshift)
    x2 = (s2 << shift) | (s1 >> rshift)
    y0 = x0 << _U(8)
    y1 = (x1 << _U(8)) | (x0 >> _U(56))
    y2 = (x2 << _U(8)) | (x1 >> _U(56))
    for i, (x, y) in enumerate(((x0, y0), (x1, y1), (x2, y2))):
        x &= masks[i]
        y &= masks[3 + i]
        np.bitwise_or(x, y, out=out[:, i])
        out[:, i] |= masks[6 + i]
    out[:, 0] |= neg * _U(ord("-"))
    # "-0.000" and 17 digits take 23 bytes, with no room left for CRLF
    return (last == _DECPT_MAX - _DECPT_MIN + 1) & (s2[tail:] != 0)


@functools.cache
def _separator_words() -> np.ndarray:
    return np.array([_words(sep.rjust(_FIELD_BYTES, b"\0"))[2] for sep in _SEPARATORS],
                    dtype=np.uint64)


def encode_rows(block: np.ndarray, blank: np.ndarray) -> bytes:
    """CSV bytes of the float64 ``block`` (rows x fields), ``repr`` per field.

    ``blank[j]`` writes NaN in column ``j`` as an empty field.  Rows end in
    CRLF; nothing is quoted.  Each run of equal bits down a column is
    formatted once; a block that is the transpose of a C-ordered array is
    read without a copy.
    """
    rows, ncols = block.shape
    columns = np.ascontiguousarray(np.asarray(block, dtype=np.float64).T)
    bits = columns.view(np.uint64)
    head = np.ones(bits.shape, dtype=bool)  # the fields that start a run
    np.not_equal(bits[:, 1:], bits[:, :-1], out=head[:, 1:])
    runs = np.count_nonzero(head, axis=1)
    head = head.reshape(-1)
    # run[i, j] is the run of field (i, j), numbered column by column
    run = np.cumsum(head, dtype=np.intp).reshape(ncols, rows).T
    run -= 1
    words, slow = _encode_fields(bits.reshape(-1)[head], np.repeat(blank, runs), runs[-1])
    data = words.take(run, axis=0).astype("<u8", copy=False).tobytes().translate(None, b"\0")
    if not slow.any():
        return data
    texts = [repr(v).encode() for v in columns.T[slow.take(run)].tolist()]
    parts = data.split(bytes([_MARK]))
    return b"".join([parts[0], *itertools.chain.from_iterable(zip(texts, parts[1:]))])


def _encode_fields(bits: np.ndarray, blank: np.ndarray, nlast: int):
    """The three words of each field, and which fields stand for their ``repr``.

    ``blank`` marks the fields whose NaN is empty; the last ``nlast`` fields
    end a row.
    """
    values = bits.view(np.float64)
    size = np.abs(values)
    zero = size == 0.0
    fast = (size >= 1e-4) & (size < 1e16)
    empty = np.isnan(values) & blank

    digits, decpt3 = _shortest(bits)
    digits[zero] = 0
    decpt3[zero] = 1 - _DECPT_MIN  # 0.0
    fast |= zero
    out = np.empty((bits.size, 3), dtype=np.uint64)
    tail = bits.size - nlast
    fast[tail:] &= ~_text_words(digits, decpt3, bits >> _U(63), tail, out)
    if sys.float_repr_style != "short":
        fast[:] = False
    slow = ~fast & ~empty
    if not fast.all():
        other = np.flatnonzero(~fast)
        out[other, 0] = slow[other] * _U(_MARK)
        out[other, 1] = 0
        comma, crlf = _separator_words()
        out[other, 2] = np.where(other >= tail, crlf, comma)
    return out, slow
