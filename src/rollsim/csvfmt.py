"""CSV rows of floats, formatted ``'%.12g'`` with numpy.

:func:`format_rows` returns exactly the bytes of ``",".join("%.12g" % v
for v in row) + "\\n"`` over the rows of a set of columns, without a
Python call per value.

A value takes the fast path when it is finite and ``|v|`` lies in
[1e-280, 1e280], or is zero.  With x = floor(log10 |v|), the scaled
value s = |v| * 10**(11 - x) holds the 12 significant digits in its
integer part.  Its error is a few ulps of s, at most about 3e-4, so when
s is at least 1e11, round(s) is below 1e12 and the fraction of s is more
than 2e-3 away from one half, round(s) is the correctly rounded 12-digit
mantissa that ``'%.12g'`` prints.  Every other value (non-finite,
subnormal or huge, near a rounding tie, with a misestimated x, or rounding
up to 1e12, which carries into the next power of ten, as 9.999999999995
does) is formatted by ``'%.12g'`` itself, over its own field.

Each field is laid out in five 8-byte words, 0 marking an absent byte:

====== ===============================================================
word   bytes
====== ===============================================================
0      the sign, then ``0.`` and up to three zeros for -4 <= x < 0
1-3    twelve (digit, decimal point) pairs, one 4-digit group a word
4      ``e``, the exponent's sign and two or three digits for x < -4 or
       x >= 12, then the separator: ``,`` or the newline ending the row
====== ===============================================================

Each word is assembled with whole-word table lookups, ``&`` and ``|``,
and one ``bytes.translate`` drops the absent bytes.  The tables are built
as bytes and viewed as words, so the layout holds in either byte order.

A chunk takes these passes, each over one array of a word per value and
most of them in place: the exponent, mantissa and fast-path test
(:func:`_decompose`); word 0 by exponent and sign; the mantissa's three
4-digit groups, split by floor division by 10**4; their trailing zeros,
counted from the low group up through every all-zero group and turned
into the key of the shown-byte masks; each group's digits, masked, written
straight into its word; word 4; then the ``'%.12g'`` fields of the values
off the fast path over words 0-3.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["format_rows"]

_WORDS = 5
_X_MIN = -290    # the tables cover x in [_X_MIN, -_X_MIN], where 10**(11 - x) is finite
_TIE_MARGIN = 2e-3
_SMALLEST, _LARGEST = 1e-280, 1e280


def _words(octets: np.ndarray) -> np.ndarray:
    """Rows of 8-byte groups of ``octets`` (last axis a multiple of 8) as words."""
    return np.ascontiguousarray(octets, dtype=np.uint8).view(np.uint64)


class _Tables(NamedTuple):
    digits: np.ndarray   # by 4-digit group: a word of its digits, each followed by "."
    zeros: np.ndarray    # by 4-digit group: its trailing zeros, 4 for 0000
    pow10: np.ndarray    # by x - _X_MIN: 10.0**(11 - x)
    lead: np.ndarray     # by x - _X_MIN: digits before the decimal point
    head: np.ndarray     # by 2 * (x - _X_MIN) + sign bit: word 0
    tail: np.ndarray     # by x - _X_MIN: word 4 without the separator
    shown: np.ndarray    # per word 1-3, by 13 * trailing zeros + lead: masks of its bytes shown
    ends: np.ndarray     # the separator of word 4: ",", then "\n"


@functools.cache
def _tables() -> _Tables:
    """Read-only lookup tables, built with numpy arithmetic on first use."""
    zero, dot = ord("0"), ord(".")
    g = np.arange(10_000)
    group = np.full((len(g), 8), dot, np.uint8)
    group[:, 0::2] = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + zero

    x = np.arange(_X_MIN, -_X_MIN + 1)
    scientific = (x < -4) | (x >= 12)
    fraction = (x >= -4) & (x < 0)
    head = np.zeros((len(x), 2, 8), np.uint8)
    head[:, 1, 0] = ord("-")
    slot = np.arange(1, 6)  # "0." then -x - 1 zeros
    head[:, :, 1:6] = np.where(fraction[:, None] & ((slot < 3) | (slot - 3 < -x[:, None] - 1)),
                               np.where(slot == 2, dot, zero), 0)[:, None, :]
    ax = np.abs(x)
    tail = np.zeros((len(x), 8), np.uint8)
    tail[:, :5] = np.stack([
        np.full_like(x, ord("e")),
        np.where(x < 0, ord("-"), ord("+")),
        np.where(ax >= 100, ax // 100 % 10 + zero, 0),
        ax // 10 % 10 + zero,
        ax % 10 + zero,
    ], axis=1) * scientific[:, None]

    # A digit is shown up to the last nonzero one and through the integer
    # part; the point follows the integer part when a digit comes after it.
    dropped, lead = np.divmod(np.arange(13 * 13), 13)
    kept = 12 - dropped
    digit = np.arange(12)
    shown = np.zeros((len(kept), 12, 2), np.uint8)
    shown[:, :, 0] = np.where(np.maximum(kept, lead)[:, None] > digit, 0xFF, 0)
    shown[:, :, 1] = np.where((kept > lead)[:, None] & (lead[:, None] - 1 == digit), 0xFF, 0)

    ends = np.zeros((2, 8), np.uint8)
    ends[:, 5] = [ord(","), ord("\n")]
    tables = _Tables(
        digits=_words(group)[:, 0],
        zeros=sum((g % 10**j == 0).astype(np.int64) for j in range(1, 5)),
        pow10=10.0 ** (11 - x).astype(float),
        lead=np.where(scientific, 1, np.maximum(x + 1, 0)),
        head=_words(head).ravel(),
        tail=_words(tail)[:, 0],
        shown=np.ascontiguousarray(_words(shown.reshape(len(kept), 24)).T),
        ends=_words(ends)[:, 0],
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _decompose(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per value, the 12-digit mantissa ``m`` and decimal exponent ``x``
    that ``'%.12g'`` prints, and whether they are known exactly.

    m lies in [1e11, 1e12), or is 0 for zero; a value not known exactly
    gives m = 0 and x = 0 and is formatted by ``'%.12g'`` itself."""
    a = np.abs(values)
    fast = (a >= _SMALLEST) & (a <= _LARGEST)
    np.copyto(a, 1.0, where=~fast)
    x = np.log10(a)
    x = np.floor(x, out=x).astype(np.int64)
    s = np.take(_tables().pow10, x - _X_MIN)
    s *= a
    m = np.rint(s)
    exact = fast & (s >= 1e11) & (m < 1e12)
    s -= m  # more than the margin from a tie: |s - round(s)| < 1/2 - margin
    exact &= np.abs(s, out=s) < 0.5 - _TIE_MARGIN
    inexact = ~exact
    np.copyto(m, 0.0, where=inexact)
    np.copyto(x, 0, where=inexact)
    return m.astype(np.int64), x, exact | (values == 0.0)


def format_rows(columns: Sequence[np.ndarray]) -> bytes:
    """The CSV rows of equal-length float ``columns``: every value written
    as ``'%.12g' % value``, separated by commas, each row ending in a newline."""
    values = np.column_stack([np.asarray(c, dtype=float) for c in columns]).ravel()
    if not len(values):
        return b""
    tables = _tables()
    m, row, fast = _decompose(values)
    row -= _X_MIN  # x - _X_MIN, the tables' index
    out = np.empty((len(values), _WORDS), np.uint64)
    np.take(tables.head, 2 * row + np.signbit(values), out=out[:, 0])

    middle = m // 10_000
    top = middle // 10_000
    low = m
    low -= middle * 10_000
    middle -= top * 10_000
    # The key of the shown-byte masks, 13 * trailing zeros + lead; the zeros
    # are counted from the low group up, through every all-zero group.
    key = np.take(tables.zeros, top)
    key *= middle == 0
    key += np.take(tables.zeros, middle)
    key *= low == 0
    key += np.take(tables.zeros, low)
    key *= 13
    key += np.take(tables.lead, row)
    for word, group in enumerate((top, middle, low)):
        np.bitwise_and(np.take(tables.digits, group), np.take(tables.shown[word], key), out=out[:, 1 + word])

    separators = np.full(len(columns), tables.ends[0])
    separators[-1] = tables.ends[1]
    np.bitwise_or(np.take(tables.tail, row).reshape(-1, len(columns)), separators,
                  out=out.reshape(-1, len(columns), _WORDS)[:, :, 4])

    slow = np.flatnonzero(~fast)
    if len(slow):
        # At most 19 bytes ("-1.23456789012e-308"), within words 0-3.
        texts = b"".join([(b"%.12g" % v).ljust(32, b"\0") for v in values[slow].tolist()])
        out[slow, :4] = np.frombuffer(texts, np.uint64).reshape(-1, 4)
    return out.tobytes().translate(None, b"\0")
