"""Bit-exact graph6 encoding and decoding for graphs on up to 64 vertices.

The format packs the upper triangle of the adjacency matrix column by
column into 6-bit groups offset by 63.  Vertex counts above 62 use the
three-byte long header introduced by ``~``.  Parsing is strict: stray
bytes, truncation and nonzero padding are all rejected, with 1-based
line numbers when decoding streams.

Neither direction loops over bytes or edges in Python, and each does its
per-record work in a few C-level calls and a few dozen big-int
operations.  A 6-bit group is one base64 digit, so ``bytes.translate``
between the two alphabets and :mod:`binascii` turn a body into bytes and
back.  :func:`parse` checks the byte range with one ``translate`` that
deletes every byte in 63..126: a record with anything left over is
rejected, and only then is it scanned for the first bad position.

The body's bits run from the most significant bit of its first byte.
One more ``translate``, through a 256-entry table that reverses the bits
of each byte, makes that order little-endian, so ``int.from_bytes(...,
"little")`` reads the body as one triangle int whose bit
``j * (j - 1) / 2 + i`` is the pair (i, j), i < j, and any bit from
``n * (n - 1) / 2`` up is padding.  Rows take ``size`` bits each
(``size`` a power of two, at least 8 and at least n), and column j must
move up by its displacement ``j * size - j * (j - 1) / 2`` to land pair
(i, j) on bit ``j * size + i``, the lower triangle of a ``size`` x
``size`` bit matrix.  Per order, :func:`_layout` caches one (shift,
mask) stage for each bit of the largest displacement, highest first,
skipping any that no column sets: the stage for bit k shifts the
columns whose displacement has bit k set up by ``2**k``.  The
displacement grows with j, by ``size - j`` > 0 from one column to the
next, so it never decreases with bit position; after each stage the
bits still lie in their order in the triangle, and no stage moves a bit
onto another.  ``log2 size`` delta swaps then transpose the
lower triangle, and the two ORed together, cut into ``size``-bit words,
give the rows.

:func:`emit` runs the same stages in reverse: the rows, packed by one
``struct.pack`` into one int at bit ``j * size``, masked to the lower
triangle and shifted down stage by stage, give the triangle int, and
its little-endian bytes, reversed through the same table, go to one
base64 encoding.
"""
from __future__ import annotations

import binascii
import functools
import struct
import sys
from typing import Iterable, Iterator

from .graphs import MAX_VERTICES, Graph

HEADER = ">>graph6<<"
_GRAPH6 = bytes(range(63, 127))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_GRAPH6, _BASE64)
_FROM_BASE64 = bytes.maketrans(_BASE64, _GRAPH6)
_ROW_FORMAT = {8 * struct.calcsize(c): c for c in "BHIQ"}  # native unsigned, by bits
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte bit-reversed


class Graph6Error(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@functools.cache
def _swap_masks(size: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) for each delta swap that transposes a ``size`` x ``size``
    bit matrix, bit ``r * size + c`` at row r and column c.

    The swap for block width w exchanges (r, c) and (r + w, c - w) for every
    r without bit w and c with it, which lie ``w * (size - 1)`` bits apart.
    """
    out = []
    w = size >> 1
    while w:
        row = sum(1 << c for c in range(size) if c & w)
        mask = sum(row << (r * size) for r in range(size) if not r & w)
        out.append((w * (size - 1), mask))
        w >>= 1
    return tuple(out)


@functools.cache
def _layout(n: int) -> tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...],
                             int, struct.Struct]:
    """(size, parse stages, emit stages, lower-triangle mask, rows struct)
    for order ``n``.

    A parse stage (shift, mask) moves the bits of ``mask`` up by ``shift``;
    in turn the stages take bit ``j * (j - 1) / 2 + i`` of the triangle int
    to bit ``j * size + i``.  An emit stage moves the bits of its mask down,
    and the emit stages undo the parse stages in reverse order.
    """
    size = max(8, 1 << (n - 1).bit_length())  # whole bytes per row
    # column j: j bits from bit j * (j - 1) / 2, displaced by j * size minus that
    columns = [(j * (j - 1) // 2, j * size - j * (j - 1) // 2, (1 << j) - 1)
               for j in range(1, n)]
    largest = (n - 1) * size - (n - 1) * (n - 2) // 2  # column n - 1's; 0 at n = 1
    stages = []
    for k in reversed(range(largest.bit_length())):
        # before the stage for bit k, a column has moved by its displacement's
        # bits above k
        mask = sum(ones << (base + (disp >> k + 1 << k + 1))
                   for base, disp, ones in columns if disp >> k & 1)
        if mask:
            stages.append((1 << k, mask))
    lower = sum(((1 << j) - 1) << (j * size) for j in range(1, n))
    return (size, tuple(stages), tuple((shift, mask << shift) for shift, mask in reversed(stages)),
            lower, struct.Struct(f"{n}{_ROW_FORMAT[size]}"))


def emit(g: Graph) -> str:
    """One graph6 line (no trailing newline) for ``g``."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    _, _, stages, lower, rows = _layout(n)
    tri = int.from_bytes(rows.pack(*g.adj), sys.byteorder) & lower
    for shift, mask in stages:
        t = tri & mask
        tri ^= t ^ t >> shift
    nbits = n * (n - 1) // 2
    # the zero bits that fill out the last byte trail as padding
    raw = tri.to_bytes((nbits + 7) // 8, "little").translate(_REVERSED)
    return head + binascii.b2a_base64(raw, newline=False)[:(nbits + 5) // 6].translate(
        _FROM_BASE64).decode("ascii")


def parse(text: str, line: int | None = None) -> Graph:
    """Decode one graph6 line; raises :class:`Graph6Error` on any defect."""
    s = text.strip()
    if s.startswith(HEADER):
        s = s[len(HEADER):].strip()
    if not s:
        raise Graph6Error("empty graph6 record", line)
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise Graph6Error("non-ASCII bytes in graph6 record", line) from None
    if data.translate(None, _GRAPH6):  # what is left lies outside 63..126
        pos = next(pos for pos, byte in enumerate(data) if not 63 <= byte <= 126)
        raise Graph6Error(f"byte {data[pos]} at position {pos} outside 63..126", line)
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("vertex counts above 258047 are not supported", line)
        if len(data) < 4:
            raise Graph6Error("truncated long-form vertex count", line)
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside 1..{MAX_VERTICES}", line)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"expected {need} data bytes for n={n}, got {len(body)}", line
        )
    quads = body.translate(_TO_BASE64)
    quads += b"A" * (-len(quads) % 4)  # zero groups up to a whole quad
    lower = int.from_bytes(binascii.a2b_base64(quads).translate(_REVERSED), "little")
    if lower >> nbits:
        raise Graph6Error("nonzero padding bits", line)
    size, stages, _, _, _ = _layout(n)
    for shift, mask in stages:  # pair (i, j) from bit j * (j - 1) / 2 + i to j * size + i
        t = lower & mask
        lower ^= t ^ t << shift
    upper = lower  # transposed in place: bit i * size + j for each edge
    for shift, mask in _swap_masks(size):
        t = (upper >> shift ^ upper) & mask
        upper ^= t ^ t << shift
    full = (lower | upper).to_bytes(n * size // 8, sys.byteorder)
    return Graph(n, memoryview(full).cast(_ROW_FORMAT[size]).tolist(), _validate=False)


def iter_graphs(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse a stream of graph6 lines, skipping blanks, with line numbers."""
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s == HEADER:
            continue
        yield parse(s, line=lineno)
