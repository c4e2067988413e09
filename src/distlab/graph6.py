"""Bit-exact graph6 encoding and decoding for graphs on up to 64 vertices.

The format packs the upper triangle of the adjacency matrix column by
column into 6-bit groups offset by 63.  Vertex counts above 62 use the
three-byte long header introduced by ``~``.  Parsing is strict: stray
bytes, truncation and nonzero padding are all rejected, with 1-based
line numbers when decoding streams.

Neither direction loops over bytes or edges in Python, and each does its
per-record work in a few C-level calls.  A 6-bit group is one base64
digit, so ``bytes.translate`` between the two alphabets and
:mod:`binascii` turn a body into one int and back.  :func:`parse` checks
the byte range with one ``translate`` that deletes every byte in
63..126: a record with anything left over is rejected, and only then is
it scanned for the first bad position.  It writes the body int as a bit
string, left-justifies each column to ``N`` characters (``N`` a power of
two, at least 8) through one cached getter of the column slices, and
reverses the whole: read as one int, it sets bit ``j * N + i`` for each
edge (i, j) with i < j, the lower triangle of an ``N`` x ``N`` bit
matrix.  ``log2 N`` delta swaps transpose it, and the lower triangle ORed
with its transpose, cut into ``N``-bit words, gives the rows.
:func:`emit` packs row j's bits below j into one triangle int at bit
``j * (j - 1) / 2``, the graph6 bit order from the lowest bit up, and
turns it into the body with one ``format``, one reversal, one ``int``
and one base64 encoding.
"""
from __future__ import annotations

import binascii
import functools
import operator
import struct
import sys
from itertools import repeat
from typing import Iterable, Iterator

from .graphs import MAX_VERTICES, Graph

HEADER = ">>graph6<<"
_GRAPH6 = bytes(range(63, 127))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_GRAPH6, _BASE64)
_FROM_BASE64 = bytes.maketrans(_BASE64, _GRAPH6)
_ROW_FORMAT = {8 * struct.calcsize(c): c for c in "BHIQ"}  # native unsigned, by bits


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
def _columns(n: int) -> operator.itemgetter:
    """Getter of the ``n`` column slices of an ``n``-vertex bit string, column
    j the pairs (0, j) .. (j-1, j); a trailing empty slice makes it return a
    tuple even for n = 1."""
    columns = [slice(j * (j - 1) // 2, j * (j + 1) // 2) for j in range(n)]
    return operator.itemgetter(*columns, slice(0, 0))


def emit(g: Graph) -> str:
    """One graph6 line (no trailing newline) for ``g``."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    # row j's bits below j, the pairs (0, j) .. (j-1, j), start at bit
    # j * (j - 1) / 2 of one triangle int: the graph6 bit order read from the
    # lowest bit up
    adj = g.adj
    tri = 0
    for j in range(n - 1, 0, -1):
        tri = tri << j | adj[j] & ((1 << j) - 1)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    width = nbits + -nbits % 24  # whole base64 quads of 24 bits
    # reversed, the zeros that fill out width trail as padding; format of a
    # zero width still writes "0", a valid int for the empty body of n = 1
    raw = int(format(tri, f"0{width}b")[::-1], 2).to_bytes(width // 8, "big")
    return head + binascii.b2a_base64(raw, newline=False)[:need].translate(
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
    acc = int.from_bytes(binascii.a2b_base64(quads), "big")
    pad = 6 * len(quads) - nbits
    if acc & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", line)
    acc >>= pad
    # column j (pairs (0, j) .. (j-1, j)) is the next j bits from the top;
    # left-justified to size bits and reversed, pair (i, j) lands on bit
    # j * size + i of the lower triangle
    bits = format(acc, f"0{nbits}b")
    size = max(8, 1 << (n - 1).bit_length())  # whole bytes per row
    lower = int(
        "".join(map(str.ljust, _columns(n)(bits), repeat(size, n), repeat("0", n)))[::-1], 2
    )
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
