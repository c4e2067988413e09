"""Bit-exact graph6 encoding and decoding for graphs on up to 64 vertices.

The format packs the upper triangle of the adjacency matrix column by
column into 6-bit groups offset by 63.  Vertex counts above 62 use the
three-byte long header introduced by ``~``.  Parsing is strict: stray
bytes, truncation and nonzero padding are all rejected, with 1-based
line numbers when decoding streams.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from .graphs import MAX_VERTICES, Graph

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def emit(g: Graph) -> str:
    """One graph6 line (no trailing newline) for ``g``."""
    n = g.n
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    else:
        out += bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    # column j holds the pairs (0, j) .. (j-1, j), pair (i, j) at bit j-1-i,
    # and the first column sits highest, as :func:`parse` reads them
    acc = 0
    for j in range(1, n):
        lower = g.adj[j] & ((1 << j) - 1)
        col = 0
        while lower:
            low = lower & -lower
            col |= 1 << (j - low.bit_length())
            lower ^= low
        acc = acc << j | col
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    acc <<= pad
    out += bytes(63 + (acc >> shift & 63) for shift in range(nbits + pad - 6, -1, -6))
    return out.decode("ascii")


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
    for pos, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"byte {byte} at position {pos} outside 63..126", line)
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
    acc = 0
    for byte in body:
        acc = acc << 6 | byte - 63
    pad = 6 * len(body) - nbits
    if acc & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", line)
    acc >>= pad
    # column j (pairs (0, j) .. (j-1, j)) is the next j bits from the top,
    # so the last column sits lowest; bit b of a column is the pair (j-1-b, j)
    rows = [0] * n
    for j in range(n - 1, 0, -1):
        col = acc & ((1 << j) - 1)
        acc >>= j
        while col:
            low = col & -col
            i = j - low.bit_length()
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            col ^= low
    return Graph(n, rows, _validate=False)


def iter_graphs(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse a stream of graph6 lines, skipping blanks, with line numbers."""
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s == HEADER:
            continue
        yield parse(s, line=lineno)
