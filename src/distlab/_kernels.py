"""Breadth-first search from every source at once, on plain-int bitsets.

A graph on n <= 64 vertices is a sequence of n adjacency rows: bit ``j``
of ``rows[i]`` is set iff ``{i, j}`` is an edge.  The BFS packs the
whole n x n reach matrix into one int of n * n bits, row ``s`` in bits
``s*n .. s*n + n - 1``, and advances every source one level per pass.
A pass costs n big-int steps: for each vertex ``v``, the sources whose
frontier holds ``v`` (``(frontier >> v) & COL``, with bit ``s*n`` of
``COL`` set for each ``s``) each get a copy of ``rows[v]`` in their own
row block (``sel * rows[v]``; the blocks do not overlap, so the product
never carries).

Level ``k`` is the packed matrix of pairs at distance exactly ``k``;
its n row slices are the rows of the k-distance graph.  Distance
matrices use ``UNREACHABLE`` (-1) for pairs in different components,
and ``diameter_pair`` returns -1 in either slot for an infinite
diameter.

No pass computes what is already known.  Level 1 is the adjacency, so
level k takes k - 1 passes, and:

- ``levels`` stops once its levels cover every pair, so a connected
  graph of diameter d takes d - 1 passes, not d;
- ``levels(rows, last=k)``, and so ``ring_rows(rows, k)``, stops after
  level k;
- ``diameter`` and ``diameter_pair`` decide connectivity first, by one
  single-source ``reach`` from vertex 0, and run no pass for a
  disconnected G.

``diameter_pair`` also runs no G2 pass for a connected bipartite G on
n >= 2 vertices: diam G2 is infinite.  A walk of length 2 ends on the
side it starts from, so G2 has no edge between the two sides, and both
sides are non-empty because G is connected and has an edge.  A connected
G is bipartite iff no edge joins two vertices whose distances from
vertex 0 have the same parity, which the levels of G already show.
"""
from __future__ import annotations

from functools import cache
from typing import Sequence

UNREACHABLE = -1

MAX_VERTICES = 64

# ``njit`` and ``active_backend`` are read by the benchmark's machine
# metadata; there is one BFS and no compiled backend.
njit = None


def active_backend() -> str:
    return "python"


@cache  # one entry per order n <= MAX_VERTICES
def _consts(n: int) -> tuple[int, int, int]:
    """(COL, the packed identity, all n * n bits) for order n."""
    col = sum(1 << (s * n) for s in range(n))
    ident = sum(1 << (s * n + s) for s in range(n))
    return col, ident, (1 << (n * n)) - 1


def pack(rows: Sequence[int]) -> int:
    """The n rows as one packed n * n-bit int."""
    n = len(rows)
    out = 0
    for s in range(n - 1, -1, -1):
        out = (out << n) | rows[s]
    return out


def unpack(level: int, n: int) -> list[int]:
    """The n row slices of a packed n * n-bit int."""
    mask = (1 << n) - 1
    out = []
    for _ in range(n):
        out.append(level & mask)
        level >>= n
    return out


def _advance(rows: Sequence[int], frontier: int, col: int) -> int:
    """One pass: the packed neighbourhoods of every source's frontier."""
    nxt = 0
    for v in range(len(rows)):
        sel = (frontier >> v) & col
        if sel:
            nxt |= sel * rows[v]
    return nxt


def levels(
    rows: Sequence[int], first: int | None = None, last: int | None = None
) -> tuple[list[int], bool]:
    """BFS levels from every source, packed, and whether they cover all pairs.

    Level 0 is the identity and level 1 the adjacency (``first``, when
    given, must be ``pack(rows)``); the list ends at the last non-empty
    level, so a connected graph's diameter is its length minus one.  With
    ``last`` the list also ends at level ``last``, and the flag tells only
    whether the levels listed cover all pairs.
    """
    n = len(rows)
    col, ident, full = _consts(n)
    if last is None:
        last = n  # no distance reaches n
    frontier = pack(rows) if first is None else first
    out = [ident]
    visited = ident | frontier
    while frontier and len(out) <= last:
        out.append(frontier)
        if visited == full or len(out) > last:
            break  # the next level is empty, or not asked for
        # _advance is looked up at each pass, where a test counts the passes.
        frontier = _advance(rows, frontier, col) & ~visited
        visited |= frontier
    return out, visited == full


def reach(rows: Sequence[int], start: int, within: int) -> int:
    """The vertices of ``within`` reachable from the set ``start`` inside it.

    ``start`` must lie in ``within``; both are bitsets.  Each round reads
    the rows of the vertices reached in the round before only, so the
    whole search reads each reached row once.
    """
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def connected(rows: Sequence[int]) -> bool:
    """Whether the graph is connected, by one ``reach`` from vertex 0."""
    full = (1 << len(rows)) - 1
    return reach(rows, 1, full) == full


def distances(rows: Sequence[int]) -> list[list[int]]:
    """All-pairs distance matrix as a list of rows, ``UNREACHABLE`` across components."""
    n = len(rows)
    out = [[UNREACHABLE] * n for _ in range(n)]
    for k, level in enumerate(levels(rows)[0]):
        for row, bits in zip(out, unpack(level, n)):
            while bits:
                low = bits & -bits
                row[low.bit_length() - 1] = k
                bits ^= low
    return out


def ring_rows(rows: Sequence[int], k: int) -> list[int]:
    """Rows of the graph joining the pairs at distance exactly ``k >= 1``."""
    lv = levels(rows, last=k)[0]
    return unpack(lv[k], len(rows)) if k < len(lv) else [0] * len(rows)


def diameter(rows: Sequence[int]) -> int:
    """Largest distance, -1 when the graph is disconnected."""
    if not connected(rows):
        return UNREACHABLE
    return len(levels(rows)[0]) - 1


def _bipartite(rows: Sequence[int], lv: Sequence[int]) -> bool:
    """Whether a connected graph with packed BFS levels ``lv`` is bipartite.

    Its sides would be the vertices at even and at odd distance from
    vertex 0, read from row 0 of each level.
    """
    mask = (1 << len(rows)) - 1
    even = 0
    for level in lv[::2]:
        even |= level & mask
    odd = mask ^ even
    return not any(row & (even if (even >> v) & 1 else odd) for v, row in enumerate(rows))


def diameter_pair(rows: Sequence[int]) -> tuple[int, int]:
    """(diam G, diam G2) with -1 for infinity; G2 joins pairs at distance 2.

    A disconnected G gives (-1, -1) with no all-sources pass: G2 has no
    edge between the components of G.  A connected bipartite G on n >= 2
    vertices gives (diam G, -1) with no G2 pass (see the module docstring).
    """
    n = len(rows)
    if not connected(rows):
        return UNREACHABLE, UNREACHABLE
    lv = levels(rows)[0]
    d = len(lv) - 1
    if n >= 2 and _bipartite(rows, lv):
        return d, UNREACHABLE
    if d >= 2:
        lv2, connected2 = levels(unpack(lv[2], n), lv[2])
    else:
        lv2, connected2 = levels([0] * n, 0)
    return d, (len(lv2) - 1 if connected2 else UNREACHABLE)
