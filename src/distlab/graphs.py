"""Bitset graphs and the exact k-distance operator.

A :class:`Graph` is an undirected simple graph on ``1..64`` vertices,
stored as a tuple of plain-int adjacency bitsets, one per vertex.  All
distance work is exact integer BFS (:mod:`distlab._kernels`); "infinite"
shows up as ``math.inf`` in diameters and as :data:`UNREACHABLE` entries
in distance matrices, which are lists of rows.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

from . import _kernels

MAX_VERTICES = _kernels.MAX_VERTICES
UNREACHABLE = _kernels.UNREACHABLE


def bitset_to_vertices(bits: int) -> list[int]:
    """Decode a vertex bitset into a sorted vertex list."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class Graph:
    """Immutable undirected simple graph; ``adj`` is a tuple of int bitset rows."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, rows: Sequence[int], _validate: bool = True):
        if _validate:
            if not isinstance(n, int) or not 1 <= n <= MAX_VERTICES:
                raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n!r}")
            if len(rows) != n:
                raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
            full = (1 << n) - 1
            irows = [int(r) for r in rows]
            for i, r in enumerate(irows):
                if r & ~full:
                    raise ValueError(f"row {i} references vertices >= {n}")
                if (r >> i) & 1:
                    raise ValueError(f"self-loop at vertex {i}")
            for i, r in enumerate(irows):
                for j in bitset_to_vertices(r):
                    if not (irows[j] >> i) & 1:
                        raise ValueError(f"adjacency not symmetric at ({i}, {j})")
            rows = irows
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            r = self.adj[i] >> (i + 1)
            j = i + 1
            while r:
                if r & 1:
                    out.append((i, j))
                r >>= 1
                j += 1
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from undirected edge pairs; duplicates collapse.

    Rejects self-loops and endpoints outside ``0..n-1``.
    """
    if not isinstance(n, int) or not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n!r}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows, _validate=False)


def all_pairs_distances(g: Graph) -> list[list[int]]:
    """Exact BFS distance matrix as a list of rows, ``UNREACHABLE`` (-1)
    across components.

    The diagonal is zero; entry (i, j) is 1 exactly when {i, j} is an edge.
    """
    return _kernels.distances(g.adj)


def _inf(d: int) -> int | float:
    return math.inf if d == UNREACHABLE else d


def diameter(g: Graph) -> int | float:
    """Largest pairwise distance; ``math.inf`` when disconnected.

    Single-source sweeps give a lower bound, and single-source searches
    from the far set of vertices that could beat it finish the job (the
    README's far-set lemma); the all-sources BFS runs only when vertex 0
    lies within 3 of every vertex.
    """
    return _inf(_kernels.diameter(g.adj))


def matrix_diameter(dist: Sequence[Sequence[int]]) -> int | float:
    """Largest entry of a distance matrix; ``math.inf`` if any is ``UNREACHABLE``."""
    if any(UNREACHABLE in row for row in dist):
        return math.inf
    return max(max(row) for row in dist)


def diameter_pair(g: Graph) -> tuple[int | float, int | float]:
    """(diam g, diam of the 2-distance graph) in one fused kernel call."""
    d, d2 = _kernels.diameter_pair(g.adj)
    return _inf(d), _inf(d2)


def k_distance(g: Graph, k: int) -> Graph:
    """Graph on the same vertices joining pairs at distance exactly ``k``.

    ``k = 1`` reproduces ``g``; ``k >= 1`` required.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return Graph(g.n, _kernels.ring_rows(g.adj, k), _validate=False)
