"""Exact canonical labeling via color refinement and pruned branching.

The canonical form of a graph is the lexicographically smallest packed
upper-triangle adjacency code over all relabelings reachable from an
equitable ordered partition, refined with a stack of splitter cells
(McKay 1981).  The branch-and-bound individualizes one vertex of the
first smallest non-singleton cell at a time, refines by that vertex
alone, and prunes siblings that discovered automorphisms already map
onto tried choices, so the generators collected along the way generate
the full automorphism group.  Everything works on plain-int bitset rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph


@dataclass
class CanonResult:
    code: int                      # packed upper triangle in canonical order
    order: list[int]               # position p holds vertex order[p]
    generators: list[tuple[int, ...]]  # automorphism generators (vertex maps)


def refine(rows: Sequence[int], cells: list[list[int]], splitters: list[int]) -> list[list[int]]:
    """Split ``cells`` until it is equitable, one splitter at a time.

    ``splitters`` are bitsets that cover what changed since ``cells`` was
    last equitable: the root passes the whole vertex set, a search node
    only the vertex it split off a cell of its equitable parent.  Each
    popped splitter w splits every cell by the count
    ``(rows[v] & w).bit_count()``; a cell's sub-cells take its place in
    increasing count, and each new sub-cell is pushed as a splitter.  The
    result depends only on cell positions and counts, never on vertex
    labels, so it commutes with relabeling (the search sorts each cell it
    branches on).
    """
    stack = list(splitters)
    n = len(rows)
    while stack and len(cells) < n:  # a discrete partition splits no further
        w = stack.pop()
        new_cells: list[list[int]] = []
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            buckets: dict[int, list[int]] = {}
            for v in c:
                buckets.setdefault((rows[v] & w).bit_count(), []).append(v)
            if len(buckets) < 2:
                new_cells.append(c)
                continue
            for key in sorted(buckets):
                new_cells.append(buckets[key])
                stack.append(sum(1 << v for v in buckets[key]))
        cells = new_cells
    return cells


def _code_for_order(rows: Sequence[int], order: list[int]) -> int:
    code = 0
    for i in range(len(order)):
        ri = rows[order[i]]
        for j in range(i + 1, len(order)):
            code = (code << 1) | ((ri >> order[j]) & 1)
    return code


class _Search:
    __slots__ = ("rows", "n", "best_code", "best_order", "generators", "prefix")

    def __init__(self, rows):
        self.rows = rows
        self.n = len(rows)
        self.best_code: int | None = None
        self.best_order: list[int] | None = None
        self.generators: list[tuple[int, ...]] = []
        self.prefix: list[int] = []

    def run(self, cells):  # cells is equitable
        target = -1
        best_len = 0
        for idx, c in enumerate(cells):
            if len(c) > 1 and (target < 0 or len(c) < best_len):
                target = idx
                best_len = len(c)
        if target < 0:
            order = [c[0] for c in cells]
            code = _code_for_order(self.rows, order)
            if self.best_code is None or code < self.best_code:
                self.best_code = code
                self.best_order = order
            elif code == self.best_code:
                perm = [0] * self.n
                for p in range(self.n):
                    perm[self.best_order[p]] = order[p]
                tperm = tuple(perm)
                if any(perm[v] != v for v in range(self.n)) and tperm not in self.generators:
                    self.generators.append(tperm)
            return
        tried: list[int] = []
        for v in sorted(cells[target]):
            if tried and self._in_tried_orbit(v, tried):
                continue
            child = (
                cells[:target]
                + [[v], [u for u in cells[target] if u != v]]
                + cells[target + 1:]
            )
            self.prefix.append(v)
            self.run(refine(self.rows, child, [1 << v]))
            self.prefix.pop()
            tried.append(v)

    def _in_tried_orbit(self, v: int, tried: list[int]) -> bool:
        # orbits under generators that fix the individualized prefix pointwise
        gens = [
            g for g in self.generators
            if all(g[x] == x for x in self.prefix)
        ]
        if not gens:
            return False
        orbit = orbits_from_generators(gens, self.n)
        return any(orbit[t] == orbit[v] for t in tried)


def canonical_labeling_rows(
    rows: Sequence[int], cells: list[list[int]] | None = None
) -> CanonResult:
    """Canonical order, code and automorphism generators for bitset rows.

    ``cells``, when given, must be the root partition
    ``refine(rows, [list(range(n))], [(1 << n) - 1])``, n = len(rows); it
    is then not refined again.  The canonical order keeps that partition's
    cell order: every search node splits a cell in place.
    """
    search = _Search(list(rows))
    n = search.n
    if cells is None:
        cells = refine(search.rows, [list(range(n))] if n else [], [(1 << n) - 1])
    search.run(cells)
    assert search.best_order is not None
    return CanonResult(search.best_code, search.best_order, search.generators)


def canonical_form(g: Graph) -> bytes:
    """Relabeling-invariant adjacency encoding; equal iff isomorphic."""
    n = g.n
    code = canonical_labeling_rows(g.adj).code
    return bytes([n]) + code.to_bytes((n * (n - 1) // 2 + 7) // 8, "big")


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    return canonical_form(g1) == canonical_form(g2)


def orbits_from_generators(gens: Sequence[Sequence[int]], n: int) -> list[int]:
    """orbit[v] = least vertex reachable from v under the generated group."""
    # each orbit is labeled by its least vertex; a merge relabels the larger
    orbit = list(range(n))
    for g in gens:
        for u in range(n):
            a, b = orbit[u], orbit[g[u]]
            if a != b:
                lo, hi = (a, b) if a < b else (b, a)
                orbit = [lo if x == hi else x for x in orbit]
    return orbit

