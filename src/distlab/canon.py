"""Exact canonical labeling via color refinement and pruned branching.

The canonical form of a graph is the lexicographically smallest packed
upper-triangle adjacency code over all relabelings reachable from an
equitable ordered partition, refined with a stack of splitter cells
(McKay 1981).  The branch-and-bound individualizes one vertex of the
first smallest non-singleton cell at a time, refines by that vertex
alone, and prunes siblings that discovered automorphisms already map
onto tried choices, so the generators collected along the way generate
the full automorphism group.

Everything works on plain-int bitsets: rows, and ordered partitions as
lists of bitset cells, the root one ``refine(rows, [full], [full])``.
A vertex x splits a cell c with one ``&``, into ``c & ~rows[x]`` and
``c & rows[x]``, and a discrete partition reads as an order.

``automorphism_mapping`` runs the same individualization and refinement
on two vertices in step, and checks the pairing of the two discrete
partitions it ends in: a certificate that one vertex maps onto the
other, far cheaper than a canonical labeling.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .graphs import Graph, bitset_to_vertices


class CanonResult(NamedTuple):
    code: int                      # packed upper triangle in canonical order
    order: list[int]               # position p holds vertex order[p]
    generators: list[tuple[int, ...]]  # automorphism generators (vertex maps)


def refine(rows: Sequence[int], cells: list[int], splitters: list[int]) -> list[int]:
    """Split the bitset ``cells`` until they are equitable, one splitter at a time.

    ``splitters`` are bitsets that cover what changed since ``cells`` was
    last equitable: the root passes the whole vertex set, a search node
    only the vertex it split off a cell of its equitable parent.  Each
    popped splitter w splits every cell by the count
    ``(rows[v] & w).bit_count()``; a cell's sub-cells take its place in
    increasing count, and each new sub-cell is pushed as a splitter.  A
    singleton splitter {x} needs no count: it splits each cell c into
    ``c & ~rows[x]`` and then ``c & rows[x]``.  The result depends only on
    cell positions and counts, never on vertex labels, so it commutes
    with relabeling.
    """
    stack = list(splitters)
    n = len(rows)
    while stack and len(cells) < n:  # a discrete partition splits no further
        w = stack.pop()
        new_cells: list[int] = []
        if w & (w - 1) == 0:
            nbrs = rows[w.bit_length() - 1]
            for c in cells:
                hit = c & nbrs
                if hit and hit != c:
                    new_cells += (c ^ hit, hit)
                    stack += (c ^ hit, hit)
                else:
                    new_cells.append(c)
        else:
            for c in cells:
                if c & (c - 1) == 0:
                    new_cells.append(c)
                    continue
                buckets: dict[int, int] = {}
                rest = c
                while rest:
                    low = rest & -rest
                    k = (rows[low.bit_length() - 1] & w).bit_count()
                    buckets[k] = buckets.get(k, 0) | low
                    rest ^= low
                if len(buckets) < 2:
                    new_cells.append(c)
                    continue
                for key in sorted(buckets):
                    new_cells.append(buckets[key])
                    stack.append(buckets[key])
        cells = new_cells
    return cells


def _individualize(rows: Sequence[int], cells: list[int], i: int, x: int) -> list[int]:
    """``cells`` with x split off its cell ``cells[i]`` in front, refined by {x}."""
    c = cells[i]
    return refine(rows, cells[:i] + [1 << x, c & ~(1 << x)] + cells[i + 1:], [1 << x])


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
            size = c.bit_count()
            if size > 1 and (target < 0 or size < best_len):
                target = idx
                best_len = size
        if target < 0:
            order = [c.bit_length() - 1 for c in cells]
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
        cell = cells[target]
        for v in bitset_to_vertices(cell):
            if tried and self._in_tried_orbit(v, tried):
                continue
            self.prefix.append(v)
            self.run(_individualize(self.rows, cells, target, v))
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


def canonical_labeling_rows(rows: Sequence[int], cells: list[int] | None = None) -> CanonResult:
    """Canonical order, code and automorphism generators for bitset rows.

    ``cells``, when given, must be the root partition as bitset cells,
    ``refine(rows, [full], [full])`` with ``full = (1 << len(rows)) - 1``;
    it is then not refined again.  The canonical order keeps that
    partition's cell order: every search node splits a cell in place.
    """
    search = _Search(list(rows))
    n = search.n
    if cells is None:
        full = (1 << n) - 1
        cells = refine(search.rows, [full] if n else [], [full])
    search.run(cells)
    assert search.best_order is not None
    return CanonResult(search.best_code, search.best_order, search.generators)


def canonical_form(g: Graph) -> bytes:
    """Relabeling-invariant adjacency encoding; equal iff isomorphic."""
    n = g.n
    code = canonical_labeling_rows(g.adj).code
    return bytes([n]) + code.to_bytes((n * (n - 1) // 2 + 7) // 8, "big")


def automorphism_mapping(rows: Sequence[int], cells: list[int], u: int, v: int
                         ) -> tuple[int, ...] | None:
    """An automorphism that maps u to v, or None where this test finds none.

    ``cells`` is an equitable partition, such as the root one, and u and
    v lie in one of its cells.  Both are individualized in step: u on
    one side, v on the other, then the lowest vertex of the first
    non-singleton cell on both sides, each refined by that vertex, until
    the partitions are discrete.  Their cell sizes must agree after every
    step, and pairing the two discrete partitions cell by cell must map
    every row onto a row.  None means only that these choices found no
    automorphism, not that u and v lie in different orbits.
    """
    i = next(i for i, c in enumerate(cells) if c >> u & 1)
    left, right = _individualize(rows, cells, i, u), _individualize(rows, cells, i, v)
    while True:
        if len(left) != len(right):
            return None
        i = -1
        for j, (a, b) in enumerate(zip(left, right)):
            size = a.bit_count()
            if size != b.bit_count():
                return None
            if size > 1 and i < 0:
                i = j
        if i < 0:
            break
        a, b = left[i], right[i]
        left = _individualize(rows, left, i, (a & -a).bit_length() - 1)
        right = _individualize(rows, right, i, (b & -b).bit_length() - 1)
    perm = [0] * len(rows)
    for a, b in zip(left, right):
        perm[a.bit_length() - 1] = b.bit_length() - 1
    for x, r in enumerate(rows):
        image = 0
        while r:
            low = r & -r
            image |= 1 << perm[low.bit_length() - 1]
            r ^= low
        if image != rows[perm[x]]:
            return None
    return tuple(perm)


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

