"""Isomorph-free enumeration of connected graphs and diameter surveys.

Enumeration is by canonical augmentation: grow one vertex at a time,
keep one attachment set per orbit of the parent's automorphism group,
and accept a child only when the new vertex lies in the same orbit as
v*, the canonical non-cut vertex of highest canonical position.  Each
isomorphism class is produced exactly once, memory stays flat, and the
stream order is deterministic.

Most children are decided without canonizing them (McKay,
"Isomorph-free exhaustive generation", 1998; McKay & Piperno, 2014).
A child is its parent plus the new vertex m joined to an attachment set
s, so the parent's cut structure answers every child's cut questions.
Once per node, each vertex u of the parent gets the components of the
parent without u.  The child without u is those components plus m
joined to s less u, so u is a non-cut vertex of the child iff s meets
every one of them.  When there is one, only s = {u} misses it; at the
root there are none, and both vertices of K2 are non-cut.  m is never a
cut vertex, and u's degree in the child is its parent degree plus one
when u is in s.  So each child's non-cut vertices and degree classes
are a few bitset operations, and no child runs a search of its own.

- Degree masks.  A solid vertex, a non-cut vertex of the parent, stays
  non-cut when |s| >= 2, since s then meets the one part of the parent
  without it, and s = {v} leaves every solid vertex but v non-cut.  Its
  degree does not fall, so the degree test below rejects some children
  for reasons of the parent alone, and each size k gets a mask bad[k]
  of vertices that s must not meet.  bad[1] is all vertices when two or
  more solid vertices have degree >= 2, all but w when w is the only
  one, and otherwise empty.  For k >= 2, with kmin the largest degree of
  a solid vertex, bad[k] is all vertices when k < kmin and otherwise
  the solid vertices of degree k, which s would raise above m's degree
  k.  Sets that meet their mask are never listed.  Automorphisms
  keep solidity, degree and size, so each mask is a union of orbits and
  the other representatives and their order are unchanged.
- Degree test, as in McKay's geng.  The root refinement of
  ``canon.refine`` splits by degree first, and every later split and
  individualization keeps cell order, so the canonical order never
  decreases in degree and v* has the largest degree of any non-cut
  vertex.  A child in which some non-cut vertex has a larger degree
  than m is rejected before its rows are built.
- Degree-class accept.  When in addition no other non-cut vertex has
  m's degree, every vertex but m of degree at least m's is a cut
  vertex.  The refined partition's cells keep degree order, so m's cell
  is the last with a non-cut vertex and m is its only one: the
  partition rule below would accept, and a child at the walk's final
  order is accepted unrefined.
- Partition rule.  Any other child that passes is refined once into
  bitset cells.  The refinement starts from the child's degree cells in
  increasing degree, each also a splitter: the degree-d cell is
  ``level[d] & ~s | level[d - 1] & s`` from the parent's degree classes,
  plus m when d = |s|.  That is the state of
  ``canon.refine(child, [full], [full])`` after it pops the whole vertex
  set (one cell and no splitter for a regular child), so the result is
  the same and one pass of degree counting is saved.  The canonical
  order keeps the refined partition's cell order and every automorphism
  maps each cell onto itself, so v* and its orbit lie in C, the last
  cell that holds a non-cut vertex: the last cell c with
  ``c & noncut``.  The child is rejected when m is not in C and accepted
  when m is the only non-cut vertex of C; the others, ``C & noncut``
  less m, are the rivals.  A child at the walk's final order is refined
  with the stop ``watch = noncut``, ``mark = 1 << m``: the refinement
  ends after the first splitter pass whose last cell with a non-cut
  vertex lacks m, or holds m as its only non-cut vertex.  Every later
  split cuts a cell into consecutive pieces in its place, so the last
  cell with a non-cut vertex would stay a piece of that cell, and the
  equitable partition gives the same verdict.  A child left with
  rivals is refined to the end.
- Twin accept.  A vertex v is a twin of m when N(m) less v equals N(v)
  less m; then the transposition (m v) maps every edge to an edge, so it
  is an automorphism and v shares m's orbit.  N(m) is s and N(v) less m
  is the parent's ``rows[v]``, so v < m is a twin of m iff ``rows[v]`` is
  s less v: a true twin when v is in s, a false twin when it is not.
  The test reads the parent's rows alone, and a child's rows are built
  only when it is yielded or refined.  The degree test leaves v*
  among m and the tie vertices, the other non-cut vertices of m's
  degree, and the partition rule leaves it among m and the rivals, the
  other non-cut vertices of C.  So when every tie vertex, or every
  rival, is a twin of m, v* shares m's orbit and canonizing would
  accept: a child at the walk's final order is accepted there, unrefined
  in the first case and uncanonized in the second.  With no tie vertex
  this is the degree-class accept, and with no rival the partition
  rule's.
- Automorphism certificates.  For each rival v that is not a twin of m,
  ``canon.automorphism_mapping`` individualizes m on one side and v on
  the other in the refined cells, then the lowest vertex of the first
  non-singleton cell on both sides, refining after each step.  When the
  two sides keep equal cell sizes down to discrete partitions and
  pairing those cell by cell maps every row onto a row, that pairing is
  an automorphism that maps m to v.  A child at the walk's final order
  with such a certificate for every such rival has v* in m's orbit and
  is accepted uncanonized.  The twin test stays first because it costs a
  few bitset operations against a certificate's refinements.
- Leaf shortcut.  Generators are needed only for the nodes the walk
  grows further, so at the walk's final order a child is canonized only
  when some rival is neither a twin of m nor certified, to compare m's
  orbit with v*'s from the refined cells, and the partition rule's stop
  applies only there.  Every accepted child below that order is
  canonized, for its generators, from the whole equitable partition:
  ``canonical_labeling_rows`` needs it, and a stop that depends on m,
  which is not an invariant of the child, would break its canonical form.

The degree test stays as a separate first step because it is far
cheaper than a refinement: refining every child in its place made
survey(7) + survey(8) slower than canonizing every child that passes
the degree test, with no partition rule at all.

The survey pairs each enumerated graph with (diam G, diam G2) where G2
joins vertices at distance exactly 2.  It lists the nodes of the
augmentation tree at order max(1, n - 2) with the generators that
growing them found, so each is canonized once, counts the pairs of each
node's subtree on its own, and sums the subtree counts, in this process
or in worker processes.  Within a subtree each node at order n - 1 runs
one BFS, ``_kernels.leaf_basis``, and each child it accepts gets its
pair from that and its attachment set by ``_kernels.leaf_pair`` (the
README's leaf lemma), with no ``diameter_pair`` and no connectivity
test; only n = 1, whose root has no parent, is measured directly.
Each subtree's counts are a ``collections.Counter`` keyed by (d, d2),
and the :class:`SurveyTable`'s ``cells`` is the Counter that sums them;
infinite G2 diameters are kept under ``inf``.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from contextlib import nullcontext
from functools import partial
from typing import Iterator, Sequence

from . import _kernels, canon
from .canon import canonical_labeling_rows, orbits_from_generators
from .graphs import Graph, bitset_to_vertices

# The census runs about 22,700 graphs/s at n <= 8 (the benchmark's census
# items_per_s on one core, in its scaled seconds: quartiles 22,480-22,910
# over 10 runs) and about 26,900 graphs/s, also scaled, at n = 10 (six runs
# on each of two sets of 100 random subtrees below order 8, one core of a
# 2-core x86_64 VM shared with other work; the two sets' medians read
# 26,200 and 27,500).  So on one CPU n = 10 (11,716,571 classes) takes
# about 0.12 h, n = 11 at least 10 h and n = 12 at least 0.19 years.
# ``survey`` spreads its subtrees over the usable CPUs from n = 7 on.
ENUM_CAP = 10


def _check_cap(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")
    if n > ENUM_CAP:
        raise ValueError(f"enumeration above n={ENUM_CAP} is refused")


def _attachment_reps(m: int, gens: Sequence[tuple[int, ...]], bad: Sequence[int]) -> Iterator[int]:
    """Nonempty subsets of 0..m-1, one per orbit of the parent's group,
    each the least member of its orbit, in ascending order, less every
    subset s that meets ``bad[|s|]`` (``[0] * (m + 1)`` drops none).

    Each generator's action on subsets is tabulated once, in 2^m steps:
    a subset's image is the image of the subset without its lowest
    member, plus that member's image.  When each mask is a union of
    orbits, the dropped subsets leave the other orbits and their order
    alone.
    """
    size = 1 << m
    tables = []
    for g in gens:
        img = [0] * size
        for s in range(1, size):
            low = s & -s
            img[s] = img[s ^ low] | 1 << g[low.bit_length() - 1]
        tables.append(img)
    seen = bytearray(size)
    for s in range(1, size):
        if seen[s] or s & bad[s.bit_count()]:
            continue
        orbit = [s]
        seen[s] = 1
        for cur in orbit:  # the loop also visits the images appended below
            for img in tables:
                t = img[cur]
                if not seen[t]:
                    seen[t] = 1
                    orbit.append(t)
        yield s


def _cut_parts(rows: Sequence[int]) -> list[list[int]]:
    """For each vertex u, the components of the graph without u, as bitsets."""
    parts = []
    for u in range(len(rows)):
        rest = (1 << len(rows)) - 1 & ~(1 << u)
        comps = []
        while rest:
            c = sum(_kernels.layers(rows, rest & -rest, rest))
            comps.append(c)
            rest ^= c
        parts.append(comps)
    return parts


def _children(rows: tuple[int, ...], gens: Sequence[tuple[int, ...]], leaf: bool):
    """Accepted one-vertex extensions with their automorphism generators.

    Each attachment set s is decided from the parent's rows: v < m is a
    twin of m in the child iff ``rows[v]`` is s less v, so the twin tests
    read no row of the child, and a child's rows are built, once, only
    when it is yielded or refined.  With ``leaf`` the caller needs no
    generators, and a child that the degree classes, the partition rule,
    the twin accept or the automorphism certificates decide comes with
    none.
    """
    m = len(rows)
    bit = 1 << m
    parts = _cut_parts(rows)
    # u < m is a non-cut vertex of the child iff s meets every part of the parent without u.
    # One part is missed only by s = {u}; the other vertices, the parent's cut vertices
    # and K1's vertex (no part at all), are tested part by part.
    solid = sum(1 << u for u in range(m) if len(parts[u]) == 1)
    joints = [(1 << u, parts[u]) for u in range(m) if len(parts[u]) != 1]
    level = [0] * (m + 1)  # level[d]: the parent's vertices of degree d
    for u, r in enumerate(rows):
        level[r.bit_count()] |= 1 << u
    above = [0] * (m + 1)  # above[d]: those of degree more than d
    for d in range(m - 1, -1, -1):
        above[d] = above[d + 1] | level[d + 1]
    # The child's degree-d cell is level[d] less s plus level[d - 1] in s, and m when d = |s|.
    by_degree = [(d, level[d], level[d - 1]) for d in range(1, m + 1)]
    # The sets that give a solid vertex a larger degree than m, by size (the degree masks).
    full = (1 << m) - 1
    kmin = max((d for d in range(m) if level[d] & solid), default=0)
    bad = [full if k < kmin else level[k] & solid for k in range(m + 1)]
    strong = solid & above[1]  # solid vertices of degree >= 2
    bad[1] = full if strong & (strong - 1) else full & ~strong if strong else 0
    # twin_of[s]: the v with rows[v] == s less v, the twins of m in the child of s.
    twin_of = {}
    for v, r in enumerate(rows):
        for t in (r, r | 1 << v):
            twin_of[t] = twin_of.get(t, 0) | 1 << v
    for s in _attachment_reps(m, gens, bad):
        k = s.bit_count()
        noncut = bit | (solid if k > 1 else solid & ~s)  # m is never a cut vertex
        for ubit, comps in joints:
            for c in comps:
                if not s & c:
                    break
            else:
                noncut |= ubit
        if noncut & (above[k] | level[k] & s):
            continue  # v* would have a larger degree than m, so m cannot share its orbit
        twins = twin_of.get(s, 0)
        # the tie vertices, the non-cut vertices other than m of m's degree
        tie = noncut & (level[k] & ~s | level[k - 1] & s)
        child = list(rows)
        t = s
        while t:
            low = t & -t
            child[low.bit_length() - 1] |= bit
            t ^= low
        child.append(s)
        if leaf and not tie & ~twins:
            yield tuple(child), []  # v* is m or a tie vertex, and each is m's twin
            continue
        # The degree cells, ascending, are what refine(child, [full], [full]) splits first.
        cells = []
        for d, here, below in by_degree:
            c = here & ~s | below & s
            if d == k:
                c |= bit
            if c:
                cells.append(c)
        # canon.refine is looked up at each call, where the benchmark's tracer wraps it.
        # A leaf child stops refining once the partition rule's verdict is fixed.
        cells = canon.refine(child, cells, cells if len(cells) > 1 else [],
                             noncut if leaf else 0, bit)
        for last in reversed(cells):
            if last & noncut:
                break
        if not last & bit:
            continue  # v* and its orbit lie in that later cell
        rivals = noncut & last & ~bit
        if leaf:
            for v in bitset_to_vertices(rivals & ~twins):
                if not canon.automorphism_mapping(child, cells, m, v):
                    break
            else:
                yield tuple(child), []  # v* is m or a rival, and each shares m's orbit
                continue
        res = canonical_labeling_rows(child, cells)
        if rivals:
            orbit = orbits_from_generators(res.generators, m + 1)
            vstar = next(v for v in reversed(res.order) if noncut >> v & 1)
            if orbit[vstar] != orbit[m]:
                continue
        yield tuple(child), res.generators


def _nodes(rows: tuple[int, ...], gens, n: int) -> Iterator[tuple[tuple[int, ...], list]]:
    """The order-n nodes below (rows, gens), each with its generators."""
    if len(rows) == n:
        yield rows, gens
        return
    for child, child_gens in _children(rows, gens, False):
        yield from _nodes(child, child_gens, n)


def _walk(rows: tuple[int, ...], gens, n: int) -> Iterator[tuple[int, ...]]:
    """The order-n nodes below (rows, gens), grown from their parents
    with no generators."""
    if len(rows) == n:
        yield rows
        return
    for parent, parent_gens in _nodes(rows, gens, n - 1):
        for child, _ in _children(parent, parent_gens, True):
            yield child


def enumerate_connected(n: int) -> Iterator[Graph]:
    """All connected graphs on n vertices, one per isomorphism class.

    Deterministic order; n up to ``ENUM_CAP``.
    """
    _check_cap(n)
    for rows in _walk((0,), [], n):
        yield Graph(n, rows, _validate=False)


class SurveyTable:
    """Counts of connected isomorphism classes by (diam G, diam G2)."""

    def __init__(self, n: int, cells: Counter[tuple[int, int | float]] | None = None) -> None:
        self.n = n
        self.cells = Counter() if cells is None else cells

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.cells) == (other.n, other.cells)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, cells={self.cells!r})"

    def add(self, d: int, d2: int | float, count: int = 1) -> None:
        self.cells[d, d2] += count

    def get(self, d: int, d2: int | float) -> int:
        return self.cells[d, d2]

    def total(self) -> int:
        return self.cells.total()

    def sorted_items(self) -> list[tuple[tuple[int, int | float], int]]:
        def key(item):
            (d, d2), _ = item
            return (d, math.isinf(d2), d2)

        return sorted(self.cells.items(), key=key)

    def to_csv(self) -> str:
        lines = ["n,d,d2,count"]
        for (d, d2), count in self.sorted_items():
            d2s = "inf" if math.isinf(d2) else str(int(d2))
            lines.append(f"{self.n},{d},{d2s},{count}")
        return "\n".join(lines) + "\n"


def _leaf_pairs(n: int, root: tuple[int, ...], gens) -> Iterator[tuple[int, int]]:
    """``diameter_pair`` of each order-n graph below a node of lower order,
    from its parent's ``leaf_basis`` and its attachment set, its last row."""
    for parent, parent_gens in _nodes(root, gens, n - 1):
        # The _kernels functions are looked up at each call, where a tracer can wrap them.
        basis = _kernels.leaf_basis(parent)
        for child, _ in _children(parent, parent_gens, True):
            yield _kernels.leaf_pair(basis, child[-1])


def _survey_subtree(n: int, node) -> Counter[tuple[int, int | float]]:
    """(diam G, diam G2) counts over the order-n graphs below one node,
    given as its rows and its automorphism generators."""
    rows, gens = node
    # The order-1 root of n = 1 has no parent.
    pairs = [_kernels.diameter_pair(rows)] if len(rows) == n else _leaf_pairs(n, rows, gens)
    return Counter((d, math.inf if d2 < 0 else d2) for d, d2 in pairs)


# Subtrees a worker takes at a time; a pool pays once it has more than one
# chunk, at n >= 7 (21 subtrees, and 6 at n = 6).
_CHUNK = 8


def _usable_cpus() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def survey(n: int) -> SurveyTable:
    """Joint (diam G, diam G2) census over connected graphs on n vertices.

    The census is a sum over the subtrees below the augmentation tree's
    nodes at order max(1, n - 2).  They are fanned out to one worker
    process per ``_CHUNK`` of them, at most one per usable CPU (a pool
    starts all its workers at once), and counted here when that leaves
    one; the table is the same either way.
    """
    _check_cap(n)
    table = SurveyTable(n)
    roots = list(_nodes((0,), [], max(1, n - 2)))
    count = partial(_survey_subtree, n)
    workers = min(_usable_cpus(), math.ceil(len(roots) / _CHUNK))
    fan_out = nullcontext()
    if workers > 1:
        # Imported here: compiled from source, concurrent.futures.process
        # takes 20-28 ms, twice ``import distlab.enumeration``, and a serial
        # census never needs it.
        from concurrent.futures import ProcessPoolExecutor

        fan_out = ProcessPoolExecutor(workers)
    with fan_out as pool:
        parts = map(count, roots) if pool is None else pool.map(count, roots, chunksize=_CHUNK)
        for cells in parts:
            table.cells.update(cells)
    return table
