"""Isomorph-free enumeration of connected graphs and diameter surveys.

Enumeration is by canonical augmentation: grow one vertex at a time,
keep one attachment set per orbit of the parent's automorphism group,
and accept a child only when the new vertex lies in the same orbit as
the canonical non-cut vertex of highest canonical position.  Each
isomorphism class is produced exactly once, memory stays flat, and the
stream order is deterministic.

A degree test comes before canonization, as in McKay's geng.  The
canonical order never decreases in degree: the root's one refinement
splitter is the whole vertex set, so ``canon.refine`` first splits by
degree, and every later split and individualization keeps cell order.
So the last non-cut vertex has the largest degree of any non-cut
vertex.  The new vertex is never a cut vertex, so a child in which some
non-cut vertex has a larger degree than the new one is rejected without
canonizing it.

The survey pairs each enumerated graph with (diam G, diam G2) where G2
joins vertices at distance exactly 2.  It lists the nodes of the
augmentation tree at order max(1, n - 2), counts the pairs of each
one's subtree on its own, and sums the subtree counts, in this process
or in worker processes.  Counts land in a :class:`SurveyTable`;
infinite G2 diameters are kept under ``inf``.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Sequence

from . import _kernels
from .canon import canonical_labeling_rows, orbits_from_generators
from .graphs import Graph

# At the census's measured 5,662 graphs/s (n <= 8, one core, in the
# benchmark's scaled seconds; about 3,500 in raw wall time on a 2-core VM),
# n = 10 (11,716,571 classes) takes at least 0.57 h, n = 11 at least
# 2.1 days and n = 12 at least 0.9 years.
ENUM_CAP = 10


def _check_cap(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")
    if n > ENUM_CAP:
        raise ValueError(f"enumeration above n={ENUM_CAP} is refused")


def _apply_perm_to_set(perm: Sequence[int], bits: int) -> int:
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << perm[low.bit_length() - 1]
        bits ^= low
    return out


def _attachment_reps(m: int, gens: Sequence[tuple[int, ...]]) -> Iterator[int]:
    """Nonempty subsets of 0..m-1, one per orbit of the parent's group."""
    if not gens:
        yield from range(1, 1 << m)
        return
    seen = bytearray(1 << m)
    for s in range(1, 1 << m):
        if seen[s]:
            continue
        orbit = [s]
        seen[s] = 1
        head = 0
        while head < len(orbit):
            cur = orbit[head]
            head += 1
            for g in gens:
                img = _apply_perm_to_set(g, cur)
                if not seen[img]:
                    seen[img] = 1
                    orbit.append(img)
        yield s


def _is_cut(rows: Sequence[int], v: int, full: int) -> bool:
    rest = full & ~(1 << v)  # v is no cut vertex when rest stays connected
    return _kernels.reach(rows, rest & -rest, rest) != rest


def _children(rows: tuple[int, ...], gens: Sequence[tuple[int, ...]]):
    """Accepted one-vertex extensions with their automorphism generators."""
    m = len(rows)
    full = (1 << (m + 1)) - 1
    for s in _attachment_reps(m, gens):
        child = [r | (((s >> i) & 1) << m) for i, r in enumerate(rows)]
        child.append(s)
        deg = s.bit_count()
        if any(child[u].bit_count() > deg and not _is_cut(child, u, full) for u in range(m)):
            continue  # v* would have that larger degree, so m cannot share its orbit
        res = canonical_labeling_rows(child, m + 1)
        orbit = orbits_from_generators(res.generators, m + 1)
        vstar = next(v for v in reversed(res.order) if not _is_cut(child, v, full))
        if orbit[vstar] == orbit[m]:
            yield tuple(child), res.generators


def _walk(rows: tuple[int, ...], gens, n: int) -> Iterator[tuple[tuple[int, ...], Sequence]]:
    """The order-n nodes below (rows, gens), with their automorphism generators."""
    if len(rows) == n:
        yield rows, gens
        return
    for child, child_gens in _children(rows, gens):
        yield from _walk(child, child_gens, n)


def enumerate_connected(n: int) -> Iterator[Graph]:
    """All connected graphs on n vertices, one per isomorphism class.

    Deterministic order; n up to ``ENUM_CAP``.
    """
    _check_cap(n)
    for rows, _ in _walk((0,), [], n):
        yield Graph(n, rows, _validate=False)


@dataclass
class SurveyTable:
    """Counts of connected isomorphism classes by (diam G, diam G2)."""

    n: int
    cells: dict[tuple[int, int | float], int] = field(default_factory=dict)

    def add(self, d: int, d2: int | float, count: int = 1) -> None:
        key = (d, d2)
        self.cells[key] = self.cells.get(key, 0) + count

    def get(self, d: int, d2: int | float) -> int:
        return self.cells.get((d, d2), 0)

    def total(self) -> int:
        return sum(self.cells.values())

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

    @classmethod
    def from_csv(cls, text: str) -> "SurveyTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != "n,d,d2,count":
            raise ValueError("expected header 'n,d,d2,count'")
        table: "SurveyTable | None" = None
        for ln in lines[1:]:
            nstr, dstr, d2str, cstr = ln.strip().split(",")
            n = int(nstr)
            if table is None:
                table = cls(n)
            elif table.n != n:
                raise ValueError("mixed n values in one survey table")
            d2: int | float = math.inf if d2str == "inf" else int(d2str)
            table.add(int(dstr), d2, int(cstr))
        if table is None:
            raise ValueError("empty survey table")
        return table


def _survey_subtree(n: int, root) -> dict[tuple[int, int | float], int]:
    """(diam G, diam G2) counts over the order-n graphs below one ``(rows, gens)`` root."""
    cells: dict[tuple[int, int | float], int] = {}
    for rows, _ in _walk(*root, n):
        d, d2 = _kernels.diameter_pair(rows)
        key = (d, math.inf if d2 < 0 else d2)
        cells[key] = cells.get(key, 0) + 1
    return cells


def _usable_cpus() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def survey(n: int, jobs: int = 1) -> SurveyTable:
    """Joint (diam G, diam G2) census over connected graphs on n vertices.

    The census is a sum over the subtrees below the augmentation tree's
    nodes at order max(1, n - 2).  ``jobs`` processes count them: the
    subtrees are counted here when it is 1, and fanned out to worker
    processes otherwise, at most one per usable CPU (a pool starts all
    its workers at once); the table is the same either way.
    """
    _check_cap(n)
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"job count must be a positive integer, got {jobs!r}")
    table = SurveyTable(n)
    roots = _walk((0,), [], max(1, n - 2))
    count = partial(_survey_subtree, n)
    with ProcessPoolExecutor(min(jobs, _usable_cpus())) if jobs > 1 else nullcontext() as pool:
        parts = map(count, roots) if pool is None else pool.map(count, roots, chunksize=8)
        for cells in parts:
            for (d, d2), c in cells.items():
                table.add(d, d2, c)
    return table
