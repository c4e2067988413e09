"""Seeded inputs for the benchmark workloads, made without distlab.

The census and witness workloads have fixed inputs (whole orders and
fixed search targets).  The stream workload reads a graph6 file of
random graphs drawn here from ``random.Random(seed)`` and encoded by
the small graph6 writer below, so the program only ever sees bytes.
"""
from __future__ import annotations

import random

# Orders surveyed per census round; quick mode keeps the same shape small.
CENSUS_ORDERS = (7, 8)
CENSUS_ORDERS_QUICK = (5, 6)

# (n, p2_len, min_d2) per witness round: the family orders for k = 4 and 6.
WITNESS_TARGETS = ((9, 6, 6), (13, 8, 8))
WITNESS_TARGETS_QUICK = ((7, 5, 5),)

STREAM_ORDERS = (8, 16, 32, 64)
STREAM_ORDERS_QUICK = (8, 16)
STREAM_PER_CLASS = 50
STREAM_PER_CLASS_QUICK = 3

# Density classes of the stream, from tree-like to dense, plus a
# disconnected class.  Each maps (rng, n) to an edge set.
KINDS = ("tree", "sparse", "medium", "dense", "split")


def _tree(rng: random.Random, verts: list[int]) -> set[tuple[int, int]]:
    """Random recursive tree on ``verts`` with shuffled labels."""
    order = verts[:]
    rng.shuffle(order)
    edges = set()
    for pos in range(1, len(order)):
        u, v = order[rng.randrange(pos)], order[pos]
        edges.add((min(u, v), max(u, v)))
    return edges


def _add_random(rng: random.Random, verts: list[int], edges: set, count: int) -> None:
    """Add ``count`` edges chosen uniformly among the missing pairs of ``verts``."""
    missing = [
        (u, v) for i, u in enumerate(verts) for v in verts[i + 1:] if (u, v) not in edges
    ]
    edges.update(rng.sample(missing, min(count, len(missing))))


def _add_bernoulli(rng: random.Random, n: int, edges: set, p: float) -> None:
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))


def random_graph(rng: random.Random, n: int, kind: str) -> set[tuple[int, int]]:
    """Edge set (pairs u < v) of one random graph of the given class."""
    verts = list(range(n))
    if kind == "split":
        # two components, each a sparse connected graph
        rng.shuffle(verts)
        cut = rng.randrange(2, n - 1)
        edges = set()
        for part in (sorted(verts[:cut]), sorted(verts[cut:])):
            edges |= _tree(rng, part)
            _add_random(rng, part, edges, len(part) // 4)
        return edges
    edges = _tree(rng, verts)
    if kind == "sparse":
        _add_random(rng, verts, edges, n // 2)
    elif kind == "medium":
        _add_bernoulli(rng, n, edges, 0.15)
    elif kind == "dense":
        _add_bernoulli(rng, n, edges, 0.6)
    elif kind != "tree":
        raise ValueError(f"unknown graph class {kind!r}")
    return edges


def graph6_line(n: int, edges: set[tuple[int, int]]) -> str:
    """graph6 encoding (no newline) of a graph on vertices 0..n-1."""
    out = bytearray()
    if n <= 62:
        out.append(63 + n)
    else:
        out += bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((i, j) in edges)
            nbits += 1
            if nbits == 6:
                out.append(63 + acc)
                acc = nbits = 0
    if nbits:
        out.append(63 + (acc << (6 - nbits)))
    return out.decode("ascii")


def stream_records(seed: int, quick: bool = False) -> list[tuple[str, int, set]]:
    """Shuffled (kind, n, edges) records: every order times every class."""
    rng = random.Random(seed)
    orders = STREAM_ORDERS_QUICK if quick else STREAM_ORDERS
    per_class = STREAM_PER_CLASS_QUICK if quick else STREAM_PER_CLASS
    records = [
        (kind, n, random_graph(rng, n, kind))
        for n in orders
        for kind in KINDS
        for _ in range(per_class)
    ]
    rng.shuffle(records)
    return records


def stream_text(records) -> str:
    return "".join(graph6_line(n, edges) + "\n" for _kind, n, edges in records)
