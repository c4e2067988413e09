"""Checks of the program's outputs against computations made apart from it.

Everything here uses networkx, published counts and the theorem's
bounds; nothing compares against a stored copy of distlab's output.
Each ``check_*`` returns a list of error strings, empty when the output
is correct.
"""
from __future__ import annotations

import math

import networkx as nx

# OEIS A001349: connected graphs on n unlabeled vertices.
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080,
           10: 11716571}
ATLAS_MAX_ORDER = 7  # networkx's atlas holds every graph on up to 7 vertices

HOLDS = "Holds"
HOLDS_VACUOUSLY = "HoldsVacuously"
NOT_APPLICABLE = "NotApplicable"
VIOLATION = "VIOLATION"


def two_distance_graph(g: nx.Graph, dist: dict) -> nx.Graph:
    """Graph on g's vertices joining the pairs at distance exactly 2."""
    g2 = nx.Graph()
    g2.add_nodes_from(range(g.number_of_nodes()))
    g2.add_edges_from((u, v) for u, row in dist.items() for v, d in row.items() if d == 2)
    return g2


def _diameter(g: nx.Graph, dist: dict) -> int | float:
    n = g.number_of_nodes()
    if any(len(row) < n for row in dist.values()):
        return math.inf
    return max(max(row.values()) for row in dist.values())


def diameters(g: nx.Graph) -> tuple[int | float, int | float, nx.Graph, dict, dict]:
    """(diam G, diam G2, G2, distances of G, distances of G2)."""
    dist = dict(nx.all_pairs_shortest_path_length(g))
    g2 = two_distance_graph(g, dist)
    dist2 = dict(nx.all_pairs_shortest_path_length(g2))
    return _diameter(g, dist), _diameter(g2, dist2), g2, dist, dist2


def verdict(d: int | float, d2: int | float) -> str:
    """The theorem's verdict: ceil(d/2) <= d2 <= d + 2 when d >= 3 and G2 connects."""
    if math.isinf(d) or d < 3:
        return NOT_APPLICABLE
    if math.isinf(d2):
        return HOLDS_VACUOUSLY
    return HOLDS if -(-d // 2) <= d2 <= d + 2 else VIOLATION


def _fmt(value: int | float) -> str:
    return "inf" if math.isinf(value) else str(value)


# ---- census -------------------------------------------------------------

def atlas_census(n: int) -> dict[tuple[int, int | float], int]:
    """(d, d2) counts over the connected graphs of order n in the atlas."""
    if n > ATLAS_MAX_ORDER:
        raise ValueError(f"the graph atlas stops at order {ATLAS_MAX_ORDER}")
    cells: dict[tuple[int, int | float], int] = {}
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() == n and nx.is_connected(g):
            d, d2 = diameters(g)[:2]
            cells[(d, d2)] = cells.get((d, d2), 0) + 1
    return cells


def check_census(n: int, cells: dict, atlas: dict | None = None) -> list[str]:
    """Class total against A001349, every cell against the bounds, and the
    whole table against ``atlas`` (from :func:`atlas_census`) when given."""
    errors = []
    total = sum(cells.values())
    if total != A001349[n]:
        errors.append(f"n={n}: {total} classes, A001349 gives {A001349[n]}")
    for (d, d2), count in cells.items():
        if count <= 0:
            errors.append(f"n={n}: cell ({d}, {d2}) holds {count}")
        if verdict(d, d2) == VIOLATION:
            errors.append(f"n={n}: cell ({d}, {d2}) breaks ceil(d/2) <= d2 <= d + 2")
    if atlas is not None and cells != atlas:
        diff = sorted(
            (key, cells.get(key, 0), atlas.get(key, 0))
            for key in set(cells) | set(atlas)
            if cells.get(key, 0) != atlas.get(key, 0)
        )
        errors.append(f"n={n}: cells differ from the atlas as (cell, got, want): {diff}")
    return errors


# ---- witness ------------------------------------------------------------

def check_witness(n: int, p2_len: int, min_d2: int, order: int, edges) -> list[str]:
    """Re-verify a sharp witness: its order, the pinned path 0..p2_len as a
    geodesic of G2 with consecutive vertices at distance 2 in G, and
    d2 = d + 2 >= min_d2 with both diameters finite."""
    if order != n:
        return [f"witness has {order} vertices, asked for {n}"]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    d, d2, _g2, dist, dist2 = diameters(g)
    errors = []
    for i in range(p2_len):
        if dist[i].get(i + 1) != 2:
            errors.append(f"pinned pair ({i}, {i + 1}) is not at distance 2 in G")
    if dist2[0].get(p2_len) != p2_len:
        errors.append(f"d2(0, {p2_len}) = {dist2[0].get(p2_len)}, not a geodesic")
    if math.isinf(d) or math.isinf(d2) or d2 != d + 2 or d2 < min_d2:
        errors.append(f"(d, d2) = ({d}, {d2}) is not a sharp pair with d2 >= {min_d2}")
    return errors


# ---- stream -------------------------------------------------------------

def expected_stream(text: str) -> dict[str, list[str]]:
    """Expected output lines of ``transform --k 2``, ``verify`` and ``diam``
    for a graph6 file, computed with networkx alone."""
    out = {"transform": [], "verify": [], "diam": []}
    for idx, line in enumerate(text.splitlines()):
        g = nx.from_graph6_bytes(line.encode("ascii"))
        d, d2, g2 = diameters(g)[:3]
        out["transform"].append(nx.to_graph6_bytes(g2, header=False).decode("ascii").strip())
        out["verify"].append(f"{idx},{_fmt(d)},{_fmt(d2)},{verdict(d, d2)}")
        out["diam"].append(f"{idx},{_fmt(d)}")
    return out


def check_stream(expected: dict[str, list[str]], outputs: dict[str, str]) -> list[str]:
    """Compare each command's output, line by line, with the expectation."""
    errors = []
    for command, want in expected.items():
        got = outputs[command].splitlines()
        if len(got) != len(want):
            errors.append(f"{command}: {len(got)} lines, expected {len(want)}")
        for idx, (g, w) in enumerate(zip(got, want)):
            if g != w:
                errors.append(f"{command}: record {idx} gave {g!r}, expected {w!r}")
                break
    return errors
