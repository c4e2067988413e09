"""Shared helpers for the test suite.

Everything here is deliberately written against plain adjacency lists,
itertools and networkx so it cannot share a bug with the package internals.
"""

import itertools
import random
from collections import deque

import networkx as nx

from distlab.canon import canonical_form
from distlab.graphs import Graph, from_edge_list


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """By canonical form, the package's isomorphism test."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    return canonical_form(g1) == canonical_form(g2)


def reference_distances(g: Graph) -> list[list[int]]:
    """Deque BFS from every source, -1 for unreachable pairs."""
    n = g.n
    nbrs = [[] for _ in range(n)]
    for i, j in g.edges():
        nbrs[i].append(j)
        nbrs[j].append(i)
    out = []
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    q.append(w)
        out.append(dist)
    return out


def reference_diameter(g: Graph) -> int:
    """-1 when disconnected, else the exact diameter."""
    best = 0
    for row in reference_distances(g):
        if -1 in row:
            return -1
        best = max(best, max(row))
    return best


def nx_diameter_pair(n: int, edges) -> tuple[int, int]:
    """(diam G, diam G2) by networkx, -1 for a disconnected graph."""
    h = nx.empty_graph(n)
    h.add_edges_from(edges)
    dist = dict(nx.all_pairs_shortest_path_length(h))
    h2 = nx.empty_graph(n)
    h2.add_edges_from((i, j) for i in range(n) for j, x in dist[i].items() if x == 2)
    return tuple(nx.diameter(x) if nx.is_connected(x) else -1 for x in (h, h2))


def reference_k_distance_edges(g: Graph, k: int) -> set[tuple[int, int]]:
    dist = reference_distances(g)
    return {
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if dist[i][j] == k
    }


def relabeled(g: Graph, perm) -> Graph:
    """Image of g under vertex permutation perm (perm[v] = new label)."""
    return from_edge_list(g.n, [(perm[i], perm[j]) for i, j in g.edges()])


def brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Permutation search; fine up to n = 8."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    e2 = set(g2.edges())
    for perm in itertools.permutations(range(g1.n)):
        if all((min(perm[i], perm[j]), max(perm[i], perm[j])) in e2 for i, j in g1.edges()):
            return True
    return False


def brute_orbits(g: Graph) -> list[int]:
    """orbit[v] = least vertex in v's orbit under the full automorphism group."""
    n = g.n
    edges = set(g.edges())
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in itertools.permutations(range(n)):
        ok = all(
            (min(perm[i], perm[j]), max(perm[i], perm[j])) in edges for i, j in edges
        )
        if not ok:
            continue
        for v in range(n):
            a, b = find(v), find(perm[v])
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return from_edge_list(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    """Rejection sample; falls back to sprinkling a random spanning tree."""
    for _ in range(200):
        g = random_graph(rng, n, p)
        if reference_diameter(g) >= 0:
            return g
    return random_tree_plus(rng, n, p)


def random_tree_plus(rng: random.Random, n: int, p: float) -> Graph:
    """A random spanning tree on shuffled labels, plus each other pair with
    probability p."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    edges += [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return from_edge_list(n, edges)


def reference_refine(rows, cells):
    """Equitable refinement by whole passes: every pass splits each cell by
    a vertex's tuple of neighbor counts into every cell, until no cell splits."""
    cells = [list(c) for c in cells]
    while True:
        members = [set(c) for c in cells]
        new_cells = []
        for c in cells:
            buckets = {}
            for v in c:
                nbrs = {u for u in range(len(rows)) if rows[v] >> u & 1}
                key = tuple(len(nbrs & m) for m in members)
                buckets.setdefault(key, []).append(v)
            new_cells += [buckets[key] for key in sorted(buckets)]
        if len(new_cells) == len(cells):
            return cells
        cells = new_cells


def list_cell_refine(rows, cells, splitters):
    """The splitter-stack refinement over cells kept as ascending vertex
    lists, split one vertex at a time: ``canon.refine`` on bitset cells
    must return the same cells in the same order."""
    stack = list(splitters)
    n = len(rows)
    while stack and len(cells) < n:
        w = stack.pop()
        new_cells = []
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            buckets = {}
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


def split_in_place(coarse, fine):
    """Whether each bitset cell of ``coarse`` is the union of a consecutive
    run of ``fine``'s cells, in order, the runs covering all of ``fine``."""
    i = 0
    for c in coarse:
        union = 0
        while union != c:
            if i == len(fine) or fine[i] & ~c:
                return False
            union |= fine[i]
            i += 1
    return i == len(fine)


def sidecar_entries(vm) -> list[tuple]:
    """``(kind, vertices...)`` of every variable, read off ``vm.sidecar()``;
    entry v - 1 belongs to variable v."""
    out = []
    for idx, line in enumerate(vm.sidecar().splitlines(), start=1):
        num, kind, *verts = line.split()
        assert int(num) == idx
        out.append((kind, *map(int, verts)))
    return out


def reference_clause(var_count: int, clause) -> list[int]:
    """``CnfFormula.add``'s full check on every clause, with one pass per
    rule: the list ``add`` stores, or the ``ValueError`` it raises."""
    lits = clause if type(clause) is list else list(clause)
    if not lits:
        raise ValueError("empty clause")
    top = var_count
    for lit in lits:
        if not isinstance(lit, int) or lit == 0:
            raise ValueError(f"bad literal {lit!r}")
        if not -top <= lit <= top:
            raise ValueError(f"literal {lit} exceeds var count {top}")
    seen = set(lits)
    for lit in seen:
        if -lit in seen:
            raise ValueError(f"tautological clause {lits}")
    if len(seen) != len(lits):
        lits = list(dict.fromkeys(lits))
    return lits
