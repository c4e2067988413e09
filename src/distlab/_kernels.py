"""Breadth-first search on plain-int bitsets: ``levels`` from every
source at once, ``layers`` from one vertex set.

A graph on n <= 64 vertices is a sequence of n adjacency rows: bit ``j``
of ``rows[i]`` is set iff ``{i, j}`` is an edge.  ``levels`` packs the
whole n x n reach matrix into one int of n * n bits, row ``s`` in bits
``s*n .. s*n + n - 1``, and advances every source one level per pass.
A pass costs n big-int steps: for each vertex ``v``, the sources whose
frontier holds ``v`` (``(frontier >> v) & COL``, with bit ``s*n`` of
``COL`` set for each ``s``) each get a copy of ``rows[v]`` in their own
row block (``sel * rows[v]``; the blocks do not overlap, so the product
never carries).  ``layers`` is the single-source search, optionally
inside a vertex set: it reads the rows of one layer to find the next.
It serves connectivity, eccentricities, the leaves' distances to their
attachment sets, and the census's components of a parent less a vertex.

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
- ``diameter`` and ``diameter_pair`` decide connectivity first, by the
  ``layers`` from vertex 0, and run no pass for a disconnected G.

``diameter`` of a connected G whose vertex 0 lies 4 or more from some
vertex runs no pass; it searches from a far set only (the README's
far-set lemma, the fringe step of iFUB, Crescenzi et al. 2013).  Three
``layers`` searches sweep from vertex 0 to a farthest vertex a, and from
a to a farthest vertex b; the largest eccentricity they find,
lb = ecc(b), is at most diam G.  A fourth searches from a vertex u
halfway along a geodesic from a to b.  Every pair farther apart than
lb has an end in the far set F = {w : d(u, w) > floor(lb / 2)}, so
diam G is lb or the largest eccentricity over F, and one ``layers``
search from each vertex of F (less 0, a and b, whose eccentricities are
at most lb) finds it.  F is empty for every tree of even diameter: u
is then its centre.  When vertex 0 lies within 3 of every vertex,
diam G <= 6 and one ``levels`` call from every source costs less.

``diameter_pair`` also runs no G2 pass for a connected bipartite G on
n >= 2 vertices: diam G2 is infinite.  A walk of length 2 ends on the
side it starts from, so G2 has no edge between the two sides, and both
sides are non-empty because G is connected and has an edge.  A connected
G is bipartite iff no edge joins two vertices whose distances from
vertex 0 have the same parity, which the layers from vertex 0 already
show; a bipartite G then takes its diam G as ``diameter`` does.  A
non-bipartite G runs the all-sources BFS of G, whose level 2 is G2.

The census calls ``leaf_pair`` in place of ``diameter_pair``.  Each
graph it counts is a leaf: a connected parent P plus a vertex m joined
to a non-empty set S.  ``leaf_basis(P)`` runs P's one BFS for all of
its leaves, and a leaf adds one ``layers`` search of P from S, giving
a_x = d_P(x, S), and at most one BFS of its G2 (the README's leaf
lemma):

- d(x, y) = min(d_P(x, y), a_x + a_y + 2) for old x and y, and
  d(x, m) = a_x + 1, so diam G is the largest D with a_x + 1 >= D for
  some x, or with d_P(x, y) >= D and a_x + a_y >= D - 2 for some pair;
- the leaf is bipartite iff P is and S lies on one side of P, and then
  no G2 pass runs;
- the leaf's G2 rows are P's distance-2 rows, plus S less N_P[x] for
  each x in S, plus m joined to the x with a_x = 1, and one ``levels``
  call on them gives diam G2.

The leaf is connected because P is and S is not empty, so no
connectivity test runs.
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
    """The rows as one packed int, row s in bits s*n .. s*n + n - 1."""
    n = len(rows)
    out = 0
    for row in reversed(rows):
        out = (out << n) | row
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


def layers(rows: Sequence[int], start: int, within: int = -1) -> list[int]:
    """Single-source BFS layers from the vertex set ``start`` inside the
    vertex set ``within`` (by default every vertex).

    ``start`` must lie in ``within``; both are bitsets.  Layer k is the
    bitset of vertices of ``within`` at distance k from ``start`` in the
    graph induced on ``within``; the list ends at the last non-empty
    layer, so the layers cover the component(s) of ``start`` there.  Each
    layer reads only the rows of the layer before it, so the whole search
    reads each reached row once.
    """
    out = [start]
    frontier = start
    seen = start | ~within  # a vertex outside ``within`` is never reached
    while True:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        if not frontier:
            return out
        seen |= frontier
        out.append(frontier)


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
    zero = layers(rows, 1)
    if sum(zero) != (1 << len(rows)) - 1:
        return UNREACHABLE
    return _connected_diameter(rows, zero)


def _connected_diameter(rows: Sequence[int], zero: Sequence[int]) -> int:
    """diam G of a connected G with ``zero = layers(rows, 1)``: by the far
    set, or from every source when vertex 0 lies within 3 of every vertex."""
    if len(zero) <= 4:
        return len(levels(rows)[0]) - 1
    return _far_diameter(rows, zero)


def _far_diameter(rows: Sequence[int], zero: Sequence[int]) -> int:
    """diam G of a connected G with ``zero = layers(rows, 1)``, by a double
    sweep and the far-set lemma (see the module docstring)."""
    a = zero[-1] & -zero[-1]  # the lowest vertex farthest from vertex 0
    from_a = layers(rows, a)
    b = from_a[-1] & -from_a[-1]  # the lowest vertex farthest from a
    from_b = layers(rows, b)
    lb = len(from_b) - 1  # ecc(b) >= d(a, b) = ecc(a) >= d(0, a) = ecc(0)
    half = (len(from_a) - 1) // 2
    mid = from_a[half] & from_b[len(from_a) - 1 - half]  # on an a-b geodesic
    # Vertices 0, a and b have eccentricity at most lb: no search needs them.
    far = sum(layers(rows, mid & -mid)[lb // 2 + 1:]) & ~(1 | a | b)
    d = lb
    while far:
        low = far & -far
        d = max(d, len(layers(rows, low)) - 1)
        far ^= low
    return d


def _bipartite(rows: Sequence[int], lv: Sequence[int]) -> int:
    """The side holding vertex 0 of a connected graph when it is bipartite,
    else 0 (so the result is true iff it is).

    ``lv`` lists the BFS layers from vertex 0 (``layers(rows, 1)``), or
    the packed levels from every source, whose row 0 are those layers.
    The sides would be the vertices at even and at odd distance from
    vertex 0.
    """
    mask = (1 << len(rows)) - 1
    even = 0
    for level in lv[::2]:
        even |= level & mask
    odd = mask ^ even
    if any(row & (even if (even >> v) & 1 else odd) for v, row in enumerate(rows)):
        return 0
    return even


def diameter_pair(rows: Sequence[int]) -> tuple[int, int]:
    """(diam G, diam G2) with -1 for infinity; G2 joins pairs at distance 2.

    The layers from vertex 0 decide connectivity and bipartiteness.  A
    disconnected G gives (-1, -1) with no all-sources pass: G2 has no
    edge between the components of G.  A connected bipartite G on n >= 2
    vertices gives (diam G, -1) with no G2 pass, and finds diam G as
    ``diameter`` does (see the module docstring).
    """
    n = len(rows)
    zero = layers(rows, 1)
    if sum(zero) != (1 << n) - 1:
        return UNREACHABLE, UNREACHABLE
    if n >= 2 and _bipartite(rows, zero):
        return _connected_diameter(rows, zero), UNREACHABLE
    lv = levels(rows)[0]
    d = len(lv) - 1
    if d >= 2:
        lv2, connected2 = levels(unpack(lv[2], n), lv[2])
    else:
        lv2, connected2 = levels([0] * n, 0)
    return d, (len(lv2) - 1 if connected2 else UNREACHABLE)


def leaf_basis(rows: Sequence[int]) -> tuple:
    """What ``leaf_pair`` needs of a connected parent P, from one BFS.

    A tuple of P's rows; ``far``, where ``far[D]`` for D = 2..diam P is
    the pair (rows of the pairs at distance at least D, the bitset of
    vertices with such a pair), and ``far[0]`` and ``far[1]`` are unused;
    P's distance-2 rows; and P's side holding vertex 0 when P is
    bipartite, else 0.
    """
    n = len(rows)
    lv = levels(rows)[0]
    far: list = [None] * len(lv)
    acc = 0
    for big in range(len(lv) - 1, 1, -1):
        acc |= lv[big]
        far_rows = unpack(acc, n)
        far[big] = far_rows, sum(1 << x for x, row in enumerate(far_rows) if row)
    ring2 = unpack(lv[2], n) if len(lv) > 2 else [0] * n
    return rows, far, ring2, _bipartite(rows, lv)


def leaf_pair(basis: tuple, s: int) -> tuple[int, int]:
    """``diameter_pair`` of P plus a vertex m joined to the non-empty set
    ``s``, from ``basis = leaf_basis(P)`` (see the module docstring).

    Only the G2 BFS is the leaf's own; a bipartite leaf runs none.
    """
    rows, far, ring2, side = basis
    m = len(rows)
    around = layers(rows, s)  # around[k]: a_x = k; they cover P
    r = len(around) - 1
    d = r + 1  # m's eccentricity
    # An old pair is at most min(d_P(x, y), a_x + a_y + 2) <= min(diam P, 2r + 2) apart.
    top = min(len(far) - 1, 2 * r + 2)
    if top > d:
        beyond = around[:]  # beyond[k]: the vertices with a_x >= k
        for k in range(r - 1, -1, -1):
            beyond[k] |= beyond[k + 1]
        for big in range(top, d, -1):
            if _far_pair(far[big], around, beyond, big):
                d = big
                break
    if side and (not s & side or s & side == s):
        return d, UNREACHABLE  # s on one side of bipartite P: the leaf is bipartite
    ring = ring2[:]
    bits = s
    while bits:
        low = bits & -bits
        x = low.bit_length() - 1
        ring[x] |= s & ~(rows[x] | low)  # x and y in s meet through m
        bits ^= low
    near = around[1] if r else 0  # a_x = 1: at distance 2 from m
    bits = near
    while bits:
        low = bits & -bits
        ring[low.bit_length() - 1] |= 1 << m
        bits ^= low
    ring.append(near)
    lv2, connected2 = levels(ring)
    return d, (len(lv2) - 1 if connected2 else UNREACHABLE)


def _far_pair(far_big: tuple, around: Sequence[int], beyond: Sequence[int], big: int) -> bool:
    """Whether a leaf has old vertices x and y at least ``big`` apart:
    d_P(x, y) >= big and a_x + a_y >= big - 2.

    Taking a_x >= a_y, x lies in a layer k >= (big - 2) / 2 and y has
    a_y >= big - 2 - k, which is never negative as big >= r + 2.
    ``far_big`` is ``far[big]`` of ``leaf_basis``.
    """
    far_rows, ecc = far_big
    for k in range((big - 1) // 2, len(around)):
        want = beyond[big - 2 - k]
        xs = around[k] & ecc
        while xs:
            low = xs & -xs
            if far_rows[low.bit_length() - 1] & want:
                return True
            xs ^= low
    return False
