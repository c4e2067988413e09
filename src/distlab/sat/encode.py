"""CNF fragments tying candidate adjacency to its 2-distance graph.

The b-definition is a full biconditional, so every model decodes to a
graph whose b-variables agree exactly with distance-2 adjacency; it is
the one statement of "within distance 2", which the diameter cap reads
as a or b.  The other fragments use one-sided variables, true only if
their bound holds, sound and complete (see each).
``build_formula`` combines the fragments for the extremal search, each
exact, so every model of the formula is a graph that passes the search's
BFS verification: a pinned path of the 2-distance graph, made an exact
geodesic by reachability from its first vertex, optional exclusion of
diameter at most 2 stated on a, connectivity of the 2-distance graph by
reachability to the pinned path, lex ordering on free vertices, and, when
asked, a cap on the diameter by layered reachability.  Each fragment returns a plain
clause list; ``build_formula`` checks every clause once, as it adds it to
the one ``CnfFormula`` it returns.
"""
from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Mapping

from ..graphs import Graph, from_edge_list
from .cnf import CnfFormula, VarMap

if TYPE_CHECKING:  # pragma: no cover
    from .search import SearchParams


def _others(n: int, i: int, k: int) -> list[int]:
    return [j for j in range(n) if j != i and j != k]


def encode_b_definition(vm: VarMap) -> list[list[int]]:
    """b(i,k) holds iff some j is adjacent to both while i,k are not adjacent.

    One Tseitin conjunct t per middle vertex j, biconditional in both
    directions, tagged ``t`` (i j k) in the sidecar, then b as the
    disjunction of its conjuncts.
    """
    clauses: list[list[int]] = []
    n = vm.n
    for i, k in vm.pairs():
        a_ik = vm.a(i, k)
        ts = []
        for j in _others(n, i, k):
            t = vm.tagged("t", i, j, k)
            a_ij = vm.a(i, j)
            a_jk = vm.a(j, k)
            clauses.append([-t, a_ij])
            clauses.append([-t, a_jk])
            clauses.append([-t, -a_ik])
            clauses.append([t, -a_ij, -a_jk, a_ik])
            ts.append(t)
        b = vm.b(i, k)
        clauses.append([-b] + ts)
        for t in ts:
            clauses.append([b, -t])
    return clauses


def encode_p2_fixing(vm: VarMap, p2_len: int) -> list[list[int]]:
    """Pin vertices 0..p2_len as a path of b-edges (unit clauses)."""
    if p2_len < 0 or p2_len + 1 > vm.n:
        raise ValueError(f"path with {p2_len} edges does not fit in n={vm.n}")
    return [[vm.b(i, i + 1)] for i in range(p2_len)]


def encode_p2_geodesic(vm: VarMap, p2_len: int) -> list[list[int]]:
    """The pinned path 0..p2_len is a geodesic of the 2-distance graph.

    q_s(v) is one-sided: forced true when v lies within s of vertex 0 in
    G2, by b(0,v) -> q_1(v), q_s(v) -> q_{s+1}(v) and q_s(u) and b(u,v) ->
    q_{s+1}(v) for u, v != 0; the unit not q_{p-1}(p) for p = ``p2_len``
    closes it.  Sound because a G2 path from 0 to p shorter than p forces
    q_{p-1}(p); complete because setting each q_s to the exact "within s
    of 0" satisfies every clause.  (p-1)(n-1) fresh variables, tagged
    ``q<s>`` (v) in the sidecar, and (p-2)(n-1)^2 + n clauses; empty for
    p < 2.
    """
    if p2_len < 2:
        return []
    rest = range(1, vm.n)
    q = {v: vm.tagged("q1", v) for v in rest}
    clauses = [[-vm.b(0, v), q[v]] for v in rest]
    for s in range(2, p2_len):
        nxt = {v: vm.tagged(f"q{s}", v) for v in rest}
        for v in rest:
            clauses.append([-q[v], nxt[v]])
            for u in rest:
                if u != v:
                    clauses.append([-q[u], -vm.b(u, v), nxt[v]])
        q = nxt
    clauses.append([-q[p2_len]])
    return clauses


def encode_diam2_exclusion(vm: VarMap) -> list[list[int]]:
    """Exclude graphs of diameter at most 2, stated directly on a.

    far(i,k) is one-sided, true only if dist(i,k) > 2: far -> not a(i,k),
    and far -> not (a(i,j) and a(j,k)) for every middle j.  The clause
    OR far closes it.  Exact, because setting far to "beyond 2" satisfies
    every clause, so disconnected or diameter->=3 graphs stay admissible.
    It reads a, not b: b(i,k) is settled only after a(i,k), so far -> not
    b(i,k) propagates later and doubled the conflicts of (11,7,7).
    P = C(n,2) fresh variables, tagged ``far`` (i k) in the sidecar, and
    P(n-1) + 1 clauses.
    """
    clauses: list[list[int]] = []
    fars = []
    for i, k in vm.pairs():
        far = vm.tagged("far", i, k)
        clauses.append([-far, -vm.a(i, k)])
        for j in _others(vm.n, i, k):
            clauses.append([-far, -vm.a(i, j), -vm.a(j, k)])
        fars.append(far)
    clauses.append(fars)
    return clauses


def encode_g2_connected(vm: VarMap, path_len: int) -> list[list[int]]:
    """The 2-distance graph is connected, given the pinned path 0..path_len.

    The path's b-units join its vertices, so it remains for every free vertex
    v > L = ``path_len`` to reach the path.  c_s(v) is one-sided, true only if
    v lies within s of the path in G2: c_1(v) -> OR_{i <= L} b(i,v), and
    c_s(v) -> c_{s-1}(v) or OR_u m(u,v) with m -> c_{s-1}(u), m -> b(u,v) for
    the other free u.  A shortest path to v runs through free vertices, so
    the units c_F(v), F = n - L - 1, close it; the exact "within s" values
    satisfy every clause.  F^2 + F(F-1)^2 variables, tagged ``c<s>`` (v) and
    ``cm<s>`` (u v), and F(2 + (F-1)(2F-1)) clauses.
    """
    free = range(path_len + 1, vm.n)
    c = {v: vm.tagged("c1", v) for v in free}
    clauses = [[-c[v]] + [vm.b(i, v) for i in range(path_len + 1)] for v in free]
    for s in range(2, len(free) + 1):
        nxt = {v: vm.tagged(f"c{s}", v) for v in free}
        for v in free:
            big = [-nxt[v], c[v]]
            for u in free:
                if u != v:
                    m = vm.tagged(f"cm{s}", u, v)
                    big.append(m)
                    clauses.append([-m, c[u]])
                    clauses.append([-m, vm.b(u, v)])
            clauses.append(big)
        c = nxt
    clauses.extend([c[v]] for v in free)
    return clauses


def encode_diameter_cap(vm: VarMap, max_d: int) -> list[list[int]]:
    """Every pair of the candidate graph lies within distance ``max_d``.

    Reads the b-variables, so it needs :func:`encode_b_definition` in the
    same formula.  A reach level r_s(i,j) is a literal list whose
    disjunction holds only if dist(i,j) <= s: r_1 is [a] and r_2 is [a, b],
    since b implies distance 2.  Each composition builds r_{s+t} from r_s
    and r_t through a middle vertex k as one fresh variable r,
    r -> r_max(s,t)(i,j) or OR_k m(i,k,j), with m -> r_s(i,k) and
    m -> r_t(k,j).  Levels double from r_2 up to the largest power of two
    within ``max_d`` (r_4, r_8, ...), then add the remaining binary digits
    (r_6 = r_4 o r_2), and the clauses r_max_d(i,j) close it.  Sound
    because every level implies its bound; complete because setting each
    variable to the exact "distance <= s" satisfies every clause.

    With P = C(n,2) pairs and c = max(0, floor(log2 max_d) +
    popcount(max_d) - 2) compositions, the fragment has
    P * (c * (2n - 3) + 1) clauses and P * c * (n - 1) fresh variables,
    tagged ``r<s>`` (pair i j) and ``m<s>`` (i k j) in the sidecar.
    """
    if max_d < 1:
        raise ValueError(f"diameter cap must be at least 1, got {max_d}")
    clauses: list[list[int]] = []
    n = vm.n
    reach = {
        1: {p: [vm.a(*p)] for p in vm.pairs()},
        2: {p: [vm.a(*p), vm.b(*p)] for p in vm.pairs()},
    }

    def compose(s: int, t: int) -> int:
        rs, rt, rmax = reach[s], reach[t], reach[max(s, t)]
        level = {}
        for i, j in vm.pairs():
            r = vm.tagged(f"r{s + t}", i, j)
            level[(i, j)] = [r]
            big = [-r, *rmax[(i, j)]]
            for k in _others(n, i, j):
                m = vm.tagged(f"m{s + t}", i, k, j)
                big.append(m)
                clauses.append([-m, *rs[(i, k) if i < k else (k, i)]])
                clauses.append([-m, *rt[(k, j) if k < j else (j, k)]])
            clauses.append(big)
        reach[s + t] = level
        return s + t

    top = min(max_d, 2)
    while 2 * top <= max_d:
        top = compose(top, top)
    rest = max_d - top
    for bit in reversed(range(rest.bit_length())):
        if rest >> bit & 1:
            top = compose(top, 1 << bit)
    clauses.extend(reach[max_d].values())
    return clauses


def encode_free_vertex_ordering(vm: VarMap, p2_len: int) -> list[list[int]]:
    """Lex-leader ordering on adjacent free-vertex pairs.

    For free vertices u < u+1 the adjacency row of u (outside the pair)
    must be lexicographically <= the row of u+1, with prefix-equality
    auxiliaries defined biconditionally, tagged ``eq`` (u v w) when the
    rows agree on every column up to w.  Sound: the lex-least member of
    each class under free-vertex permutations survives.
    """
    clauses: list[list[int]] = []
    n = vm.n
    free = list(range(p2_len + 1, n))
    for u in free[:-1]:
        v = u + 1
        cols = [w for w in range(n) if w not in (u, v)]
        if not cols:
            continue
        xs = [vm.a(u, w) for w in cols]
        ys = [vm.a(v, w) for w in cols]
        clauses.append([-xs[0], ys[0]])
        prev: list[int] = []  # the previous column's eq variable, none at the first
        for w, x, y, x_next, y_next in zip(cols, xs, ys, xs[1:], ys[1:]):
            e = vm.tagged("eq", u, v, w)
            clauses.extend([-e, p] for p in prev)
            clauses.append([-e, -x, y])
            clauses.append([-e, x, -y])
            clauses.append([e, *(-p for p in prev), -x, -y])
            clauses.append([e, *(-p for p in prev), x, y])
            clauses.append([-e, -x_next, y_next])
            prev = [e]
    return clauses


def geodesic_length(params: "SearchParams", max_d: int | None = None) -> int:
    """Length L = max(p2_len, min_d2, max_d + 2) of the G2 geodesic 0..L that
    :func:`build_formula` pins (no ``max_d`` term without a cap).

    No graph is lost: relabeling puts a length-L G2 geodesic of any graph
    with diam G2 >= L on 0..L, and 0..p2_len is part of it.  A ``p2_len``
    outside 0..n-1 is a ``ValueError``.
    """
    if not 0 <= params.p2_len < params.n:
        raise ValueError(f"path with {params.p2_len} edges does not fit in n={params.n}")
    if max_d is None:
        return max(params.p2_len, params.min_d2)
    return max(params.p2_len, params.min_d2, max_d + 2)


def build_formula(
    params: "SearchParams", max_d: int | None = None
) -> tuple[VarMap, CnfFormula]:
    """The search formula at cap ``max_d``, whose every model passes
    ``verify_witness``: with the geodesic of length L = :func:`geodesic_length`
    and G2 connected (when sharp or ``min_d2 >= 1``), diam G2 >= L, which is
    at least min_d2 and, under the cap, diam G + 2.
    """
    vm = VarMap(params.n)
    path_len = geodesic_length(params, max_d)
    fragments = [
        encode_b_definition(vm),
        encode_p2_fixing(vm, path_len),
        encode_p2_geodesic(vm, path_len),
    ]
    if params.forbid_diam_le_2:
        fragments.append(encode_diam2_exclusion(vm))
    if params.require_sharp or params.min_d2 >= 1:
        fragments.append(encode_g2_connected(vm, path_len))
    fragments.append(encode_free_vertex_ordering(vm, path_len))
    if max_d is not None:
        fragments.append(encode_diameter_cap(vm, max_d))
    return vm, CnfFormula(vm.var_count, chain.from_iterable(fragments))


def _true_pairs(vm: VarMap, model, var_of, unset: str) -> list[tuple[int, int]]:
    """Pairs whose variable ``var_of(i, j)`` is true in ``model``, a mapping
    var -> bool; ``unset`` formats the error."""
    out = []
    for i, j in vm.pairs():
        var = var_of(i, j)
        if var not in model:
            raise ValueError(unset.format(var=var, i=i, j=j))
        if model[var]:
            out.append((i, j))
    return out


def decode_model(vm: VarMap, model: Mapping[int, bool]) -> Graph:
    """Graph from the a-variables of a model, a mapping var -> bool as
    :meth:`~distlab.sat.dpll.DpllSolver.solve` returns it.  Every
    a-variable must be assigned.
    """
    unset = "model leaves adjacency variable {var} (a {i} {j}) unset"
    return from_edge_list(vm.n, _true_pairs(vm, model, vm.a, unset))


def model_b_edges(vm: VarMap, model: Mapping[int, bool]) -> set[tuple[int, int]]:
    """Pairs whose b-variable is true in the model (for cross-checks)."""
    unset = "model leaves variable {var} (b {i} {j}) unset"
    return set(_true_pairs(vm, model, vm.b, unset))
