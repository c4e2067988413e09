"""Labeled-graph brute force with explicit relabeling dedup, on plain ints.

A graph on n vertices is a bitmask over the C(n,2) unordered pairs,
bit order lexicographic: (0,1), (0,2), ..., (n-2,n-1).  The class count
comes from scanning every mask once and, at each unseen mask, marking
its whole relabeling orbit seen.  The orbit is searched under two
relabelings that generate every permutation, the transposition (0 1)
and the n-cycle; each one maps a mask through three chunk lookup
tables.  No canonical forms, no refinement.
"""

import math


def pair_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    for i in range(n):
        for j in range(i + 1, n):
            idx[(i, j)] = len(idx)
    return idx


def mask_edges(n: int, mask: int) -> list[tuple[int, int]]:
    return [pair for pair, b in pair_index(n).items() if (mask >> b) & 1]


def mask_is_connected(n: int, mask: int) -> bool:
    adj = [0] * n
    for (i, j), b in pair_index(n).items():
        if (mask >> b) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        v = frontier
        while v:
            low = v & -v
            nxt |= adj[low.bit_length() - 1]
            v ^= low
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


def _relabel_tables(n: int, perm: list[int], width: int) -> list[list[int]]:
    """Three chunk tables that relabel a mask by ``perm``.

    ``tables[c][v]`` is the image of the pair bits ``v << (c * width)``,
    so OR-ing one lookup per chunk relabels a whole mask.
    """
    idx = pair_index(n)
    image = [0] * len(idx)
    for (i, j), b in idx.items():
        a, c = perm[i], perm[j]
        image[b] = 1 << idx[(min(a, c), max(a, c))]
    tables = []
    for lo in range(0, 3 * width, width):
        bits = image[lo:lo + width]
        table = [0] * (1 << len(bits))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] | bits[low.bit_length() - 1]
        tables.append(table)
    return tables


def connected_class_reps(n: int) -> list[int]:
    """First-seen mask per isomorphism class of connected graphs."""
    if n == 1:
        return [0]
    m = n * (n - 1) // 2
    width = -(-m // 3)
    chunk = (1 << width) - 1
    # The transposition (0 1) and the n-cycle v -> v + 1 generate every
    # permutation, so a search under the two reaches a mask's whole orbit.
    swap = [1, 0] + list(range(2, n))
    shift = [(v + 1) % n for v in range(n)]
    gens = [_relabel_tables(n, perm, width) for perm in (swap, shift)]
    seen = bytearray(1 << m)
    reps = []
    for mask in range(1 << m):
        if seen[mask]:
            continue
        seen[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            a, b, c = x & chunk, (x >> width) & chunk, x >> (2 * width)
            for t0, t1, t2 in gens:
                y = t0[a] | t1[b] | t2[c]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
        if mask_is_connected(n, mask):
            reps.append(mask)
    return reps


def count_connected_classes(n: int) -> int:
    return len(connected_class_reps(n))


def labeled_connected_count(n: int) -> int:
    """Inclusion-exclusion recurrence, a third route for sanity checks."""
    total = [1] * (n + 1)
    for k in range(1, n + 1):
        total[k] = 1 << (k * (k - 1) // 2)
    conn = [0] * (n + 1)
    conn[1] = 1
    for k in range(2, n + 1):
        s = total[k]
        for j in range(1, k):
            s -= math.comb(k - 1, j - 1) * conn[j] * total[k - j]
        conn[k] = s
    return conn[n]
