"""Diameter bounds for the 2-distance graph, and the sharp even family.

For a connected graph G with diam G = d >= 3, the 2-distance graph G2
either is disconnected or satisfies ceil(d/2) <= diam G2 <= d + 2.
``check_bounds`` classifies a graph against that statement;
``family_graph`` builds the family attaining the upper bound d + 2 for
every even d >= 4.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .graphs import MAX_VERTICES, Graph, diameter_pair, from_edge_list

HOLDS = "Holds"
HOLDS_VACUOUSLY = "HoldsVacuously"
NOT_APPLICABLE = "NotApplicable"
VIOLATION = "VIOLATION"


class BoundReport(NamedTuple):
    d: int | float
    d2: int | float
    lower: int | None
    upper: int | None
    verdict: str


def check_bounds(g: Graph) -> BoundReport:
    """Classify g against the 2-distance diameter bounds.

    ``NotApplicable`` when diam G is infinite or below 3,
    ``HoldsVacuously`` when G2 is disconnected, otherwise ``Holds`` or
    ``VIOLATION`` against ceil(d/2) <= diam G2 <= d + 2.
    """
    d, d2 = diameter_pair(g)
    if math.isinf(d) or d < 3:
        return BoundReport(d, d2, None, None, NOT_APPLICABLE)
    lower = -(-d // 2)
    upper = d + 2
    if math.isinf(d2):
        return BoundReport(d, d2, lower, upper, HOLDS_VACUOUSLY)
    verdict = HOLDS if lower <= d2 <= upper else VIOLATION
    return BoundReport(d, d2, lower, upper, verdict)


# The largest even k with 2k + 1 <= MAX_VERTICES.
FAMILY_MAX_K = (MAX_VERTICES - 1) // 4 * 2


def family_graph(k: int) -> Graph:
    """Extremal witness for even k >= 4: a 2k-cycle plus one apex vertex.

    The apex (vertex 2k) is adjacent to the consecutive cycle vertices 0
    and 1, closing a single triangle.  The result has 2k + 1 vertices,
    diameter k, and 2-distance diameter k + 2.
    """
    if not isinstance(k, int) or not 4 <= k <= FAMILY_MAX_K or k % 2:
        raise ValueError(f"family is defined for even k in 4..{FAMILY_MAX_K}, got {k!r}")
    edges = [(i, (i + 1) % (2 * k)) for i in range(2 * k)]
    edges += [(2 * k, 0), (2 * k, 1)]
    return from_edge_list(2 * k + 1, edges)

