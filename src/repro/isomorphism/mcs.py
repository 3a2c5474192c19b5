"""Exact maximum common (edge) subgraph via branch-and-bound max clique.

``mcs(g1, g2)`` in the paper is the common subgraph with the largest edge
count (Bunke/Shearer style, Eq. 1 / Eq. 2 divide by ``|E(mcs)|``).  We
reduce MCES to maximum clique on the edge product graph
(:mod:`repro.isomorphism.product_graph`) and solve the clique problem with
a Tomita-style branch and bound:

* the product is built with array ops and arrives numbered by degree,
  highest first (Tomita's MCQ initial order), which is the order the
  greedy colouring visits candidates in,
* candidate sets are Python-integer bitsets (cheap AND/population count),
* a greedy coloring of the candidate set provides the pruning bound,
* search stops early once the clique reaches ``min(|E1|, |E2|)``, the
  trivial upper bound for a common subgraph.

This is exponential in the worst case (MCS is NP-hard) but comfortably
handles the 10–20 vertex graphs the paper's datasets contain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.isomorphism.product_graph import build_edge_product


@dataclass
class MCSResult:
    """Outcome of a maximum-common-subgraph computation.

    Attributes
    ----------
    edge_count:
        ``|E(mcs(g1, g2))|``.
    vertex_mapping:
        One optimal partial vertex mapping ``g1 vertex -> g2 vertex``
        covering the common subgraph (empty when ``edge_count == 0``).
    edge_pairs:
        The matched ``(edge index in g1, edge index in g2)`` pairs.
    """

    edge_count: int
    vertex_mapping: Dict[int, int]
    edge_pairs: List[Tuple[int, int]]


def _greedy_color_order(candidates: int, adj: List[int]) -> Tuple[List[int], List[int]]:
    """Greedy coloring of the candidate bitset.

    Returns vertices ordered by color class and the color number (1-based)
    of each — the classic bound: a clique inside the candidate set cannot
    exceed the number of colors used up to a vertex.
    """
    order: List[int] = []
    bounds: List[int] = []
    color = 0
    remaining = candidates
    while remaining:
        color += 1
        available = remaining
        while available:
            v = (available & -available).bit_length() - 1
            order.append(v)
            bounds.append(color)
            available &= ~adj[v]
            available &= ~(1 << v)
            remaining &= ~(1 << v)
    return order, bounds


def _max_clique(adj: List[int], upper_cap: int) -> List[int]:
    """Largest clique of the bitmask graph *adj*, early-exiting at *upper_cap*."""
    n = len(adj)
    if n == 0:
        return []
    best: List[int] = []
    current: List[int] = []

    def expand(candidates: int) -> bool:
        """Return True to abort the whole search (cap reached)."""
        nonlocal best
        order, bounds = _greedy_color_order(candidates, adj)
        for idx in range(len(order) - 1, -1, -1):
            if len(current) + bounds[idx] <= len(best):
                return False
            v = order[idx]
            current.append(v)
            new_candidates = candidates & adj[v]
            if new_candidates:
                if expand(new_candidates):
                    return True
            elif len(current) > len(best):
                best = list(current)
                if len(best) >= upper_cap:
                    current.pop()
                    return True
            current.pop()
            candidates &= ~(1 << v)
        return False

    expand((1 << n) - 1)
    return best


def maximum_common_subgraph(g1: LabeledGraph, g2: LabeledGraph) -> MCSResult:
    """Compute the exact MCES of *g1* and *g2*.

    Identical graphs short-circuit (``mcs(g, g) = g``), otherwise the edge
    product graph is built and its maximum clique extracted.
    """
    if g1.num_edges == 0 or g2.num_edges == 0:
        return MCSResult(0, {}, [])
    if g1 == g2:
        mapping = {v: v for v in range(g1.num_vertices)}
        pairs = [(i, i) for i in range(g1.num_edges)]
        return MCSResult(g1.num_edges, mapping, pairs)

    vertices, adj = build_edge_product(g1, g2)
    cap = min(g1.num_edges, g2.num_edges)
    clique = _max_clique(adj, cap)

    mapping: Dict[int, int] = {}
    pairs: List[Tuple[int, int]] = []
    for pv in clique:
        i, j, (a, b), (x, y) = vertices[pv]
        mapping[a] = x
        mapping[b] = y
        pairs.append((i, j))
    return MCSResult(len(clique), mapping, pairs)


def mcs_edge_count(g1: LabeledGraph, g2: LabeledGraph) -> int:
    """``|E(mcs(g1, g2))|`` — the quantity Eq. 1 / Eq. 2 need."""
    return maximum_common_subgraph(g1, g2).edge_count
