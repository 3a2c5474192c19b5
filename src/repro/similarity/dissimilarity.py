"""The paper's two MCS-based graph dissimilarities.

Eq. (1), after Bunke & Shearer [1]:

    δ1(q, g) = 1 − |E(mcs(q, g))| / max(|E(q)|, |E(g)|)

Eq. (2), after Zhu et al. [2]:

    δ2(q, g) = 1 − 2 |E(mcs(q, g))| / (|E(q)| + |E(g)|)

Both are symmetric and live in ``[0, 1]``.  The experiments follow the
paper and default to δ2 ("we use Eq.(2) as δ ... results of Eq.(1) are
similar").
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.isomorphism.mcs import mcs_edge_count

DissimilarityName = str  # "delta1" | "delta2"


def delta1(q: LabeledGraph, g: LabeledGraph, mcs_edges: Optional[int] = None) -> float:
    """Eq. (1): normalised by the larger graph.

    *mcs_edges* may be supplied when the caller already computed
    ``|E(mcs(q, g))|`` (the cache does this) to avoid recomputation.
    """
    denom = max(q.num_edges, g.num_edges)
    if denom == 0:
        return 0.0
    if mcs_edges is None:
        mcs_edges = mcs_edge_count(q, g)
    return 1.0 - mcs_edges / denom


def delta2(q: LabeledGraph, g: LabeledGraph, mcs_edges: Optional[int] = None) -> float:
    """Eq. (2): normalised by the average size of the two graphs."""
    denom = q.num_edges + g.num_edges
    if denom == 0:
        return 0.0
    if mcs_edges is None:
        mcs_edges = mcs_edge_count(q, g)
    return 1.0 - 2.0 * mcs_edges / denom


_DISSIMILARITIES: Dict[str, Callable] = {"delta1": delta1, "delta2": delta2}


def dissimilarity(
    name: DissimilarityName, q: LabeledGraph, g: LabeledGraph,
    mcs_edges: Optional[int] = None,
) -> float:
    """Dispatch δ by *name* ("delta1" or "delta2")."""
    try:
        fn = _DISSIMILARITIES[name]
    except KeyError:
        raise ValueError(
            f"unknown dissimilarity {name!r}; expected one of {sorted(_DISSIMILARITIES)}"
        ) from None
    return fn(q, g, mcs_edges)


class DissimilarityCache:
    """Memoises MCS edge counts between graphs of one or two collections.

    MCS is by far the most expensive operation in the pipeline (NP-hard);
    both the exact top-k engine and the DSPM objective need repeated
    lookups of the same pairs, so one shared cache pays off immediately.

    Keys are ``id()``-based, and each entry holds its two graphs.  A
    graph's ``id`` is reused once the graph is freed, so an entry that
    did not keep its graphs alive could answer for a graph built later
    at the same address (a re-selection drops a removed row's graph
    but keeps its cache).
    """

    def __init__(self, name: DissimilarityName = "delta2") -> None:
        if name not in _DISSIMILARITIES:
            raise ValueError(f"unknown dissimilarity {name!r}")
        self.name = name
        self._mcs_cache: Dict[
            Tuple[int, int], Tuple[LabeledGraph, LabeledGraph, int]
        ] = {}
        self.hits = 0
        self.misses = 0

    def mcs_edges(self, a: LabeledGraph, b: LabeledGraph) -> int:
        key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
        entry = self._mcs_cache.get(key)
        if entry is not None:
            self.hits += 1
            return entry[2]
        self.misses += 1
        value = mcs_edge_count(a, b)
        self._mcs_cache[key] = (a, b, value)
        return value

    def __call__(self, a: LabeledGraph, b: LabeledGraph) -> float:
        return dissimilarity(self.name, a, b, self.mcs_edges(a, b))

    def __len__(self) -> int:
        return len(self._mcs_cache)
