"""Clustered binary-vector indexes for the search-tier tests.

The index is built from raw clustered binary vectors — one trivial
single-vertex pattern per dimension — so the pruning, routing, graph
and kernel tiers can be exercised at a few thousand rows without
paying mining or VF2.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.core.mapping import DSPreservedMapping, mapping_from_selection
from repro.features.binary_matrix import FeatureSpace
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.gspan import FrequentSubgraph


def clustered_vector_index(
    n_clusters: int,
    per_cluster: int,
    dims_per_cluster: int,
    fill: float = 0.85,
    noise: float = 0.02,
    seed: int = 0,
) -> Tuple[DSPreservedMapping, List[np.ndarray]]:
    """A mapping over clustered binary vectors, plus its cluster blocks.

    Cluster ``c`` owns dimensions ``c*dims_per_cluster ..`` and its rows
    set those with probability *fill* and every other dimension with
    probability *noise* — the block structure DSPMap partitions produce
    on real data, without paying mining or VF2.  Each dimension is a
    distinct single-vertex pattern, so the mapping is a fully regular
    index (engine, artifact, service all work on it).
    """
    if n_clusters < 1 or per_cluster < 1 or dims_per_cluster < 1:
        raise ValueError("cluster shape parameters must be >= 1")
    if not (0.0 <= noise <= 1.0 and 0.0 < fill <= 1.0):
        raise ValueError("fill/noise must be probabilities")
    rng = np.random.default_rng(seed)
    p = n_clusters * dims_per_cluster
    n = n_clusters * per_cluster
    vectors = (rng.random((n, p)) < noise).astype(float)
    for c in range(n_clusters):
        rows = slice(c * per_cluster, (c + 1) * per_cluster)
        cols = slice(c * dims_per_cluster, (c + 1) * dims_per_cluster)
        vectors[rows, cols] = (
            rng.random((per_cluster, dims_per_cluster)) < fill
        ).astype(float)
    features = [
        FrequentSubgraph(
            LabeledGraph([f"dim{j}"], graph_id=f"dim{j}"),
            {int(i) for i in np.flatnonzero(vectors[:, j])},
        )
        for j in range(p)
    ]
    space = FeatureSpace(features, n)
    mapping = mapping_from_selection(space, list(range(p)))
    blocks = [
        np.arange(c * per_cluster, (c + 1) * per_cluster, dtype=np.int64)
        for c in range(n_clusters)
    ]
    return mapping, blocks


def clustered_query_vectors(
    query_count: int,
    n_clusters: int,
    dims_per_cluster: int,
    fill: float = 0.85,
    noise: float = 0.02,
    seed: int = 1,
    block_size: Optional[int] = None,
) -> np.ndarray:
    """Query vectors drawn from the cluster distributions.

    Clusters rotate per query; with *block_size*, consecutive blocks of
    that many queries share a cluster instead — the shape of real
    tenant traffic (a user's session stays in one neighbourhood), and
    the case where whole shard blocks get skipped rather than thinned.
    """
    rng = np.random.default_rng(seed)
    p = n_clusters * dims_per_cluster
    vectors = (rng.random((query_count, p)) < noise).astype(float)
    for qi in range(query_count):
        c = (qi // block_size if block_size else qi) % n_clusters
        cols = slice(c * dims_per_cluster, (c + 1) * dims_per_cluster)
        vectors[qi, cols] = (rng.random(dims_per_cluster) < fill).astype(
            float
        )
    return vectors
