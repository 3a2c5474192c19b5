"""Seeded workload generators: databases, indexes, query pools, updates.

Everything here goes through the public library API (``repro``,
``repro.core``, ``repro.index``, ``repro.graph``,
``repro.serving.protocol``) — never a ``repro.*.bench`` module, which
are slated for deletion.

Each workload's database is a fixed dataset (``DATASET_SEED``), as the
paper's PubChem sample is; ``--seed`` reseeds the traffic — query pool,
request order, update graphs and picks.  Reseeding the database too
made two seeds two different workloads: the mined patterns and the
DSPMap selection moved ``chem_unique``'s throughput by ±15 % and its
set-up time by 2×, far outside any bound a regression check could use.

Why each workload exists is recorded in ``BENCHMARK.json``; the sizes
below are what fits the driver's time cap (see ``README.md``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    DSPMap,
    DissimilarityCache,
    FeatureSpace,
    FrequentSubgraph,
    LabeledGraph,
    chemical_database,
    chemical_query_set,
    mine_frequent_subgraphs,
    save_index,
)
from repro.core.mapping import mapping_from_selection
from repro.serving.protocol import graph_to_wire

from spans import Tracer

#: ``k`` of every query.
K = 10
#: Seed of every workload's database and of DSPMap's own sampling.
DATASET_SEED = 2014
#: gSpan support threshold of the chemical recipes (the paper's τ = 5 %).
MIN_SUPPORT = 0.05
#: Graphs added and removed by one ``update`` op (n stays constant).
UPDATE_SIZE = 4
#: Clustered-vector generator shape (the block structure DSPMap
#: partitions produce on real data, without paying mining or VF2).
CLUSTERS = 8
DIMS_PER_CLUSTER = 16
FILL = 0.85
NOISE = 0.02

#: Search objects ``vector_mix`` cycles through, one per request.
MIXED_POLICIES: Tuple[Optional[Dict], ...] = (
    None,
    None,
    {"mode": "approx", "nprobe": "auto"},
    {"mode": "approx", "nprobe": 2},
    {"mode": "graph"},
)


@dataclass(frozen=True)
class Workload:
    """One served traffic mix and the index it runs against."""

    name: str
    #: ``dspmap`` (the paper pipeline), ``variance`` (mined features,
    #: top-p by column variance) or ``vectors`` (clustered binary rows).
    recipe: str
    #: Database graphs (chemical recipes) or rows per cluster (vectors).
    rows: int
    #: ``p``, the number of selected dimensions.
    features: int
    #: Distinct queries in the pool.
    pool: int
    #: Zipf(s=1.1) request order over the pool instead of cycling it.
    zipf: bool = False
    #: The pool fits the server's 1024-entry embedding cache.
    cached: bool = True
    shards: int = 4
    #: DSPMap block size ``b`` (``dspmap`` recipe only).
    partition: int = 0
    #: ``update`` ops per second sent beside the reads (0 = none).
    writer_hz: float = 0.0
    policies: Tuple[Optional[Dict], ...] = (None,)
    #: Largest mined pattern, in edges (chemical recipes).
    pattern_edges: int = 7


FULL: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("chem_unique", "dspmap", rows=60, features=200, pool=2048,
                 cached=False, partition=6),
        Workload("chem_zipf", "variance", rows=600, features=200, pool=256,
                 zipf=True),
        Workload("vector_mix", "vectors", rows=500, features=128, pool=512,
                 shards=8, policies=MIXED_POLICIES),
        Workload("churn_rw", "variance", rows=600, features=200, pool=256,
                 zipf=True, writer_hz=5.0),
    )
}

#: Tiny sizes for ``--smoke`` (the tier-1 smoke test): same code paths.
SMOKE: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("chem_unique", "dspmap", rows=12, features=24, pool=64,
                 cached=False, partition=4, pattern_edges=3),
        Workload("chem_zipf", "variance", rows=40, features=24, pool=32,
                 zipf=True, pattern_edges=3),
        Workload("vector_mix", "vectors", rows=24, features=128, pool=32,
                 shards=8, policies=MIXED_POLICIES),
        Workload("churn_rw", "variance", rows=40, features=24, pool=32,
                 zipf=True, writer_hz=20.0, pattern_edges=3),
    )
}


def subseed(seed: int, stream: int) -> int:
    """An independent seed for one input stream of a run."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


# ----------------------------------------------------------------------
# databases and indexes
# ----------------------------------------------------------------------
def variance_selection(space: FeatureSpace, p: int) -> List[int]:
    """Top-p features by binary-column variance ``s(n − s)``.

    DSPM's preference for discriminative mid-support features without
    a δ matrix; ties break by feature index.
    """
    s = space.support_counts.astype(np.int64)
    order = np.lexsort((np.arange(space.m), -(s * (space.n - s))))
    return [int(r) for r in order[: min(p, space.m)]]


def cluster_rows(clusters: np.ndarray, seed: int) -> np.ndarray:
    """One binary row per entry of *clusters* (its cluster id).

    Cluster ``c`` sets its own 16 dimensions with probability ``FILL``
    and every other dimension with probability ``NOISE``.
    """
    rng = np.random.default_rng(seed)
    p = CLUSTERS * DIMS_PER_CLUSTER
    rows = rng.random((len(clusters), p)) < NOISE
    for i, c in enumerate(clusters):
        lo = int(c) * DIMS_PER_CLUSTER
        rows[i, lo : lo + DIMS_PER_CLUSTER] = (
            rng.random(DIMS_PER_CLUSTER) < FILL
        )
    return rows


def rotating_rows(count: int, seed: int) -> np.ndarray:
    """*count* rows whose clusters rotate row by row (queries, adds)."""
    return cluster_rows(np.arange(count) % CLUSTERS, seed)


def vector_graph(row: np.ndarray, graph_id: str) -> LabeledGraph:
    """A binary row as an edge-less graph of ``dim{j}`` vertices.

    Each dimension of the vector index is a single-vertex pattern, so
    φ of this graph is the row itself.
    """
    return LabeledGraph(
        [f"dim{j}" for j in np.flatnonzero(row)], graph_id=graph_id
    )


def _vector_mapping(workload: Workload, seed: int):
    n = CLUSTERS * workload.rows
    # One contiguous block per cluster, so `serve --shards 8` shards
    # coincide with clusters: the layout shard skipping is built for.
    rows = cluster_rows(np.repeat(np.arange(CLUSTERS), workload.rows), seed)
    features = [
        FrequentSubgraph(
            LabeledGraph([f"dim{j}"], graph_id=f"dim{j}"),
            {int(i) for i in np.flatnonzero(rows[:, j])},
        )
        for j in range(rows.shape[1])
    ]
    space = FeatureSpace(features, n)
    return mapping_from_selection(space, list(range(rows.shape[1])))


def build_index(
    workload: Workload, path: Path, tracer: Tracer
) -> Dict[str, float]:
    """The workload's offline pipeline, ending in a paged artifact.

    Returns the offline counts the per-layer report needs (zero for the
    layers this recipe does not run).
    """
    info = {"patterns": 0, "delta_evals": 0, "dspm_runs": 0, "rows": 0}
    if workload.recipe == "vectors":
        with tracer.span("workload.generate"):
            mapping = _vector_mapping(workload, DATASET_SEED)
    else:
        with tracer.span("workload.generate"):
            db = chemical_database(workload.rows, seed=DATASET_SEED)
        with tracer.span("mining.mine"):
            features = mine_frequent_subgraphs(
                db, min_support=MIN_SUPPORT, max_edges=workload.pattern_edges
            )
        info["patterns"] = len(features)
        space = FeatureSpace(features, len(db))
        if workload.recipe == "dspmap":
            selector = DSPMap(
                workload.features,
                partition_size=workload.partition,
                seed=DATASET_SEED,
            )
            # A fresh in-memory cache: the MCS work is this workload's
            # set-up cost, so it must never be read back from disk.
            cache = DissimilarityCache("delta2")
            with tracer.span("dspmap.fit") as fit:

                def timed_delta(i: int, j: int) -> float:
                    start = time.perf_counter()
                    value = cache(db[i], db[j])
                    tracer.record(
                        "similarity.delta", start, time.perf_counter(), fit
                    )
                    return value

                selected = selector.fit(
                    space,
                    db,
                    dissimilarity=cache,
                    delta_fn=timed_delta if tracer.enabled else None,
                ).selected
            info["delta_evals"] = selector.delta_evaluations_
            info["dspm_runs"] = selector.dspm_runs_
        else:
            selected = variance_selection(space, workload.features)
        mapping = mapping_from_selection(space, selected)
    info["rows"] = mapping.space.n
    with tracer.span("engine.lattice_build"):
        mapping.query_engine()
    if workload.recipe == "vectors":
        # Persisted, so the server attaches the graph instead of
        # building it on the first graph-mode query.
        with tracer.span("proximity.build"):
            mapping.proximity_graph()
    with tracer.span("artifact.save"):
        save_index(mapping, path, layout="paged")
    return info


# ----------------------------------------------------------------------
# queries and request lines
# ----------------------------------------------------------------------
def query_pool(workload: Workload, seed: int) -> List[LabeledGraph]:
    """The workload's distinct query graphs."""
    if workload.recipe == "vectors":
        rows = rotating_rows(workload.pool, subseed(seed, 2))
        return [vector_graph(row, f"q{i}") for i, row in enumerate(rows)]
    pool: List[LabeledGraph] = []
    seen = set()
    draw = 0
    # Structurally equal draws would turn a "miss" stream into hits.
    while len(pool) < workload.pool:
        batch = chemical_query_set(
            workload.pool, seed=subseed(seed, 100 + draw)
        )
        draw += 1
        for g in batch:
            wire = graph_to_wire(g)
            key = json.dumps([wire["vertices"], wire["edges"]])
            if key not in seen and len(pool) < workload.pool:
                seen.add(key)
                pool.append(g)
    return pool


def request_tails(
    pool: Sequence[LabeledGraph], policies: Sequence[Optional[Dict]]
) -> List[List[bytes]]:
    """Per policy, per pool entry: a ``query`` line minus its ``id``.

    :func:`request_line` splices the id in, so the client's per-request
    cost is one bytes join, not a JSON encode.
    """
    tails: List[List[bytes]] = []
    for policy in policies:
        per_policy = []
        for g in pool:
            body = {"op": "query", "k": K, "graph": graph_to_wire(g)}
            if policy is not None:
                body["search"] = policy
            per_policy.append(json.dumps(body)[1:].encode() + b"\n")
        tails.append(per_policy)
    return tails


def request_line(request_id: int, tail: bytes) -> bytes:
    return b'{"id":%d,' % request_id + tail


def request_order(workload: Workload, seed: int) -> np.ndarray:
    """Pool indices in request order (cycled when it runs out)."""
    if not workload.zipf:
        return np.arange(workload.pool)
    weights = 1.0 / np.arange(1, workload.pool + 1) ** 1.1
    rng = np.random.default_rng(subseed(seed, 3))
    return rng.choice(
        workload.pool, size=1 << 16, p=weights / weights.sum()
    )


# ----------------------------------------------------------------------
# updates
# ----------------------------------------------------------------------
def update_plan(
    workload: Workload, seed: int, count: int, n_rows: int
) -> List[Tuple[List[LabeledGraph], List[int]]]:
    """*count* updates: each adds 4 fresh graphs and removes 4 live ids."""
    total = count * UPDATE_SIZE
    if workload.recipe == "vectors":
        rows = rotating_rows(total, subseed(seed, 4))
        fresh = [vector_graph(row, f"add{i}") for i, row in enumerate(rows)]
    else:
        fresh = chemical_database(
            total, seed=subseed(seed, 4), id_prefix="add"
        )
    rng = np.random.default_rng(subseed(seed, 5))
    plan = []
    for i in range(count):
        removed = rng.choice(n_rows, size=UPDATE_SIZE, replace=False)
        plan.append((
            fresh[i * UPDATE_SIZE : (i + 1) * UPDATE_SIZE],
            sorted(int(r) for r in removed),
        ))
    return plan


@dataclass(frozen=True)
class Traffic:
    """Everything ``--seed`` decides for one run."""

    pool: List[LabeledGraph]
    #: Per policy, per pool entry: the request line minus its id.
    tails: List[List[bytes]]
    #: Pool indices in request order.
    order: np.ndarray
    plan: List[Tuple[List[LabeledGraph], List[int]]]


def traffic(workload: Workload, seed: int, updates: int, n_rows: int) -> Traffic:
    pool = query_pool(workload, seed)
    return Traffic(
        pool=pool,
        tails=request_tails(pool, workload.policies),
        order=request_order(workload, seed),
        plan=update_plan(workload, seed, updates, n_rows),
    )


def update_line(
    request_id: int, added: Sequence[LabeledGraph], removed: Sequence[int]
) -> bytes:
    body = {
        "id": request_id,
        "op": "update",
        "add": [graph_to_wire(g) for g in added],
        "remove": list(removed),
    }
    return json.dumps(body).encode() + b"\n"
