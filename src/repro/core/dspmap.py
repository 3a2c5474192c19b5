"""DSPMap — the scalable approximate selector (Algorithms 5–6).

DSPM needs the full ``n × n`` dissimilarity matrix and an ``n × m``
configuration — quadratic memory and (via MCS) a quadratic number of
NP-hard dissimilarity computations.  DSPMap avoids both:

1. **Partition** (Algorithm 7, :mod:`repro.core.partition`): split the
   database into ``np = ceil(n/b)`` blocks of similar graphs.
2. **Computec** (Algorithm 6): recurse over the block list.  A single
   block runs plain DSPM restricted to the features present in the block
   (``F'``).  An internal node recurses into its left and right halves,
   then runs one extra DSPM on a *bridge sample*: ``b`` graphs drawn from
   one random left block plus one random right block — this stitches the
   weight information across the split.  Weight vectors are summed.

Only pairs inside a block (or bridge sample) ever need a dissimilarity, so
the number of MCS computations drops from ``O(n²)`` to ``O(n · b)`` and
memory to ``O(b · (b + m'))`` (Theorem 5.3).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.dspm import DSPM, DSPMResult
from repro.core.mapping import DSPreservedMapping
from repro.core.partition import partition_database
from repro.features.binary_matrix import FeatureSpace
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.gspan import FrequentSubgraph
from repro.similarity.dissimilarity import DissimilarityCache
from repro.utils.errors import SelectionError
from repro.utils.rng import RngLike, ensure_rng

# Computes δ(g_i, g_j) from database indices; DSPMap only ever calls it
# for index pairs inside one partition/bridge sample.
DeltaFn = Callable[[int, int], float]


class DSPMap:
    """Approximate DS-preserved feature selection for large databases.

    Parameters
    ----------
    num_features:
        ``p`` — dimensions to keep.
    partition_size:
        ``b`` — the block size (the paper sweeps 20..100; quality
        approaches DSPM as ``b`` grows).
    tolerance / max_iterations:
        Forwarded to the inner DSPM runs.
    num_samples:
        ``no`` for the partitioner's 2-means seeding.
    balance:
        Algorithm 7 line-10 re-balancing (ablatable).
    seed:
        Drives partition sampling and bridge-sample draws.
    """

    def __init__(
        self,
        num_features: int,
        partition_size: int = 50,
        tolerance: float = 1e-5,
        max_iterations: int = 100,
        num_samples: int = 8,
        balance: bool = True,
        seed: RngLike = None,
    ) -> None:
        if num_features < 1:
            raise SelectionError("num_features must be >= 1")
        if partition_size < 2:
            raise SelectionError("partition_size must be >= 2")
        self.num_features = num_features
        self.partition_size = partition_size
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.num_samples = num_samples
        self.balance = balance
        self._rng = ensure_rng(seed)
        # Diagnostics filled by fit():
        self.partitions_: List[np.ndarray] = []
        self.dspm_runs_: int = 0
        self.delta_evaluations_: int = 0

    # ------------------------------------------------------------------
    def fit(
        self,
        space: FeatureSpace,
        graphs: Sequence[LabeledGraph],
        dissimilarity: Optional[DissimilarityCache] = None,
        delta_fn: Optional[DeltaFn] = None,
    ) -> DSPMResult:
        """Run DSPMap and return a :class:`DSPMResult`.

        Either a :class:`DissimilarityCache` (δ computed on demand from
        the graphs) or an explicit *delta_fn* must be supplied.
        """
        if delta_fn is None:
            # NB: "dissimilarity or ..." would discard an *empty* cache
            # (DissimilarityCache defines __len__, so a fresh one is falsy).
            cache = dissimilarity if dissimilarity is not None else DissimilarityCache()

            def delta_fn(i: int, j: int) -> float:  # noqa: ANN001
                return cache(graphs[i], graphs[j])

        n = space.n
        if len(graphs) != n:
            raise SelectionError("graphs and feature space disagree on n")

        self.partitions_ = partition_database(
            space.incidence,
            self.partition_size,
            num_samples=self.num_samples,
            seed=self._rng,
            balance=self.balance,
        )
        self.dspm_runs_ = 0
        self.delta_evaluations_ = 0

        weights = self._computec(self.partitions_, space, delta_fn)

        order = np.argsort(-weights, kind="stable")
        p = min(self.num_features, space.m)
        selected = [int(r) for r in order[:p]]
        norm = float(np.sqrt((weights**2).sum()))
        if norm > 0:
            weights = weights / norm
        return DSPMResult(selected=selected, weights=weights, converged=True)

    # ------------------------------------------------------------------
    # Algorithm 6
    # ------------------------------------------------------------------
    def _computec(
        self,
        blocks: List[np.ndarray],
        space: FeatureSpace,
        delta_fn: DeltaFn,
    ) -> np.ndarray:
        if len(blocks) == 1:
            return self._dspm_on(blocks[0], space, delta_fn)

        mid = -(-len(blocks) // 2)  # ceil(np / 2): the paper's Pl
        left = blocks[:mid]
        right = blocks[mid:]
        c_left = self._computec(left, space, delta_fn)
        c_right = self._computec(right, space, delta_fn)

        # Bridge sample: b graphs from one random left + one random right block.
        block_l = left[int(self._rng.integers(0, len(left)))]
        block_r = right[int(self._rng.integers(0, len(right)))]
        pool = np.concatenate([block_l, block_r])
        size = min(self.partition_size, len(pool))
        bridge = self._rng.choice(pool, size=size, replace=False)
        c_bridge = self._dspm_on(np.sort(bridge), space, delta_fn)

        return c_left + c_right + c_bridge

    # ------------------------------------------------------------------
    # partition membership under database mutations
    # ------------------------------------------------------------------
    def remove_from_partitions(self, indices: Sequence[int]) -> None:
        """Track a database removal in the partition blocks.

        Mirrors :meth:`DSPreservedMapping.remove_graphs
        <repro.core.mapping.DSPreservedMapping.remove_graphs>`: the
        removed ids are dropped and every surviving id is shifted down
        by the number of removed ids below it, so ``partitions_`` keeps
        partitioning ``0..n'-1`` exactly (blocks emptied by the removal
        disappear).  Call with the same *indices*, in the same order,
        as the mapping mutation.
        """
        if not self.partitions_:
            raise SelectionError("fit() must run before partition updates")
        removed = np.asarray(sorted({int(i) for i in indices}), dtype=np.int64)
        if removed.size == 0:
            return
        blocks: List[np.ndarray] = []
        for block in self.partitions_:
            block = np.asarray(block, dtype=np.int64)
            surviving = block[~np.isin(block, removed)]
            if surviving.size:
                blocks.append(
                    np.sort(surviving - np.searchsorted(removed, surviving))
                )
        self.partitions_ = blocks

    def assign_to_partitions(
        self, space: FeatureSpace, new_ids: Sequence[int]
    ) -> List[int]:
        """Assign freshly added graphs to their most similar blocks.

        For each id in *new_ids* (rows already appended to *space*), the
        block with the smallest mean Hamming distance between the new
        graph's incidence row and the block members' rows absorbs it —
        the same similarity signal Algorithm 7 partitions by, without
        re-running the partitioner.  Returns the chosen block index per
        new id.
        """
        if not self.partitions_:
            raise SelectionError("fit() must run before partition updates")
        assigned = {int(i) for block in self.partitions_ for i in block}
        # One incidence slice per block, reused across all new graphs;
        # only the absorbing block's rows grow per assignment.
        block_rows = [
            space.incidence[np.asarray(block, dtype=np.int64)].astype(float)
            for block in self.partitions_
        ]
        choices: List[int] = []
        for gid in new_ids:
            gid = int(gid)
            if not 0 <= gid < space.n:
                raise SelectionError(
                    f"new id {gid} outside database of size {space.n}"
                )
            if gid in assigned:
                raise SelectionError(f"id {gid} is already partitioned")
            row = space.incidence[gid].astype(float)
            best = min(
                range(len(block_rows)),
                key=lambda bi: float(
                    np.abs(block_rows[bi] - row).sum(axis=1).mean()
                ),
            )
            self.partitions_[best] = np.sort(
                np.append(self.partitions_[best], gid).astype(np.int64)
            )
            block_rows[best] = np.vstack([block_rows[best], row[None, :]])
            assigned.add(gid)
            choices.append(best)
        return choices

    # ------------------------------------------------------------------
    # partition routing (the approximate serving tier)
    # ------------------------------------------------------------------
    def route_queries(
        self,
        mapping: DSPreservedMapping,
        query_vectors: np.ndarray,
        nprobe: int,
    ) -> np.ndarray:
        """The *nprobe* most similar partition blocks per query vector.

        For each row of *query_vectors* (a φ(q) over *mapping*'s
        selected features), returns the indices into
        :attr:`partitions_` of the ``nprobe`` blocks whose embedding
        centroids are closest, nearest first (ties broken by ascending
        block index).  This is the routing signal of the approximate
        serving tier: a :class:`~repro.serving.service.QueryService`
        built over ``shards=self.partitions_`` makes the same choice
        for ``SearchPolicy(mode="approx", nprobe=...)``, because both
        derive the same :class:`~repro.query.pruning.ShardSummary` per
        block from the same rows.
        """
        from repro.query.pruning import (
            ShardSummary,
            shard_centroid_distances,
        )

        if not self.partitions_:
            raise SelectionError("fit() must run before route_queries()")
        if nprobe < 1:
            raise SelectionError("nprobe must be >= 1")
        summaries = [
            ShardSummary.from_vectors(mapping.database_vectors[block])
            for block in self.partitions_  # ascending, like a shard's rows
        ]
        distances = shard_centroid_distances(
            np.asarray(query_vectors, dtype=float), summaries
        )
        nprobe = min(int(nprobe), len(summaries))
        return np.argsort(distances, axis=1, kind="stable")[:, :nprobe]

    # ------------------------------------------------------------------
    # partition-local online structures
    # ------------------------------------------------------------------
    def block_mappings(
        self, mapping: DSPreservedMapping
    ) -> List[DSPreservedMapping]:
        """Per-partition sub-mappings over each block's restricted features.

        For every partition block of the last :meth:`fit`, build a
        mapping whose database is the block's rows and whose dimensions
        are the block's *restricted feature set* ``F'`` (the features of
        *mapping*'s selection actually present in the block — the same
        restriction Algorithm 6 applies offline).  Each sub-mapping gets
        its engine pre-attached with a **per-partition lattice**: the
        parent engine's containment DAG projected onto ``F'``, plus the
        parent's pattern profiles — so constructing every block engine
        costs zero VF2 calls.

        These power partition-local search (distances are normalised by
        ``|F'|``, the block's own dimensionality) and partition-sharded
        serving diagnostics.  For globally exact answers over the whole
        database, pass ``self.partitions_`` as the ``shards`` of a
        :class:`~repro.serving.service.QueryService` instead.
        """
        if not self.partitions_:
            raise SelectionError("fit() must run before block_mappings()")
        # The caller's contract: *mapping* is built over the same database
        # fit() partitioned.  Only the row count is verifiable from here;
        # it catches the size-mismatch misuse loudly.
        if sum(len(block) for block in self.partitions_) != mapping.space.n:
            raise SelectionError(
                f"partition rows ({sum(len(b) for b in self.partitions_)}) "
                f"and mapping.space.n ({mapping.space.n}) disagree — the "
                "mapping must index the database fit() partitioned"
            )
        engine = mapping.query_engine()
        parent_features = mapping.selected_features()
        out: List[DSPreservedMapping] = []
        for block in self.partitions_:
            rows = np.asarray(sorted(int(i) for i in block), dtype=np.int64)
            sub_vectors = mapping.database_vectors[rows]
            present = [
                int(r) for r in np.flatnonzero(sub_vectors.sum(axis=0) > 0)
            ]
            if not present:
                # A block matching no selected feature keeps the full
                # selection (all-zero rows; any feature set is as good).
                present = list(range(mapping.dimensionality))
            features = [
                FrequentSubgraph(
                    parent_features[pos].graph,
                    {int(i) for i in np.flatnonzero(sub_vectors[:, pos])},
                )
                for pos in present
            ]
            block_space = FeatureSpace(features, len(rows))
            sub_mapping = DSPreservedMapping(
                space=block_space,
                selected=list(range(len(features))),
                database_vectors=np.ascontiguousarray(
                    sub_vectors[:, present], dtype=float
                ),
            )
            sub_mapping._build_engine(
                lattice=engine.lattice.restrict(present),
                pattern_profiles=[
                    engine._pattern_profiles[pos] for pos in present
                ],
            )
            out.append(sub_mapping)
        return out

    def _dspm_on(
        self,
        indices: np.ndarray,
        space: FeatureSpace,
        delta_fn: DeltaFn,
    ) -> np.ndarray:
        """Run DSPM on a block, restricted to features present in it (F')."""
        sub_Y_full = space.incidence[indices].astype(float)
        present = np.flatnonzero(sub_Y_full.sum(axis=0) > 0)
        weights = np.zeros(space.m)
        if present.size == 0 or len(indices) < 2:
            return weights
        sub_Y = sub_Y_full[:, present]

        k = len(indices)
        delta = np.zeros((k, k))
        for a in range(k):
            for b_ in range(a + 1, k):
                value = delta_fn(int(indices[a]), int(indices[b_]))
                delta[a, b_] = value
                delta[b_, a] = value
        self.delta_evaluations_ += k * (k - 1) // 2

        solver = DSPM(
            num_features=min(self.num_features, present.size),
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
        )
        result = solver.fit_matrix(sub_Y, delta)
        self.dspm_runs_ += 1
        weights[present] = result.weights
        return weights
