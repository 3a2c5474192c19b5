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
from repro.core.partition import partition_database
from repro.features.binary_matrix import FeatureSpace
from repro.graph.labeled_graph import LabeledGraph
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

    def _dspm_on(
        self,
        indices: np.ndarray,
        space: FeatureSpace,
        delta_fn: DeltaFn,
    ) -> np.ndarray:
        """Run DSPM on a block, restricted to features present in it (F')."""
        sub_Y_full = space.rows(indices).astype(float)
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
