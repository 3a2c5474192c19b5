"""Shard-skipping machinery: summaries, bounds, and search policies.

The paper's promise is that a handful of dimension features answers a
top-k dissimilarity query without touching most of the database.  The
sharded :class:`~repro.serving.service.QueryService` realises the
*compute* half of that promise (small distance blocks); this module
adds the *skipping* half — per-shard geometric summaries tight enough
that most shards never compute a distance block at all:

* :class:`ShardSummary` — centroid, radius, and per-dimension min/max
  envelope of one shard's rows in embedding space.  Derived data, never
  stored: :meth:`ShardSummary.from_vectors` is the only constructor, and
  it runs where the rows are gathered (one numpy pass at shard build),
  so a summary can only ever describe page-verified vectors.
* :func:`shard_lower_bounds` — for a batch of query vectors, a per
  (query, shard) **lower bound** on the normalised distance to *any*
  row of the shard.  Two bounds are combined, both classical:

  - *triangle inequality*: ``‖φ(q) − centroid‖ − radius ≤ ‖φ(q) − x‖``
    for every shard row ``x``;
  - *envelope (bounding box)*: per dimension, a query coordinate
    outside ``[min_j, max_j]`` contributes at least its gap to the
    squared distance of every row.

  The maximum of the two is still a valid lower bound, and on
  DSPMap-style similarity partitions it is usually tight enough to
  skip most shards once a running k-th-best candidate exists.
* :class:`SearchPolicy` — the per-request knob: ``exact`` (default)
  skips only shards *provably* unable to contribute, so answers stay
  bit-identical to the full scan; ``approx`` additionally routes each
  query to its ``nprobe`` closest partitions only, trading recall for
  latency.
* :class:`PruningTrace` — per-query visited/skipped/bound-check
  counters, surfaced per response by the serving protocol.

Floating-point safety
---------------------
Embeddings are binary, so every true squared distance is an exactly
represented integer; the bounds, however, go through means and square
roots and may round *up* past the true bound by a few ulps.  A shard is
therefore only skipped when its bound clears the running k-th-best by a
relative :data:`PRUNE_SLACK_REL` (plus :data:`PRUNE_SLACK_ABS`) margin —
about a million times wider than the worst rounding error, and about a
million times narrower than any real distance gap — so exact mode can
never skip a shard holding a true top-k member, ties included.  The
metamorphic property suite (``tests/test_pruning_properties.py``)
hammers exactly this invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro import kernels
from repro.utils.errors import QueryError

__all__ = [
    "PRUNE_SLACK_ABS",
    "PRUNE_SLACK_REL",
    "PruningTrace",
    "SearchPolicy",
    "ShardSummary",
    "SummaryStack",
    "default_ef",
    "prunable",
    "prunable_mask",
    "shard_centroid_distances",
    "shard_lower_bounds",
    "stack_summaries",
    "topk_recall",
]

#: Relative + absolute slack a bound must clear before a shard may be
#: skipped in exact mode (see module docstring).
PRUNE_SLACK_REL = 1e-9
PRUNE_SLACK_ABS = 1e-12

#: Recognised :class:`SearchPolicy` modes.
SEARCH_MODES = ("exact", "approx", "graph")


@dataclass(frozen=True)
class SearchPolicy:
    """How one request wants its shards searched.

    ``mode="exact"`` (the default) answers bit-identically to the full
    scan; ``prune=False`` additionally disables the bound checks, which
    is the pre-pruning behaviour (and the ground truth the recall and
    work-count tests compare against).
    ``mode="approx"`` visits only the ``nprobe`` shards whose centroids
    are closest to φ(q) — on DSPMap partition shards this is exactly
    partition routing — and applies the same bound pruning inside that
    candidate set.  ``nprobe`` is a floor, not a cap on the answer
    length: routing extends past it (nearest shards first) whenever the
    routed shards hold fewer than k rows, so approx answers are always
    full-length and only recall degrades.
    ``nprobe="auto"`` replaces the fixed probe count with a per-query
    stop rule: shards are probed in centroid-distance order, and a
    query stops widening its routed set as soon as the next shard's
    lower bound clears its running k-th-best (never before it has k
    candidates).  Each query pays for exactly as many probes as its
    geometry demands; the probes actually spent are reported as
    ``effective_nprobe`` in the response trace.
    ``mode="graph"`` skips shards entirely: a best-first beam over the
    navigable proximity graph (:mod:`repro.query.proximity`) evaluates
    only the rows it walks past — sublinear where the other modes are
    linear in partitions.  ``ef`` is the beam width (candidate-list
    size); ``None`` picks :func:`default_ef` for the request's ``k``.
    """

    mode: str = "exact"
    nprobe: Optional[Union[int, str]] = None
    prune: bool = True
    ef: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in SEARCH_MODES:
            raise QueryError(
                f"unknown search mode {self.mode!r} "
                f"(expected one of {', '.join(SEARCH_MODES)})"
            )
        if self.mode == "approx":
            if self.nprobe == "auto":
                if not self.prune:
                    raise QueryError(
                        "nprobe='auto' stops on the shard lower bounds, "
                        "so it requires prune=True"
                    )
            elif (
                # bool is an int subclass; reject it explicitly so the
                # Python API matches the wire layer instead of silently
                # reading True as nprobe=1.
                isinstance(self.nprobe, bool)
                or not isinstance(self.nprobe, int)
                or self.nprobe < 1
            ):
                raise QueryError(
                    "approx search requires an integer nprobe >= 1 "
                    "or nprobe='auto'"
                )
        elif self.nprobe is not None:
            raise QueryError(
                f"nprobe only applies to approx search "
                f"(mode is {self.mode!r}; modes: {', '.join(SEARCH_MODES)})"
            )
        if self.mode == "graph":
            if self.ef is not None and (
                isinstance(self.ef, bool)
                or not isinstance(self.ef, int)
                or self.ef < 1
            ):
                raise QueryError(
                    "graph search requires an integer ef >= 1 (or None "
                    "for the default beam width)"
                )
        elif self.ef is not None:
            raise QueryError(
                f"ef only applies to graph search "
                f"(mode is {self.mode!r}; modes: {', '.join(SEARCH_MODES)})"
            )

    @property
    def is_full_scan(self) -> bool:
        """True when every shard must be computed: the one-round plan
        that reads no bound."""
        return self.mode == "exact" and not self.prune


#: The default policy — exact answers with shard skipping enabled.
EXACT_POLICY = SearchPolicy()


@dataclass
class ShardSummary:
    """Geometry of one shard's rows in the full embedding space.

    ``centroid`` is the row mean, ``radius`` the largest unnormalised
    Euclidean distance of any row to it, and ``dim_min``/``dim_max``
    the per-dimension envelope.
    """

    num_rows: int
    centroid: np.ndarray
    radius: float
    dim_min: np.ndarray
    dim_max: np.ndarray

    @classmethod
    def from_vectors(cls, rows: np.ndarray) -> "ShardSummary":
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise QueryError("a shard summary needs a non-empty 2-d block")
        centroid = rows.mean(axis=0)
        radius = float(
            np.sqrt(((rows - centroid) ** 2).sum(axis=1).max())
        )
        return cls(
            num_rows=rows.shape[0],
            centroid=centroid,
            radius=radius,
            dim_min=rows.min(axis=0),
            dim_max=rows.max(axis=0),
        )


@dataclass
class SummaryStack:
    """Per-shard summaries stacked into matrices, ready for BLAS.

    The stacking (and the centroids' squared norms) only change when
    the shard list does, so the query service builds one stack per
    shard-list generation and snapshots it with the shards — the
    per-batch bound computation then never re-stacks identical arrays.
    """

    centroids: np.ndarray
    radii: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    centroid_sq_norms: np.ndarray


def stack_summaries(summaries: Sequence[ShardSummary]) -> SummaryStack:
    centroids = np.stack([s.centroid for s in summaries])
    return SummaryStack(
        centroids=centroids,
        radii=np.array([s.radius for s in summaries]),
        lows=np.stack([s.dim_min for s in summaries]),
        highs=np.stack([s.dim_max for s in summaries]),
        centroid_sq_norms=(centroids**2).sum(axis=1),
    )


def _as_stack(
    summaries: Union[SummaryStack, Sequence[ShardSummary]]
) -> SummaryStack:
    if isinstance(summaries, SummaryStack):
        return summaries
    return stack_summaries(summaries)


def shard_centroid_distances(
    vectors: np.ndarray,
    summaries: Union[SummaryStack, Sequence[ShardSummary]],
) -> np.ndarray:
    """Unnormalised ``‖φ(q) − centroid‖`` per (query, shard).

    The approx-mode router: each query visits the ``nprobe`` shards
    with the smallest centroid distance (ties broken by shard index via
    the caller's stable argsort).
    """
    vectors = np.asarray(vectors, dtype=float)
    stack = _as_stack(summaries)
    sq = (
        (vectors**2).sum(axis=1)[:, None]
        + stack.centroid_sq_norms[None, :]
        - 2.0 * vectors @ stack.centroids.T
    )
    return np.sqrt(np.maximum(sq, 0.0))


def shard_lower_bounds(
    vectors: np.ndarray,
    summaries: Union[SummaryStack, Sequence[ShardSummary]],
    dimensionality: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lower bounds on the *normalised* distance per (query, shard).

    Returns ``(bounds, centroid_distances)`` — the centroid distances
    fall out of the triangle-inequality term for free and double as the
    approx router's signal, so both are computed in one pass.
    ``bounds[i, j] <= min over rows x of shard j of d(q_i, x)`` always
    holds mathematically (the metamorphic suite enforces it).

    The arithmetic is :func:`repro.kernels.bound_block`.  Another
    association of the same sums (the test oracle's) may differ from it
    in the last ulp, which the slack margin in :func:`prunable_mask`
    absorbs — exact answers never change.
    """
    vectors = np.asarray(vectors, dtype=float)
    stack = _as_stack(summaries)
    return kernels.bound_block(
        vectors,
        stack.centroids,
        stack.centroid_sq_norms,
        stack.radii,
        stack.lows,
        stack.highs,
        dimensionality,
    )


def prunable_mask(
    bounds: np.ndarray,
    thresholds: np.ndarray,
) -> np.ndarray:
    """Elementwise: does each bound provably clear its k-th-best?

    This is the *shipped* skip test — the query service applies it to
    whole bound columns against its per-query running thresholds (use
    ``+inf`` while a query has fewer than k candidates: nothing may be
    skipped before that, and no finite bound clears infinity).  The
    slack margin keeps exact mode safe against the bound's own rounding
    (see the module docstring); a bound exactly *equal* to the
    threshold never prunes, because a row at that distance could still
    win on the ascending-index tie-break.
    """
    return np.asarray(
        kernels.bound_check(
            np.asarray(bounds),
            np.asarray(thresholds),
            PRUNE_SLACK_REL,
            PRUNE_SLACK_ABS,
        ),
        dtype=bool,
    )


def prunable(bound: float, threshold: Optional[float]) -> bool:
    """Scalar convenience over :func:`prunable_mask` (``None`` = no k yet).

    Delegates to the vectorised form so the property suite and the
    serving hot path exercise one formula, not two copies of it.
    """
    if threshold is None:
        threshold = float("inf")
    return bool(prunable_mask(np.array([bound]), np.array([threshold]))[0])


@dataclass
class PruningTrace:
    """Per-query pruning outcome of one batch.

    ``visited[i]`` / ``skipped[i]`` count shards whose distance block
    query *i* did / did not participate in; ``bound_checks[i]`` counts
    the (query, shard) bound evaluations made on its behalf.  The
    serving front-end slices these per request so every NDJSON response
    carries its own ``pruning`` stats.
    """

    mode: str
    nprobe: Optional[Union[int, str]]
    visited: np.ndarray
    skipped: np.ndarray
    bound_checks: np.ndarray
    #: Shard distance blocks computed / skipped outright for the whole
    #: batch (shard-level, not per query).
    shard_tasks: int = 0
    shards_skipped: int = 0
    #: ``nprobe="auto"`` only: the probes each query actually spent
    #: before its stop rule fired.
    effective_nprobe: Optional[np.ndarray] = None
    #: Graph-mode fields: the beam width used, and per-query expanded
    #: nodes / distance evaluations (``visited``/``skipped`` stay zero —
    #: a beam never touches shards).
    ef: Optional[int] = None
    hops: Optional[np.ndarray] = None
    distance_evals: Optional[np.ndarray] = None

    @classmethod
    def graph_search(
        cls, ef: int, hops: np.ndarray, distance_evals: np.ndarray
    ) -> "PruningTrace":
        """The trace of a graph-mode (beam search) batch."""
        num_queries = len(hops)
        zeros = np.zeros(num_queries, dtype=np.int64)
        return cls(
            mode="graph",
            nprobe=None,
            visited=zeros,
            skipped=zeros.copy(),
            bound_checks=zeros.copy(),
            ef=int(ef),
            hops=np.asarray(hops, dtype=np.int64),
            distance_evals=np.asarray(distance_evals, dtype=np.int64),
        )

    def slice_payload(self, lo: int, hi: int) -> Dict:
        """The ``pruning`` response section for queries ``lo..hi-1``."""
        if self.mode == "graph":
            return {
                "mode": "graph",
                "ef": self.ef,
                "hops": int(self.hops[lo:hi].sum()),
                "distance_evaluations": int(
                    self.distance_evals[lo:hi].sum()
                ),
            }
        payload = {
            "mode": self.mode,
            **({"nprobe": self.nprobe} if self.nprobe is not None else {}),
            "shards_visited": int(self.visited[lo:hi].sum()),
            "shards_skipped": int(self.skipped[lo:hi].sum()),
            "bound_checks": int(self.bound_checks[lo:hi].sum()),
        }
        if self.effective_nprobe is not None:
            probes = self.effective_nprobe[lo:hi]
            payload["effective_nprobe"] = (
                round(float(probes.mean()), 3) if probes.size else 0.0
            )
        return payload

    def totals(self) -> Dict:
        return self.slice_payload(0, len(self.visited))


def default_ef(k: int) -> int:
    """The graph tier's default beam width for a ``k``-answer request.

    Wide enough to clear recall ≥ 0.9 on clustered data with a
    comfortable margin, while staying far below a single partition's
    row count — the regime where the beam beats ``nprobe`` routing
    (``tests/test_pruning.py::TestClusteredWorkCounts``: 0.958 at
    ``ef=32``, 8,958 evaluations against routing's 16,000).
    """
    return max(4 * int(k), 32)


def topk_recall(truth, answer) -> float:
    """Fraction of *truth*'s top-k ids present in *answer*'s.

    The recall the approximate tier is graded on everywhere (the
    tests and the ledger's ``recall_at_k`` alike), defined once so the
    numbers stay comparable.
    """
    reference = set(truth.ranking)
    if not reference:
        return 1.0
    return len(reference & set(answer.ranking)) / len(reference)
