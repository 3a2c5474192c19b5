"""Metamorphic property tests (hypothesis) for the shard-skip bounds.

The shard-skipping tier is only allowed to *remove work*, never to
change an answer.  That rests on two mathematical invariants no example
suite pins down as well as a property search:

* **soundness** — for any shard and any query vector, the combined
  centroid/radius + envelope lower bound never exceeds the true minimum
  distance from the query to any row of the shard (up to the documented
  slack, which is what the skip test actually charges against);
* **safety** — a shard that :func:`repro.query.pruning.prunable` would
  skip against the true k-th-best distance can never contain a true
  top-k member, ties included.

On top of the raw bound math, the service-level property: for random
databases, shard layouts, duplicates and tie plateaus, approx mode
with ``nprobe = n_shards`` (bounded rounds that may skip) answers
bit-identically to the exact scan — and, whatever plan a
policy runs and wherever its blocks are computed, the trace and the
service counters account for exactly the shard tasks that ran.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mapping import mapping_from_selection
from repro.features.binary_matrix import FeatureSpace
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.gspan import FrequentSubgraph
from repro.query.pruning import (
    PRUNE_SLACK_ABS,
    PRUNE_SLACK_REL,
    SearchPolicy,
    ShardSummary,
    prunable,
    shard_lower_bounds,
    stack_summaries,
)
from repro.query.topk import MappedTopKEngine, rank_with_ties
from repro.serving.service import QueryService


def _random_database(rng, n, p, duplicate_heavy):
    """Binary row vectors; optionally with many duplicated rows (ties)."""
    vectors = rng.integers(0, 2, size=(n, p)).astype(float)
    if duplicate_heavy and n > 2:
        # Copy rows around so tie groups straddle shard boundaries.
        for _ in range(n // 2):
            src, dst = rng.integers(0, n, size=2)
            vectors[dst] = vectors[src]
    return vectors


def _random_blocks(rng, n):
    """A random partition of 0..n-1 into 1..min(n, 5) shards."""
    n_shards = int(rng.integers(1, min(n, 5) + 1))
    assignment = rng.integers(0, n_shards, size=n)
    assignment[rng.permutation(n)[:n_shards]] = np.arange(n_shards)
    return [
        np.flatnonzero(assignment == s) for s in range(n_shards)
    ]


def _normalized_distances(queries, vectors, p):
    diff = queries[:, None, :] - vectors[None, :, :]
    sq = (diff**2).sum(axis=2)
    return np.sqrt(sq / p) if p else np.zeros(sq.shape)


class TestBoundSoundness:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        p=st.integers(1, 24),
        duplicate_heavy=st.booleans(),
        integer_queries=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_lower_bound_never_exceeds_true_minimum(
        self, seed, n, p, duplicate_heavy, integer_queries
    ):
        rng = np.random.default_rng(seed)
        vectors = _random_database(rng, n, p, duplicate_heavy)
        blocks = _random_blocks(rng, n)
        # Served queries are 0/1 (the service refuses anything else);
        # small non-binary integers stress the bound past that.
        if integer_queries:
            queries = rng.integers(0, 3, size=(4, p)).astype(float)
        else:
            queries = rng.integers(0, 2, size=(4, p)).astype(float)
        summaries = stack_summaries([
            ShardSummary.from_vectors(vectors[block]) for block in blocks
        ])
        bounds, _centroid_d = shard_lower_bounds(queries, summaries, p)
        distances = _normalized_distances(queries, vectors, p)
        for qi in range(queries.shape[0]):
            for si, block in enumerate(blocks):
                true_min = float(distances[qi, block].min())
                bound = float(bounds[qi, si])
                assert bound <= true_min * (1 + PRUNE_SLACK_REL) + (
                    PRUNE_SLACK_ABS
                ), (
                    f"bound {bound!r} exceeds true minimum {true_min!r} "
                    f"past the skip slack (shard {si}, query {qi})"
                )

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_zero_dimensional_space_never_prunes(self, seed, n):
        """p == 0 mirrors the distance kernel: everything is at 0."""
        rng = np.random.default_rng(seed)
        vectors = np.zeros((n, 0))
        blocks = _random_blocks(rng, n)
        summaries = stack_summaries([
            ShardSummary.from_vectors(vectors[block]) for block in blocks
        ])
        bounds, _ = shard_lower_bounds(np.zeros((3, 0)), summaries, 0)
        assert (bounds == 0.0).all()


class TestPrunedShardSafety:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 40),
        p=st.integers(1, 16),
        k=st.integers(1, 12),
        duplicate_heavy=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_prunable_shards_hold_no_top_k_member(
        self, seed, n, p, k, duplicate_heavy
    ):
        """The exact-mode guarantee, checked against ground truth.

        ``prunable`` consulted with the *true* k-th-best distance is the
        most permissive skip decision exact mode could ever make (the
        running threshold is only ever >= the final one), so if even
        that never discards a top-k member, no execution order can.
        """
        rng = np.random.default_rng(seed)
        k = min(k, n)
        vectors = _random_database(rng, n, p, duplicate_heavy)
        blocks = _random_blocks(rng, n)
        queries = rng.integers(0, 2, size=(4, p)).astype(float)
        summaries = stack_summaries([
            ShardSummary.from_vectors(vectors[block]) for block in blocks
        ])
        bounds, _ = shard_lower_bounds(queries, summaries, p)
        distances = _normalized_distances(queries, vectors, p)
        for qi in range(queries.shape[0]):
            top, scores = rank_with_ties(distances[qi], k)
            threshold = scores[-1]
            top_set = set(top)
            for si, block in enumerate(blocks):
                if prunable(float(bounds[qi, si]), threshold):
                    overlap = top_set & {int(i) for i in block}
                    assert not overlap, (
                        f"shard {si} was prunable at threshold "
                        f"{threshold!r} but holds top-k members {overlap}"
                    )


def _vector_service_mapping(vectors):
    """A real mapping over raw binary *vectors* (single-vertex features)."""
    n, p = vectors.shape
    features = [
        FrequentSubgraph(
            LabeledGraph([f"d{j}"], graph_id=f"d{j}"),
            {int(i) for i in np.flatnonzero(vectors[:, j])},
        )
        for j in range(p)
    ]
    return mapping_from_selection(FeatureSpace(features, n), list(range(p)))


class TestServiceLevelIdentity:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 30),
        p=st.integers(1, 10),
        k=st.integers(1, 8),
        duplicate_heavy=st.booleans(),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_routed_to_every_shard_bit_identical_to_exact(
        self, seed, n, p, k, duplicate_heavy
    ):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        vectors = _random_database(rng, n, p, duplicate_heavy)
        blocks = _random_blocks(rng, n)
        queries = rng.integers(0, 2, size=(5, p)).astype(float)
        mapping = _vector_service_mapping(vectors)
        with QueryService(
            mapping.query_engine(), shards=blocks, cache_size=0
        ) as service:
            exact = service.batch_query_vectors(queries, k)
            everything = service.batch_query_vectors(
                queries, k, SearchPolicy(mode="approx", nprobe=len(blocks))
            )
        for a, b in zip(exact, everything):
            assert a.ranking == b.ranking
            assert a.scores == b.scores


SHARDED_POLICIES = {
    "exact": SearchPolicy(),
    "nprobe": SearchPolicy(mode="approx", nprobe=2),
    "auto": SearchPolicy(mode="approx", nprobe="auto"),
}


class TestExecutorAccounting:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 30),
        p=st.integers(1, 10),
        k=st.integers(1, 8),
        contiguous=st.booleans(),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_trace_and_counters_are_the_groups_that_ran(
        self, seed, n, p, k, contiguous
    ):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        vectors = _random_database(rng, n, p, duplicate_heavy=True)
        layout = (
            {"n_shards": int(rng.integers(1, 6))}
            if contiguous
            else {"shards": _random_blocks(rng, n)}
        )
        queries = rng.integers(0, 2, size=(5, p)).astype(float)
        mapping = _vector_service_mapping(vectors)
        ran = []  # (query, row) pairs scored by each shard task
        with QueryService(
            mapping.query_engine(), cache_size=0, **layout
        ) as service:
            shard_topk = service._shard_topk

            def recording(shard, left, k_):
                # *left* is packed: one plane column per query.
                ran.append(left.shape[1] * shard.num_rows)
                return shard_topk(shard, left, k_)

            service._shard_topk = recording
            n_shards = len(service.shards)
            answers = {}
            for name, policy in SHARDED_POLICIES.items():
                del ran[:]
                before = service.stats.distance_evaluations
                whole = service.stats.whole_scans
                answers[name], trace = service.batch_query_vectors_traced(
                    queries, k, policy
                )
                assert (trace.visited + trace.skipped == n_shards).all()
                assert len(ran) == trace.shard_tasks
                assert service.stats.distance_evaluations - before == sum(ran)
                if service.stats.whole_scans > whole:
                    # One block of all rows is one task that visits
                    # every shard for every query and skips none.
                    assert trace.shard_tasks == 1
                    assert trace.shards_skipped == 0
                    assert (trace.visited == n_shards).all()
                    assert ran == [len(queries) * n]
                else:
                    assert (
                        trace.shard_tasks >= n_shards - trace.shards_skipped
                    )
        naive = MappedTopKEngine(mapping)
        for q, b in zip(queries, answers["exact"]):
            a = naive.query_from_vector(q, k)
            assert a.ranking == b.ranking
            assert a.scores == b.scores
