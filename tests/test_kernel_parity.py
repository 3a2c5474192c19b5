"""Kernel-parity correctness tier: every backend answers like numpy.

The pluggable-kernel refactor is only sound if a backend swap is
unobservable from outside: on the binary embedding vectors this project
serves, every distance term is a small integer (exact in float64), so
all backends must produce **bit-identical** distance blocks, rankings,
and scores — not merely close ones.  Bounds involve non-integer
centroids, so those are allowed to differ by ulps (within the pruning
slack that makes such differences answer-neutral); everything a caller
can see stays exact.

Each test parametrizes over every registered backend, so registering a
new one automatically widens the tier to cover it.
"""

import numpy as np
import pytest

from clustered import clustered_query_vectors, clustered_vector_index
from repro.core.mapping import build_mapping
from repro.datasets import synthetic_database, synthetic_query_set
from repro.kernels import available_backends, resolve_backend, use_backend
from repro.query.engine import QueryEngine
from repro.query.proximity import ProximityGraph, _entry_points
from repro.query.pruning import SearchPolicy, default_ef
from repro.query.topk import MappedTopKEngine

BACKENDS = available_backends()
K = 5


@pytest.fixture(scope="module")
def graph_setup():
    db = synthetic_database(30, avg_edges=12, density=0.3, num_labels=4, seed=5)
    mapping = build_mapping(db, num_features=12, min_support=0.2)
    queries = synthetic_query_set(
        8, avg_edges=12, density=0.3, num_labels=4, seed=77
    )
    return mapping, queries


@pytest.fixture(scope="module")
def vector_setup():
    # Tight, well-separated clusters with session-like batches (each
    # batch stays in one cluster) — the regime where exact pruning
    # skips whole shard blocks, so the skip counters are exercised.
    mapping, blocks = clustered_vector_index(
        4, 60, 16, fill=0.95, noise=0.002, seed=2
    )
    queries = clustered_query_vectors(
        24, 4, 16, fill=0.95, noise=0.002, seed=3, block_size=6
    )
    batches = [queries[lo : lo + 6] for lo in range(0, 24, 6)]
    return mapping, blocks, queries, batches


@pytest.fixture(scope="module")
def raw_arrays():
    rng = np.random.default_rng(17)
    vectors = (rng.random((300, 40)) < 0.3).astype(float)
    queries = (rng.random((16, 40)) < 0.3).astype(float)
    return vectors, queries


@pytest.fixture(scope="module")
def biting_envelopes():
    """Binary queries against four shards of binary rows whose envelopes
    have pinned columns — ``lows == 1`` and ``highs == 0`` — so queries
    fall outside them on both sides."""
    rng = np.random.default_rng(29)
    p = 40
    pinned = rng.integers(0, 3, size=(4, p))  # 0: free, 1: all-1, 2: all-0
    shards = []
    for pins in pinned:
        rows = (rng.random((30, p)) < 0.5).astype(float)
        rows[:, pins == 1] = 1.0
        rows[:, pins == 2] = 0.0
        shards.append(rows)
    lows = np.stack([rows.min(axis=0) for rows in shards])
    highs = np.stack([rows.max(axis=0) for rows in shards])
    assert (lows == 1).any() and (highs == 0).any()
    centroids = np.stack([rows.mean(axis=0) for rows in shards])
    radii = np.array([
        np.sqrt(((rows - c) ** 2).sum(axis=1).max())
        for rows, c in zip(shards, centroids)
    ])
    queries = (rng.random((16, p)) < 0.5).astype(float)
    return queries, centroids, (centroids**2).sum(axis=1), radii, lows, highs


class TestRawKernels:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_distance_block_bit_identical(self, name, raw_arrays):
        vectors, queries = raw_arrays
        sq = (vectors**2).sum(axis=1)
        baseline = resolve_backend("numpy").distance_block(
            queries, vectors, sq, vectors.shape[1]
        )
        out = resolve_backend(name).distance_block(
            queries, vectors, sq, vectors.shape[1]
        )
        assert np.array_equal(np.asarray(out), baseline)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_bound_block_within_pruning_slack(self, name, vector_setup):
        from repro.query.pruning import ShardSummary, stack_summaries

        mapping, blocks, queries, _batches = vector_setup
        vectors = mapping.database_vectors
        stack = stack_summaries(
            [ShardSummary.from_vectors(vectors[b]) for b in blocks]
        )
        p = vectors.shape[1]
        args = (
            queries,
            stack.centroids,
            stack.centroid_sq_norms,
            stack.radii,
            stack.lows,
            stack.highs,
            p,
        )
        base_bounds, base_cd = resolve_backend("numpy").bound_block(*args)
        bounds, cd = resolve_backend(name).bound_block(*args)
        assert np.allclose(bounds, base_bounds, rtol=1e-9, atol=1e-12)
        assert np.allclose(cd, base_cd, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_envelope_term_bit_identical_where_it_bites(
        self, name, biting_envelopes
    ):
        """On binary rows every squared gap is 0 or 1, so the one-pass
        clip-and-contract and the per-shard below/above loop must agree
        to the bit (radii far out: the triangle term is zero and the
        bound *is* the envelope term)."""
        queries, centroids, sq, _radii, lows, highs = biting_envelopes
        far = np.full(len(lows), 1e9)
        p = queries.shape[1]
        args = (queries, centroids, sq, far, lows, highs, p)
        base_bounds, _cd = resolve_backend("reference").bound_block(*args)
        bounds, _cd = resolve_backend(name).bound_block(*args)
        below = (queries[:, None, :] < lows[None]).sum(axis=2)
        above = (queries[:, None, :] > highs[None]).sum(axis=2)
        assert (below > 0).any() and (above > 0).any()  # both sides bite
        assert np.array_equal(bounds, np.sqrt((below + above) / p))
        assert np.array_equal(bounds, base_bounds)

    def test_bound_block_identical_across_slab_boundaries(
        self, biting_envelopes, monkeypatch
    ):
        """The slab budget only bounds memory: cutting the batch into
        many query slabs returns the one-slab answer."""
        from repro.kernels import numpy_backend

        queries, centroids, sq, radii, lows, highs = biting_envelopes
        args = (queries, centroids, sq, radii, lows, highs, queries.shape[1])
        whole = numpy_backend.bound_block(*args)
        assert queries.shape[0] * centroids.size <= (
            numpy_backend._BOUND_CUBE_ELEMENTS
        )  # one slab as shipped
        monkeypatch.setattr(
            numpy_backend, "_BOUND_CUBE_ELEMENTS", 5 * centroids.size
        )  # 16 queries in slabs of 5: four slabs, the last one short
        for cut, one in zip(numpy_backend.bound_block(*args), whole):
            assert np.array_equal(cut, one)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_bound_check_same_mask(self, name, raw_arrays):
        vectors, _ = raw_arrays
        rng = np.random.default_rng(23)
        bounds = rng.random((8, 6))
        thresholds = rng.random(8)
        baseline = resolve_backend("numpy").bound_check(
            bounds, thresholds[:, None], 1e-9, 1e-12
        )
        out = resolve_backend(name).bound_check(
            bounds, thresholds[:, None], 1e-9, 1e-12
        )
        assert np.array_equal(np.asarray(out), np.asarray(baseline))


class TestEngineParity:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_graph_queries_bit_identical(self, name, graph_setup):
        mapping, queries = graph_setup
        # Engines resolve their backend at construction, so the scoped
        # override must wrap construction — this is the documented usage.
        with use_backend("numpy"):
            baseline = QueryEngine(mapping)
        with use_backend(name):
            engine = QueryEngine(mapping)
        for q in queries:
            a = baseline.query(q, K)
            b = engine.query(q, K)
            assert a.ranking == b.ranking
            assert a.scores == b.scores

    @pytest.mark.parametrize("name", BACKENDS)
    def test_filter_short_circuit_matches_naive(self, name, graph_setup):
        mapping, queries = graph_setup
        naive = MappedTopKEngine(mapping)
        with use_backend(name):
            engine = QueryEngine(mapping)
        for q in queries:
            a = naive.query(q, K)
            b = engine.query(q, K)
            assert a.ranking == b.ranking
            assert a.scores == b.scores
        # The candidate filter must have decided at least some positions
        # on this workload, or the short-circuit path went untested.
        assert engine.stats.filter_rejected > 0


class TestServiceParity:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize(
        "policy",
        [SearchPolicy(prune=False), SearchPolicy()],
        ids=["full-scan", "exact-pruned"],
    )
    def test_vector_answers_bit_identical(self, name, policy, vector_setup):
        mapping, blocks, _queries, batches = vector_setup
        with use_backend("numpy"):
            with mapping.query_service(shards=blocks, cache_size=0) as svc:
                baseline = [
                    r
                    for batch in batches
                    for r in svc.batch_query_vectors(batch, K, policy)
                ]
        with use_backend(name):
            with mapping.query_service(shards=blocks, cache_size=0) as svc:
                answers = [
                    r
                    for batch in batches
                    for r in svc.batch_query_vectors(batch, K, policy)
                ]
        for a, b in zip(baseline, answers):
            assert a.ranking == b.ranking
            assert a.scores == b.scores

    @pytest.mark.parametrize("name", BACKENDS)
    def test_exact_pruning_actually_skips_on_every_backend(
        self, name, vector_setup
    ):
        # Parity must not be achieved by silently disabling pruning.
        mapping, blocks, _queries, batches = vector_setup
        with use_backend(name):
            with mapping.query_service(shards=blocks, cache_size=0) as svc:
                for batch in batches:
                    svc.batch_query_vectors(batch, K, SearchPolicy())
                assert svc.stats.shards_skipped > 0


class TestGraphBeamParity:
    """The one place popcount and kernel meet: the beam scores its
    seed block with the backend and every later row by popcount, and a
    caller must not be able to tell which scored a row."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_answers_identical_and_scores_are_the_kernels(
        self, name, vector_setup
    ):
        mapping, _blocks, queries, _batches = vector_setup
        vectors = mapping.database_vectors
        n, p = vectors.shape
        sq = (vectors**2).sum(axis=1)
        kernel, numpy = resolve_backend(name), resolve_backend("numpy")
        graph = ProximityGraph.build(vectors, backend=kernel)
        baseline = ProximityGraph.build(vectors, backend=numpy)
        seeds = set(_entry_points(n).tolist())
        beyond_seeds = 0
        for ef in (K, default_ef(K), n):
            for q in queries:
                got = graph.search(q, K, ef, backend=kernel)
                assert got == baseline.search(q, K, ef, backend=numpy)
                ranking, scores = got[0], got[1]
                block = kernel.distance_block(
                    q[None, :], vectors[ranking], sq[ranking], p
                )
                assert scores == block[0].tolist()
                beyond_seeds += len(set(ranking) - seeds)
        assert beyond_seeds  # popcount-scored rows were compared too
