"""Kernel-parity correctness tier: the kernels answer like the oracle.

:mod:`repro.kernels` computes distances in the expanded BLAS form and
Hamming counts as vectorised popcounts over packed words; the oracle in
``tests/kernel_oracle.py`` computes both one row (or pair) at a time.  On
the binary embedding vectors this project serves, every distance term
is a small integer (exact in float64), so the two must produce
**bit-identical** distance blocks, rankings, and scores — not merely
close ones.  Bounds involve non-integer centroids, so those are allowed
to differ by ulps (within the pruning slack that makes such differences
answer-neutral); everything a caller can see stays exact.

The raw kernels are compared call for call, over the array shapes the
serving stack can feed them.  The engine, service and beam tiers are
compared answer for answer, with the oracle swapped into
:mod:`repro.kernels` by ``monkeypatch`` after the baseline is taken.
"""

import kernel_oracle
import numpy as np
import pytest

from clustered import clustered_query_vectors, clustered_vector_index
from repro import kernels
from repro.core.mapping import build_mapping
from repro.datasets import synthetic_database, synthetic_query_set
from repro.isomorphism.vf2 import TargetProfile
from repro.kernels import PatternFilterStats
from repro.query.engine import QueryEngine
from repro.query.proximity import ProximityGraph, _entry_points
from repro.query.pruning import (
    PRUNE_SLACK_ABS,
    PRUNE_SLACK_REL,
    SearchPolicy,
    ShardSummary,
    default_ef,
    stack_summaries,
)
from repro.query.topk import (
    MappedTopKEngine,
    rank_counts,
    rank_with_ties,
    score_table,
)

K = 5
KERNELS = (
    "distance_block",
    "hamming_block",
    "bound_block",
    "bound_check",
    "vf2_candidate_filter",
)
#: Array shapes beside the plain C-ordered batch: no dimensions, a
#: one-row database (one shard), a lone query, column-major queries and
#: strided views of both operands.
SHAPES = ["c-order", "p0", "one-row", "one-query", "fortran", "strided"]


def swap_in_oracle(monkeypatch):
    """Every kernel call from here on runs the row-at-a-time oracle."""
    for name in KERNELS:
        monkeypatch.setattr(kernels, name, getattr(kernel_oracle, name))


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
    # batch stays in one cluster) — the regime where auto's bounds stop
    # a query after its home shard, so the stop rule is exercised.
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


@pytest.fixture(params=SHAPES)
def shaped(request, raw_arrays):
    """``(queries, rows)`` of one shape, every entry 0 or 1."""
    vectors, queries = raw_arrays
    return {
        "c-order": (queries, vectors),
        "p0": (queries[:, :0], vectors[:, :0]),
        "one-row": (queries, vectors[:1]),
        "one-query": (queries[:1], vectors),
        "fortran": (np.asfortranarray(queries), vectors),
        "strided": (queries[::2], vectors[::3]),
    }[request.param]


def _bound_args(queries, rows):
    """``bound_block``'s arguments with *rows* cut into (up to) four
    shards."""
    stack = stack_summaries([
        ShardSummary.from_vectors(block)
        for block in np.array_split(rows, min(4, rows.shape[0]))
    ])
    return (
        queries,
        stack.centroids,
        stack.centroid_sq_norms,
        stack.radii,
        stack.lows,
        stack.highs,
        rows.shape[1],
    )


class TestRawKernels:
    def test_distance_block_bit_identical(self, shaped):
        queries, rows = shaped
        sq = (rows**2).sum(axis=1)
        args = (queries, rows, sq, rows.shape[1])
        out = kernels.distance_block(*args)
        assert out.shape == (queries.shape[0], rows.shape[0])
        assert np.array_equal(out, kernel_oracle.distance_block(*args))

    def test_hamming_block_bit_identical(self, shaped):
        queries, rows = shaped
        args = (kernels.pack_rows(queries), kernels.pack_rows(rows))
        out = kernels.hamming_block(*args)
        assert out.shape == (queries.shape[0], rows.shape[0])
        assert np.array_equal(out, kernel_oracle.hamming_block(*args))

    @pytest.mark.parametrize("n", [0, 1, 4000])
    @pytest.mark.parametrize("p", [0, 1, 63, 64, 65, 128, 200])
    def test_hamming_counts_are_the_squared_distances(self, p, n):
        """Across word boundaries (63/64/65 dimensions) and empty,
        single-row and ledger-sized blocks: the popcount equals the
        oracle's word-by-word count and the 0/1 vectors' squared
        distance, and its score is the float kernel's distance."""
        rng = np.random.default_rng(p * 7 + n)
        rows = (rng.random((n, p)) < 0.4).astype(float)
        queries = (rng.random((3, p)) < 0.4).astype(float)
        queries[0] = rows[0] if n else queries[0]  # a zero count
        planes = kernels.pack_rows(rows)
        assert planes.shape == (-(-p // 64), n)
        counts = kernels.hamming_block(kernels.pack_rows(queries), planes)
        oracle = kernel_oracle.hamming_block(
            kernels.pack_rows(queries), planes
        )
        assert np.array_equal(counts, oracle)
        squared = (queries[:, None, :] != rows[None, :, :]).sum(axis=2)
        assert np.array_equal(counts, squared)
        distances = kernel_oracle.distance_block(
            queries, rows, rows.sum(axis=1), p
        )
        assert np.array_equal(score_table(p)[counts], distances)

    @pytest.mark.parametrize("p", [1, 3, 64, 65])
    def test_tie_order_under_integer_keys(self, p):
        """Duplicate-heavy rows under scattered global ids: the keys
        ``count << 32 | row`` rank exactly as (distance, row) does on
        the float kernel's block."""
        rng = np.random.default_rng(p)
        distinct = (rng.random((4, p)) < 0.5).astype(float)
        rows = distinct[rng.integers(0, 4, size=60)]
        ids = rng.permutation(1000)[:60]  # columns are not in id order
        queries = (rng.random((5, p)) < 0.5).astype(float)
        counts = kernels.hamming_block(
            kernels.pack_rows(queries), kernels.pack_rows(rows)
        )
        distances = kernels.distance_block(queries, rows, rows.sum(axis=1), p)
        for k in (1, 7, 60):
            keys = rank_counts(counts, ids, k)
            for qi in range(len(queries)):
                by_id = np.full(1000, np.inf)
                by_id[ids] = distances[qi]
                want = rank_with_ties(by_id, k)
                got = keys[qi]
                assert (got & 0xFFFFFFFF).tolist() == want[0]
                assert score_table(p)[got >> 32].tolist() == want[1]

    def test_bound_block_within_pruning_slack(self, shaped):
        args = _bound_args(*shaped)
        bounds, cd = kernels.bound_block(*args)
        oracle_bounds, oracle_cd = kernel_oracle.bound_block(*args)
        assert bounds.shape == oracle_bounds.shape == cd.shape
        assert np.allclose(bounds, oracle_bounds, rtol=1e-9, atol=1e-12)
        assert np.allclose(cd, oracle_cd, rtol=1e-9, atol=1e-12)

    def test_bound_block_on_the_served_shards(self, vector_setup):
        mapping, blocks, queries, _batches = vector_setup
        vectors = mapping.database_vectors
        stack = stack_summaries(
            [ShardSummary.from_vectors(vectors[b]) for b in blocks]
        )
        args = (
            queries,
            stack.centroids,
            stack.centroid_sq_norms,
            stack.radii,
            stack.lows,
            stack.highs,
            vectors.shape[1],
        )
        for got, want in zip(
            kernels.bound_block(*args), kernel_oracle.bound_block(*args)
        ):
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_envelope_term_bit_identical_where_it_bites(
        self, biting_envelopes
    ):
        """On binary rows every squared gap is 0 or 1, so the one-pass
        clip-and-contract and the per-shard below/above loop must agree
        to the bit (radii far out: the triangle term is zero and the
        bound *is* the envelope term)."""
        queries, centroids, sq, _radii, lows, highs = biting_envelopes
        far = np.full(len(lows), 1e9)
        p = queries.shape[1]
        args = (queries, centroids, sq, far, lows, highs, p)
        bounds, _cd = kernels.bound_block(*args)
        below = (queries[:, None, :] < lows[None]).sum(axis=2)
        above = (queries[:, None, :] > highs[None]).sum(axis=2)
        assert (below > 0).any() and (above > 0).any()  # both sides bite
        assert np.array_equal(bounds, np.sqrt((below + above) / p))
        assert np.array_equal(bounds, kernel_oracle.bound_block(*args)[0])

    def test_bound_block_identical_across_slab_boundaries(
        self, biting_envelopes, monkeypatch
    ):
        """The slab budget only bounds memory: cutting the batch into
        many query slabs returns the one-slab answer."""
        queries, centroids, sq, radii, lows, highs = biting_envelopes
        args = (queries, centroids, sq, radii, lows, highs, queries.shape[1])
        whole = kernels.bound_block(*args)
        assert queries.shape[0] * centroids.size <= (
            kernels._BOUND_CUBE_ELEMENTS
        )  # one slab as shipped
        monkeypatch.setattr(
            kernels, "_BOUND_CUBE_ELEMENTS", 5 * centroids.size
        )  # 16 queries in slabs of 5: four slabs, the last one short
        for cut, one in zip(kernels.bound_block(*args), whole):
            assert np.array_equal(cut, one)

    def test_bound_check_same_mask(self):
        rng = np.random.default_rng(23)
        bounds = rng.random((8, 6))
        thresholds = rng.random(8)[:, None]
        args = (bounds, thresholds, 1e-9, 1e-12)
        mask = kernels.bound_check(*args)
        assert mask.any() and not mask.all()
        assert np.array_equal(mask, kernel_oracle.bound_check(*args))

    def test_bound_check_on_shaped_bounds(self, shaped):
        """The skip test on the bounds a shaped batch produces, against
        each query's median bound: both outcomes occur wherever the
        bounds differ at all."""
        args = _bound_args(*shaped)
        bounds, _cd = kernels.bound_block(*args)
        thresholds = np.median(bounds, axis=1)[:, None]
        check = (bounds, thresholds, PRUNE_SLACK_REL, PRUNE_SLACK_ABS)
        mask = kernels.bound_check(*check)
        assert mask.shape == bounds.shape
        assert np.array_equal(mask, kernel_oracle.bound_check(*check))

    @pytest.mark.parametrize("patterns", [0, 1], ids=["empty", "one"])
    def test_vf2_candidate_filter_on_small_pattern_sets(
        self, patterns, graph_setup
    ):
        """No selected feature (p = 0) gives a pattern matrix of no
        rows, and a lone feature one row; both filters keep the same
        patterns."""
        mapping, queries = graph_setup
        profiles = [
            mapping.space.pattern_profile(r)
            for r in mapping.selected[:patterns]
        ]
        stats = PatternFilterStats(profiles)
        assert stats.need.shape[0] == patterns
        for q in queries:
            have = stats.encode_target(TargetProfile(q))
            mask = kernels.vf2_candidate_filter(stats.need, have)
            assert mask.shape == (patterns,)
            assert np.array_equal(
                mask, kernel_oracle.vf2_candidate_filter(stats.need, have)
            )


class TestEngineParity:
    def test_graph_queries_bit_identical(self, graph_setup, monkeypatch):
        mapping, queries = graph_setup
        engine = QueryEngine(mapping)
        baseline = [engine.query(q, K) for q in queries]
        swap_in_oracle(monkeypatch)
        for q, a in zip(queries, baseline):
            b = engine.query(q, K)
            assert a.ranking == b.ranking
            assert a.scores == b.scores

    def test_filter_short_circuit_matches_naive(
        self, graph_setup, monkeypatch
    ):
        mapping, queries = graph_setup
        naive = MappedTopKEngine(mapping)
        swap_in_oracle(monkeypatch)
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
    @staticmethod
    def _answers(mapping, blocks, batches, policy):
        with mapping.query_service(shards=blocks, cache_size=0) as svc:
            return [
                r
                for batch in batches
                for r in svc.batch_query_vectors(batch, K, policy)
            ]

    @pytest.mark.parametrize(
        "policy",
        [
            SearchPolicy(),
            SearchPolicy(mode="approx", nprobe=4),  # every shard
            SearchPolicy(mode="approx", nprobe=2),
            SearchPolicy(mode="approx", nprobe="auto"),
            SearchPolicy(mode="graph"),
        ],
        ids=["exact", "every-shard", "nprobe-2", "nprobe-auto", "graph"],
    )
    def test_vector_answers_bit_identical(
        self, policy, vector_setup, monkeypatch
    ):
        mapping, blocks, _queries, batches = vector_setup
        baseline = self._answers(mapping, blocks, batches, policy)
        swap_in_oracle(monkeypatch)
        answers = self._answers(mapping, blocks, batches, policy)
        for a, b in zip(baseline, answers):
            assert a.ranking == b.ranking
            assert a.scores == b.scores

    def test_auto_stops_early_under_the_oracle(
        self, vector_setup, monkeypatch
    ):
        # Parity must not be achieved by silently disabling the stop
        # rule: under the oracle's bound_check some query stops before
        # it has probed every shard.
        mapping, blocks, _queries, batches = vector_setup
        swap_in_oracle(monkeypatch)
        auto = SearchPolicy(mode="approx", nprobe="auto")
        with mapping.query_service(shards=blocks, cache_size=0) as svc:
            stopped = 0
            for batch in batches:
                _results, trace = svc.batch_query_vectors_traced(
                    batch, K, auto
                )
                stopped += int((trace.effective_nprobe < len(blocks)).sum())
            assert stopped > 0
            assert svc.stats.bound_checks > 0


class TestGraphBeamParity:
    """The one place popcount and kernel meet: the beam scores its
    seed block with the kernel and every later row by popcount, and a
    caller must not be able to tell which scored a row."""

    def test_answers_identical_and_scores_are_the_kernels(
        self, vector_setup, monkeypatch
    ):
        mapping, _blocks, queries, _batches = vector_setup
        vectors = mapping.database_vectors
        n, p = vectors.shape
        sq = (vectors**2).sum(axis=1)
        efs = (K, default_ef(K), n)
        baseline = ProximityGraph.build(vectors)
        expected = [baseline.search(q, K, ef) for ef in efs for q in queries]
        swap_in_oracle(monkeypatch)
        graph = ProximityGraph.build(vectors)
        seeds = set(_entry_points(n).tolist())
        got = [graph.search(q, K, ef) for ef in efs for q in queries]
        assert got == expected
        beyond_seeds = 0
        for (ranking, scores, _hops, _evals), q in zip(
            got, list(queries) * len(efs)
        ):
            block = kernel_oracle.distance_block(
                q[None, :], vectors[ranking], sq[ranking], p
            )
            assert scores == block[0].tolist()
            beyond_seeds += len(set(ranking) - seeds)
        assert beyond_seeds  # popcount-scored rows were compared too
