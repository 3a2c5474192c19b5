"""Bit-identity and behaviour tests for the sharded query service.

The service's contract mirrors the engine's: *identical results at
serving scale*.  Every test therefore compares sharded/cached
paths against the single-shard engine, including tie-heavy workloads
where merge-order bugs would surface.
"""

import hashlib
import json

import numpy as np
import pytest

from clustered import clustered_query_vectors, clustered_vector_index
from repro import kernels
from repro.core.dspmap import DSPMap
from repro.core.mapping import mapping_from_selection, variance_selection
from repro.datasets import synthetic_database, synthetic_query_set
from repro.features.binary_matrix import FeatureSpace
from repro.mining import mine_frequent_subgraphs
from repro.mining.gspan import FrequentSubgraph
from repro.query import SearchPolicy
from repro.query.pruning import ShardSummary
from repro.query.topk import MappedTopKEngine
from repro.serving import service as service_module
from repro.serving.service import QueryService
from repro.utils.errors import QueryError


@pytest.fixture(scope="module")
def setup():
    db = synthetic_database(40, avg_edges=16, density=0.3, num_labels=5, seed=3)
    queries = synthetic_query_set(
        30, avg_edges=16, density=0.3, num_labels=5, seed=99
    )
    features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=5)
    space = FeatureSpace(features, len(db))
    return db, queries, space


@pytest.fixture(scope="module")
def mapping(setup):
    _db, _queries, space = setup
    return mapping_from_selection(space, variance_selection(space, 20))


@pytest.fixture(scope="module")
def tie_heavy_mapping(setup):
    """Three dimensions only: almost every distance value is tied."""
    _db, _queries, space = setup
    return mapping_from_selection(space, variance_selection(space, 3))


def _assert_identical(reference, batch):
    assert len(reference) == len(batch)
    for a, b in zip(reference, batch):
        assert a.ranking == b.ranking
        assert a.scores == b.scores


class TestBitIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 40])
    def test_matches_engine_across_shard_counts(
        self, setup, mapping, n_shards
    ):
        _db, queries, _space = setup
        reference = mapping.query_engine().batch_query(queries, 7)
        with mapping.query_service(n_shards=n_shards) as service:
            _assert_identical(reference, service.batch_query(queries, 7))

    @pytest.mark.parametrize("n_shards", [1, 3, 6])
    def test_tie_heavy_rankings_identical(
        self, setup, tie_heavy_mapping, n_shards
    ):
        _db, queries, _space = setup
        engine = tie_heavy_mapping.query_engine()
        reference = engine.batch_query(queries, 9)
        # Sanity: the workload really is tie-heavy at the k-boundary.
        distances = tie_heavy_mapping.query_distances(
            reference.query_vectors
        )
        assert any(
            (row == sorted(row)[8]).sum() > 1 for row in distances
        )
        with tie_heavy_mapping.query_service(n_shards=n_shards) as service:
            _assert_identical(reference, service.batch_query(queries, 9))

    def test_permuted_custom_shards(self, setup, mapping):
        _db, queries, _space = setup
        rng = np.random.default_rng(0)
        perm = rng.permutation(mapping.database_vectors.shape[0])
        shards = [perm[:13], perm[13:20], perm[20:]]
        reference = mapping.query_engine().batch_query(queries, 5)
        with mapping.query_service(shards=shards) as service:
            _assert_identical(reference, service.batch_query(queries, 5))

    def test_dspmap_partition_shards(self, setup, mapping):
        """DSPMap's similarity blocks plug straight in as shards."""
        _db, queries, space = setup
        incidence = space.incidence.astype(float)

        def hamming(i: int, j: int) -> float:
            return float(np.abs(incidence[i] - incidence[j]).sum())

        solver = DSPMap(10, partition_size=12, seed=0)
        solver.fit(space, _db, delta_fn=hamming)
        assert len(solver.partitions_) > 1
        reference = mapping.query_engine().batch_query(queries, 6)
        with mapping.query_service(shards=solver.partitions_) as service:
            _assert_identical(reference, service.batch_query(queries, 6))

    def test_vector_path_matches_engine(self, setup, mapping):
        _db, queries, _space = setup
        engine = mapping.query_engine()
        vectors = engine.embed_many(queries)
        reference = engine.batch_query(queries, 4)
        with mapping.query_service(n_shards=4) as service:
            results = service.batch_query_vectors(vectors, 4)
            _assert_identical(reference, results)

    def test_single_query_and_k_capping(self, setup, mapping):
        _db, queries, _space = setup
        n = mapping.database_vectors.shape[0]
        engine = mapping.query_engine()
        with mapping.query_service(n_shards=3) as service:
            a = engine.query(queries[0], n + 25)
            b = service.query(queries[0], n + 25)
            assert a.ranking == b.ranking and a.scores == b.scores
            assert len(b.ranking) == n
            with pytest.raises(QueryError):
                service.batch_query(queries, 0)


# ----------------------------------------------------------------------
# block top-k: the batch's candidates are arrays, the answers the same
# ----------------------------------------------------------------------
PARITY_K = 8
PARITY_POLICIES = {
    "exact": None,
    "full": SearchPolicy(prune=False),
    "nprobe": SearchPolicy(mode="approx", nprobe=2),
    "auto": SearchPolicy(mode="approx", nprobe="auto"),
}


def _custom_shards():
    """Four non-contiguous, unsorted shards over the 48 clustered rows:
    the cluster blocks with rows swapped across them, the last one
    smaller (5 rows) than ``PARITY_K``."""
    owner = np.repeat(np.arange(4), 12)
    owner[[3, 7]] = [1, 2]
    owner[[40, 45]] = 0
    owner[[41, 42, 43]] = 1
    owner[[44, 46]] = 2
    return [np.flatnonzero(owner == s)[::-1] for s in range(4)]


PARITY_LAYOUTS = {
    "contiguous": {"n_shards": 4},
    "custom": {"shards": _custom_shards()},
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _answers(results):
    return [[r.ranking, r.scores] for r in results]


def _trace_counts(trace):
    return [
        trace.visited.tolist(),
        trace.skipped.tolist(),
        trace.bound_checks.tolist(),
        trace.shard_tasks,
        trace.shards_skipped,
    ]


#: What the commit before block top-k (per-row ``rank_with_ties``,
#: per-query ``RunningTopK`` heaps) returned for `parity_index` —
#: ``(layout, policy) -> (answers digest, trace digest of one 16-query
#: batch, its distance evaluations)``.  Approx answers
#: have no other oracle; exact answers are also checked against the
#: naive engine.
#:
#: Three trace digests were re-recorded when a batch no round could
#: skip anything for became one block of all rows (one task where four
#: blocks were four; every answer digest unchanged): both ``full`` rows,
#: and ``("custom", "exact")`` — where the feasibility check reads
#: "nothing can be skipped", so its evaluations went 581 -> 768.  The
#: contiguous cluster layout still goes to rounds and still skips.
PARENT_RECORD = {
    ("contiguous", "exact"): ("0d06bda19658559f", "3f6ec5bf8084e2dd", 492),
    ("contiguous", "full"): ("0d06bda19658559f", "22e4287b56159b34", 768),
    ("contiguous", "nprobe"): ("f9e078dfd4dc4ccf", "0bbd6e39a4c73c58", 348),
    ("contiguous", "auto"): ("0d06bda19658559f", "09181926298b26e1", 276),
    ("custom", "exact"): ("0d06bda19658559f", "19f0da3ba220f7b3", 768),
    ("custom", "full"): ("0d06bda19658559f", "22e4287b56159b34", 768),
    ("custom", "nprobe"): ("8cb5b70086358f9e", "2e520db5133fd9c4", 379),
    ("custom", "auto"): ("0d06bda19658559f", "d2af6076b168bdf5", 549),
}


@pytest.fixture(scope="module")
def parity_index():
    mapping, _blocks = clustered_vector_index(4, 12, 6, seed=5)
    vectors = clustered_query_vectors(16, 4, 6, seed=6)
    return mapping, vectors


class TestBlockTopKParity:
    @pytest.mark.parametrize("layout", sorted(PARITY_LAYOUTS))
    @pytest.mark.parametrize("n_workers", [0, 1])
    def test_answers_match_naive_engine_and_parent(
        self, parity_index, layout, n_workers
    ):
        """Both worker counts the service still accepts run the one
        inline executor, so both return the parent's answers."""
        mapping, vectors = parity_index
        naive = MappedTopKEngine(mapping)
        reference = [naive.query_from_vector(v, PARITY_K) for v in vectors]
        with QueryService(
            mapping, n_workers=n_workers, **PARITY_LAYOUTS[layout]
        ) as service:
            # Shard rows are sorted global ids.
            assert all((np.diff(s.indices) > 0).all() for s in service.shards)
            if layout == "custom":
                assert min(s.num_rows for s in service.shards) < PARITY_K
            for name, policy in PARITY_POLICIES.items():
                for size in (16, 5, 1):
                    results = []
                    for lo in range(0, len(vectors), size):
                        results += service.batch_query_vectors(
                            vectors[lo : lo + size], PARITY_K, policy
                        )
                    if name in ("exact", "full"):
                        _assert_identical(reference, results)
                    assert (
                        _digest(_answers(results))
                        == PARENT_RECORD[layout, name][0]
                    ), (layout, name, size)

    @pytest.mark.parametrize("layout", sorted(PARITY_LAYOUTS))
    @pytest.mark.parametrize("name", sorted(PARITY_POLICIES))
    def test_trace_and_evaluations_match_parent(
        self, parity_index, layout, name
    ):
        mapping, vectors = parity_index
        with QueryService(mapping, **PARITY_LAYOUTS[layout]) as service:
            _results, trace = service.batch_query_vectors_traced(
                vectors, PARITY_K, PARITY_POLICIES[name]
            )
            assert (
                _digest(_trace_counts(trace)),
                service.stats.distance_evaluations,
            ) == PARENT_RECORD[layout, name][1:]

    @pytest.mark.parametrize("name", sorted(PARITY_POLICIES))
    def test_one_rank_call_per_shard_task(
        self, parity_index, name, monkeypatch
    ):
        """A 16-query batch ranks each computed shard block in one call
        and never merges per query."""
        mapping, vectors = parity_index
        calls = {"rank": 0, "merge": 0}
        rank_counts = service_module.rank_counts

        def counting_rank(counts, ids, k):
            calls["rank"] += 1
            return rank_counts(counts, ids, k)

        def counting_merge(parts, k):
            calls["merge"] += 1

        monkeypatch.setattr(service_module, "rank_counts", counting_rank)
        monkeypatch.setattr(
            "repro.query.topk.merge_candidates", counting_merge
        )
        with QueryService(mapping, n_shards=4) as service:
            _results, trace = service.batch_query_vectors_traced(
                vectors, PARITY_K, PARITY_POLICIES[name]
            )
        assert calls == {"rank": trace.shard_tasks, "merge": 0}
        if name != "auto":  # auto probes in rounds: one call per group
            assert trace.shard_tasks <= 4


# ----------------------------------------------------------------------
# a round must be able to skip something: else one block of all rows
# ----------------------------------------------------------------------
def _one_cluster(p):
    """48 rows of one distribution: no shard is farther than another."""
    mapping, _blocks = clustered_vector_index(1, 48, p, fill=0.5, seed=8)
    vectors = clustered_query_vectors(16, 1, p, fill=0.5, seed=9)
    return mapping, vectors


@pytest.fixture
def counted_ranks(monkeypatch):
    """Counts ``rank_counts`` calls: one per block the executor computes."""
    calls = []
    rank_counts = service_module.rank_counts

    def counting(counts, ids, k):
        calls.append(counts.shape)
        return rank_counts(counts, ids, k)

    monkeypatch.setattr(service_module, "rank_counts", counting)
    return calls


class TestWholeScan:
    """The side of the choice `TestBlockTopKParity`'s clustered layout
    does not take: when no (query, shard) bound clears even the cap on
    the final k-th-best, an exact batch is one group over one block of
    all rows — one task, one ``rank_counts`` call — and the answers are
    the naive engine's, to the bit."""

    @pytest.fixture(
        scope="class", params=["contiguous", "custom", "tie-heavy"]
    )
    def unskippable(self, request, parity_index):
        if request.param == "custom":
            mapping, vectors = parity_index
            return mapping, vectors, {"shards": _custom_shards()}
        # p = 3: eight distinct rows, almost every distance tied.
        p = 3 if request.param == "tie-heavy" else 6
        return (*_one_cluster(p), {"n_shards": 4})

    @pytest.mark.parametrize("size", [16, 5, 1])
    @pytest.mark.parametrize("name", ["exact", "full"])
    def test_one_block_answers_like_the_naive_engine(
        self, unskippable, counted_ranks, name, size
    ):
        mapping, vectors, layout = unskippable
        naive = MappedTopKEngine(mapping)
        reference = [naive.query_from_vector(v, PARITY_K) for v in vectors]
        n = mapping.database_vectors.shape[0]
        with QueryService(mapping, **layout) as service:
            ns = len(service.shards)
            results = []
            for batches, lo in enumerate(range(0, len(vectors), size), 1):
                batch = vectors[lo : lo + size]
                answers, trace = service.batch_query_vectors_traced(
                    batch, PARITY_K, PARITY_POLICIES[name]
                )
                results += answers
                assert counted_ranks == [(len(batch), n)]
                del counted_ranks[:]
                assert (trace.shard_tasks, trace.shards_skipped) == (1, 0)
                assert (trace.visited == ns).all()
                assert not trace.skipped.any()
                # The pairs whose bound was read: all of them, or none.
                read = ns if name == "exact" else 0
                assert (trace.bound_checks == read).all()
                assert service.stats.whole_scans == batches
                assert service.stats.shard_tasks == batches
            assert service.stats.shards_skipped == 0
            assert service.stats.distance_evaluations == len(vectors) * n
        _assert_identical(reference, results)

    @pytest.mark.parametrize("nprobe", ["all", "auto"])
    def test_routed_batch_goes_in_rounds_even_here(
        self, unskippable, counted_ranks, nprobe
    ):
        """The one block is exact mode's plan only: a routed batch on
        the same rows still runs a round per shard, one ``rank_counts``
        call per task — and routed to every shard it is the naive
        engine's answer."""
        mapping, vectors, layout = unskippable
        with QueryService(mapping, **layout) as service:
            ns = len(service.shards)
            policy = SearchPolicy(
                mode="approx", nprobe=ns if nprobe == "all" else nprobe
            )
            results, trace = service.batch_query_vectors_traced(
                vectors, PARITY_K, policy
            )
            assert service.stats.whole_scans == 0
            assert len(counted_ranks) == trace.shard_tasks
            n = mapping.database_vectors.shape[0]
            assert all(rows < n for _nq, rows in counted_ranks)
            assert (trace.visited <= ns).all()
        assert all(len(r.ranking) == PARITY_K for r in results)
        if nprobe == "all":
            naive = MappedTopKEngine(mapping)
            _assert_identical(
                [naive.query_from_vector(v, PARITY_K) for v in vectors],
                results,
            )

    def test_a_batch_keeps_the_rows_it_snapshotted(self, setup):
        """Whole block, shard list and stack are one generation: a batch
        holding a pre-update snapshot answers from the pre-update rows
        after ``apply_update`` has swapped the next generation in."""
        db, queries, space = setup
        features = [
            FrequentSubgraph(f.graph, set(f.support)) for f in space.features
        ]
        fresh = FeatureSpace(features, space.n)
        mapping = mapping_from_selection(fresh, variance_selection(fresh, 20))
        with mapping.query_service(n_shards=4) as service:
            vectors = service.embed_batch(queries[:8])
            before = service.batch_query_vectors(vectors, 7)
            held = service._snapshot
            service.apply_update(added=queries[20:24], removed=[0, 7, 33])
            assert service._snapshot is not held
            assert held.whole.num_rows != service._snapshot.whole.num_rows
            stale, trace = service._query_vectors(vectors, 7, held, None)
            _assert_identical(before, stale)
            assert trace.shard_tasks == 1  # ... through the whole block
            after = service.batch_query_vectors(vectors, 7)
            assert service.stats.whole_scans == 3
            naive = MappedTopKEngine(mapping)
            _assert_identical(
                [naive.query_from_vector(v, 7) for v in vectors], after
            )
            assert [r.ranking for r in after] != [r.ranking for r in before]


class TestVectorBoundary:
    """``batch_query_vectors`` is where vectors from outside arrive."""

    @pytest.mark.parametrize("policy", [None, SearchPolicy(prune=False)])
    @pytest.mark.parametrize(
        "shape, fill, expected",
        [
            ((4, 20), np.nan, "finite"),
            ((4, 20), np.inf, "finite"),
            ((4, 19), 0.0, r"width 20.*\(4, 19\)"),
            ((4, 21), 0.0, r"width 20.*\(4, 21\)"),
            ((20,), 0.0, r"2-d.*\(20,\)"),
        ],
        ids=["nan", "inf", "narrow", "wide", "1-d"],
    )
    def test_malformed_vectors_are_refused(
        self, mapping, policy, shape, fill, expected
    ):
        with mapping.query_service(n_shards=3) as service:
            with pytest.raises(QueryError, match=expected):
                service.batch_query_vectors(np.full(shape, fill), 3, policy)
            assert service.stats.shard_tasks == 0

    @pytest.mark.parametrize(
        "policy",
        [
            None,
            SearchPolicy(prune=False),
            SearchPolicy(mode="approx", nprobe=2),
            SearchPolicy(mode="approx", nprobe="auto"),
            SearchPolicy(mode="graph"),
        ],
        ids=["exact", "full", "nprobe-2", "nprobe-auto", "graph"],
    )
    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0])
    def test_non_binary_vectors_are_refused(self, mapping, policy, bad):
        """Every mode scores on bits, so a block with any entry other
        than 0 or 1 is refused before a shard (or graph) is touched."""
        block = mapping.database_vectors[:4].copy()
        block[2, 3] = bad
        with mapping.query_service(n_shards=3) as service:
            with pytest.raises(QueryError, match="0/1.*got 1 other"):
                service.batch_query_vectors(block, 3, policy)
            assert service.stats.shard_tasks == 0


class TestShardValidation:
    def test_incomplete_partition_rejected(self, mapping):
        with pytest.raises(ValueError):
            QueryService(mapping, shards=[np.arange(10)])

    def test_overlapping_partition_rejected(self, mapping):
        n = mapping.database_vectors.shape[0]
        with pytest.raises(ValueError):
            QueryService(mapping, shards=[np.arange(n), np.array([0])])

    def test_zero_shards_rejected(self, mapping):
        with pytest.raises(ValueError):
            QueryService(mapping, n_shards=0)


class TestEmbeddingCache:
    def test_repeats_hit_the_cache(self, setup, mapping):
        _db, queries, _space = setup
        with mapping.query_service(n_shards=2) as service:
            first = service.batch_query(queries, 5)
            assert service.stats.cache_hits == 0
            assert service.stats.embedded_queries == len(queries)
            second = service.batch_query(queries, 5)
            assert service.stats.cache_hits == len(queries)
            assert service.stats.embedded_queries == len(queries)
            _assert_identical(first, second)

    def test_in_batch_duplicates_embed_once(self, setup, mapping):
        _db, queries, _space = setup
        batch = [queries[0], queries[1], queries[0], queries[0]]
        reference = mapping.query_engine().batch_query(batch, 5)
        with mapping.query_service(n_shards=2) as service:
            result = service.batch_query(batch, 5)
            assert service.stats.embedded_queries == 2
            assert service.stats.cache_hits == 2
            _assert_identical(reference, result)

    def test_clear_cache_re_embeds(self, setup, mapping):
        _db, queries, _space = setup
        with mapping.query_service(n_shards=2) as service:
            service.batch_query(queries[:4], 5)
            service.clear_cache()
            service.batch_query(queries[:4], 5)
            assert service.stats.embedded_queries == 8
            assert service.stats.cache_hits == 0

    def test_cache_disabled_still_identical(self, setup, mapping):
        _db, queries, _space = setup
        reference = mapping.query_engine().batch_query(queries, 5)
        with mapping.query_service(n_shards=2, cache_size=0) as service:
            service.batch_query(queries, 5)
            result = service.batch_query(queries, 5)
            assert service.stats.cache_hits == 0
            assert service.stats.embedded_queries == 2 * len(queries)
            _assert_identical(reference, result)

    def test_in_batch_duplicates_dedup_without_cache(self, setup, mapping):
        _db, queries, _space = setup
        batch = [queries[0], queries[0], queries[1], queries[0]]
        reference = mapping.query_engine().batch_query(batch, 5)
        with mapping.query_service(n_shards=2, cache_size=0) as service:
            result = service.batch_query(batch, 5)
            assert service.stats.embedded_queries == 2
            _assert_identical(reference, result)
            # ... but nothing persists across batches without a cache.
            service.batch_query(batch[:1], 5)
            assert service.stats.embedded_queries == 3

    def test_cache_eviction_respects_capacity(self, setup, mapping):
        _db, queries, _space = setup
        with mapping.query_service(n_shards=2, cache_size=3) as service:
            service.batch_query(queries[:10], 5)
            assert len(service._cache) == 3


class TestLiveUpdates:
    """apply_update: bit-identical to a from-scratch engine, minimal
    shard churn, and an embedding cache that survives (φ(q) depends only
    on the selected patterns)."""

    @pytest.fixture()
    def mutable_mapping(self, setup):
        _db, _queries, space = setup
        from repro.features.binary_matrix import FeatureSpace
        from repro.mining.gspan import FrequentSubgraph

        copies = [
            FrequentSubgraph(f.graph, set(f.support)) for f in space.features
        ]
        fresh = FeatureSpace(copies, space.n)
        return mapping_from_selection(fresh, variance_selection(fresh, 20))

    @pytest.fixture()
    def extra(self):
        return synthetic_query_set(
            6, avg_edges=16, density=0.3, num_labels=5, seed=1234
        )

    def test_update_bit_identical_to_fresh_engine(
        self, setup, mutable_mapping, extra
    ):
        _db, queries, _space = setup
        with mutable_mapping.query_service(n_shards=4) as service:
            service.batch_query(queries, 7)
            service.apply_update(added=extra, removed=[0, 7, 33, 39])
            reference = mutable_mapping.query_engine().batch_query(queries, 7)
            _assert_identical(reference, service.batch_query(queries, 7))
            # ... and against a completely fresh service over the
            # mutated mapping, across a different shard count.
            with mutable_mapping.query_service(n_shards=3) as fresh:
                _assert_identical(reference, fresh.batch_query(queries, 7))

    def test_update_rebuilds_only_affected_shards(
        self, setup, mutable_mapping, extra
    ):
        _db, queries, _space = setup
        with mutable_mapping.query_service(n_shards=4) as service:
            old_ids = {id(s) for s in service.shards}
            # Rows 0 and 1 live in shard 0; adds land in one shard.
            service.apply_update(added=extra[:2], removed=[0, 1])
            assert service.stats.updates == 1
            assert service.stats.shards_rebuilt <= 2
            # Every slot holds a fresh object (renumbered or rebuilt),
            # keeping in-flight snapshots of the old list consistent.
            assert all(id(s) not in old_ids for s in service.shards)
            assert sum(s.num_rows for s in service.shards) == (
                mutable_mapping.database_vectors.shape[0]
            )
            reference = mutable_mapping.query_engine().batch_query(queries, 5)
            _assert_identical(reference, service.batch_query(queries, 5))

    def test_cache_survives_update(self, setup, mutable_mapping, extra):
        _db, queries, _space = setup
        with mutable_mapping.query_service(n_shards=2) as service:
            service.batch_query(queries, 5)
            hits_before = service.stats.cache_hits
            service.apply_update(added=extra[:2])
            service.batch_query(queries, 5)
            # Every query repeats: all served from the surviving cache.
            assert service.stats.cache_hits == hits_before + len(queries)
            reference = mutable_mapping.query_engine().batch_query(queries, 5)
            _assert_identical(reference, service.batch_query(queries, 5))

    def test_tie_heavy_update_identical(self, setup, extra):
        _db, queries, space = setup
        from repro.features.binary_matrix import FeatureSpace
        from repro.mining.gspan import FrequentSubgraph

        copies = [
            FrequentSubgraph(f.graph, set(f.support)) for f in space.features
        ]
        fresh = FeatureSpace(copies, space.n)
        tie_mapping = mapping_from_selection(
            fresh, variance_selection(fresh, 3)
        )
        with tie_mapping.query_service(n_shards=3) as service:
            service.apply_update(added=extra, removed=[4, 9])
            reference = tie_mapping.query_engine().batch_query(queries, 9)
            _assert_identical(reference, service.batch_query(queries, 9))

    def test_empty_update_is_noop(self, setup, mutable_mapping):
        with mutable_mapping.query_service(n_shards=2) as service:
            shards = list(service.shards)
            service.apply_update()
            assert len(service.shards) == len(shards)
            assert all(a is b for a, b in zip(service.shards, shards))
            assert service.stats.updates == 0

    def test_out_of_band_mutation_detected(self, setup, mutable_mapping, extra):
        with mutable_mapping.query_service(n_shards=2) as service:
            mutable_mapping.add_graphs(extra[:1])  # behind the service's back
            with pytest.raises(ValueError, match="out of sync"):
                service.apply_update(removed=[0])

    def test_rejected_add_after_applied_removal_stays_in_sync(
        self, setup, mutable_mapping, extra, monkeypatch
    ):
        """If the add half raises after the removal already applied, the
        exception propagates but the service must finish the removal's
        shard swap — no permanent desync."""
        from repro.query.engine import QueryEngine

        _db, queries, _space = setup
        with mutable_mapping.query_service(n_shards=3) as service:
            n = mutable_mapping.database_vectors.shape[0]

            def failing_embed(self, graphs):
                raise RuntimeError("embedding failed")

            with monkeypatch.context() as patch:
                patch.setattr(QueryEngine, "embed_many", failing_embed)
                with pytest.raises(RuntimeError, match="embedding failed"):
                    service.apply_update(added=extra, removed=[0])
            # Removal applied, add failed; service still serves and
            # mutates consistently.
            assert mutable_mapping.database_vectors.shape[0] == n - 1
            assert sum(s.num_rows for s in service.shards) == n - 1
            reference = mutable_mapping.query_engine().batch_query(queries, 5)
            _assert_identical(reference, service.batch_query(queries, 5))
            service.apply_update(added=extra[:1])  # no out-of-sync error
            assert sum(s.num_rows for s in service.shards) == n
            reference = mutable_mapping.query_engine().batch_query(queries, 5)
            _assert_identical(reference, service.batch_query(queries, 5))

    def test_drift_crossing_update_flags_and_never_changes_phi(
        self, setup, mutable_mapping, extra
    ):
        """An update past ``max_drift`` is still only an update: it sets
        ``stale`` and leaves the selection, the engine's patterns and
        every cached embedding alone, rebuilding just the shards that
        lost or gained rows."""
        from repro.core.mapping import StalenessPolicy

        _db, queries, _space = setup
        mutable_mapping.staleness_policy = StalenessPolicy(max_drift=0.0)
        with mutable_mapping.query_service(n_shards=4) as service:
            service.batch_query(queries, 5)
            selected = list(mutable_mapping.selected)
            patterns = list(service.engine.patterns)
            cached = {key: vec.copy() for key, vec in service._cache.items()}
            assert cached and not mutable_mapping.stale

            # Rows 0 and 1 live in shard 0; adds land in one shard.
            service.apply_update(added=extra[:2], removed=[0, 1])

            assert mutable_mapping.stale
            assert mutable_mapping.selected == selected
            assert len(service.engine.patterns) == len(patterns)
            assert all(
                a is b for a, b in zip(service.engine.patterns, patterns)
            )
            assert list(service._cache) == list(cached)
            for key, vec in cached.items():
                assert np.array_equal(service._cache[key], vec)
            assert service.stats.shards_rebuilt <= 2
            assert service.stats.reselections == 0
            reference = mutable_mapping.query_engine().batch_query(queries, 5)
            _assert_identical(reference, service.batch_query(queries, 5))

    def test_reselection_clears_cache_and_rebuilds_all(
        self, setup, mutable_mapping, extra
    ):
        from repro.core.mapping import StalenessPolicy
        from repro.core.mapping import variance_selection as reselect

        _db, queries, _space = setup

        def reselection_hook(m):
            m.apply_selection(reselect(m.space, 18))

        mutable_mapping.staleness_policy = StalenessPolicy(max_drift=0.0)
        with mutable_mapping.query_service(n_shards=3) as service:
            service.batch_query(queries, 5)
            service.apply_update(added=extra[:1])
            assert mutable_mapping.stale and len(service._cache) > 0
            rebuilt = service.stats.shards_rebuilt
            assert service.apply_reselection(reselection_hook)
            assert len(service._cache) == 0  # φ changed: cache invalid
            assert not mutable_mapping.stale
            assert service.stats.shards_rebuilt == rebuilt + 3
            assert service._snapshot.p == 18
            reference = mutable_mapping.query_engine().batch_query(queries, 5)
            _assert_identical(reference, service.batch_query(queries, 5))


def _assert_shards_are_their_rows(service):
    """Every serving shard is exactly its rows, and everything else on
    it is what one derivation from those rows gives; the block of all
    rows is every shard's planes."""
    vectors = service.mapping.database_vectors
    for shard in service.shards:
        rows = vectors[shard.indices]
        assert shard.planes.dtype == np.uint64
        assert shard.planes.shape == (-(-rows.shape[1] // 64), len(rows))
        assert np.array_equal(shard.planes, kernels.pack_rows(rows))
        fresh = ShardSummary.from_vectors(rows)
        assert shard.summary.num_rows == fresh.num_rows == len(shard.indices)
        assert shard.summary.radius == fresh.radius
        for field in ("centroid", "dim_min", "dim_max"):
            assert np.array_equal(
                getattr(shard.summary, field), getattr(fresh, field)
            )
    covered = np.sort(np.concatenate([s.indices for s in service.shards]))
    assert np.array_equal(covered, np.arange(vectors.shape[0]))
    whole = service._snapshot.whole
    assert np.array_equal(
        whole.planes, kernels.pack_rows(vectors[whole.indices])
    )
    assert service._snapshot.p == vectors.shape[1]


class TestShardIsItsRows:
    """A shard holds its row block and what is derived from it — after
    construction and after every operation that swaps a shard list in."""

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_after_construction(self, mapping, layout):
        n = mapping.database_vectors.shape[0]
        how = {
            "contiguous": {"n_shards": 5},
            "strided": {
                "shards": [np.arange(n)[s::3][::-1] for s in range(3)]
            },
        }[layout]
        with QueryService(mapping, **how) as service:
            _assert_shards_are_their_rows(service)

    def test_after_updates_and_reselection(self, setup):
        from repro.features.binary_matrix import FeatureSpace
        from repro.mining.gspan import FrequentSubgraph

        _db, queries, space = setup
        fresh = FeatureSpace(
            [FrequentSubgraph(f.graph, set(f.support)) for f in space.features],
            space.n,
        )
        mutable = mapping_from_selection(fresh, variance_selection(fresh, 20))
        extra = synthetic_query_set(
            4, avg_edges=16, density=0.3, num_labels=5, seed=1234
        )
        with mutable.query_service(n_shards=4) as service:
            # Rows 0 and 1 leave shard 0, the adds land in one shard; at
            # least two shards are only renumbered and must keep their
            # planes and summary by identity — nothing re-packed.
            before = list(service.shards)
            service.apply_update(added=extra[:2], removed=[0, 1])
            assert service.stats.shards_rebuilt <= 2
            kept = [
                (old, new)
                for old, new in zip(before, service.shards)
                if new.planes is old.planes
            ]
            assert len(kept) >= 2
            for old, new in kept:
                assert new is not old
                assert new.summary is old.summary
                assert not np.array_equal(new.indices, old.indices)
            _assert_shards_are_their_rows(service)

            service.apply_update(removed=[5])  # rows lost only
            _assert_shards_are_their_rows(service)
            service.apply_update(added=extra[2:])  # rows added only
            _assert_shards_are_their_rows(service)

            def reselect(m):
                m.apply_selection(variance_selection(m.space, 18))

            assert service.apply_reselection(reselect)
            assert service._snapshot.p == 18
            _assert_shards_are_their_rows(service)
            reference = mutable.query_engine().batch_query(queries, 5)
            _assert_identical(reference, service.batch_query(queries, 5))

    @pytest.mark.asyncio
    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    async def test_after_load_and_frontend_reload(
        self, mapping, tmp_path, mmap
    ):
        from repro.index import load_index, save_index
        from repro.serving.frontend import AsyncFrontend, FrontendConfig

        path = tmp_path / "index.json"
        save_index(mapping, path)
        mapping.artifact_ref = None  # keep the module fixture pristine
        mapping.journal_seq = 0
        service = QueryService(load_index(path, mmap=mmap), n_shards=3)
        _assert_shards_are_their_rows(service)
        frontend = AsyncFrontend(service, FrontendConfig())
        try:
            await frontend.start()
            response = await frontend.handle_request(
                {"op": "reload", "id": 1, "path": str(path)}
            )
            assert response["ok"]
            assert frontend.service is not service
            assert len(frontend.service.shards) == 3
            _assert_shards_are_their_rows(frontend.service)
        finally:
            await frontend.aclose()


class TestLifecycle:
    def test_close_is_idempotent(self, setup, mapping):
        _db, queries, _space = setup
        service = QueryService(mapping, n_shards=2)
        service.batch_query(queries[:4], 3)
        service.close()
        service.close()
        # Nothing was released: the service still answers.
        service.batch_query(queries[:4], 3)

    @pytest.mark.parametrize("n_workers", [0, 1])
    def test_n_workers_zero_and_one_both_run_inline(
        self, setup, mapping, n_workers
    ):
        _db, queries, _space = setup
        reference = mapping.query_engine().batch_query(queries, 5)
        service = QueryService(mapping, n_shards=3, n_workers=n_workers)
        _assert_identical(reference, service.batch_query(queries, 5))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_workers": 2}, "n_workers must be 0 or 1"),
            ({"n_workers": -1}, "n_workers must be 0 or 1"),
            ({"cache_size": -1}, "cache_size must be >= 0"),
        ],
        ids=["two-workers", "negative-workers", "negative-cache"],
    )
    def test_refuses_unusable_settings(self, mapping, kwargs, message):
        """A second core is a second replica, not a worker count; and a
        negative cache is an error, not a disabled one."""
        with pytest.raises(ValueError, match=message):
            QueryService(mapping, n_shards=2, **kwargs)

    def test_close_safe_on_partially_constructed_instance(self):
        """close() on an instance whose __init__ never ran (the state a
        constructor exception leaves behind) must not raise."""
        service = QueryService.__new__(QueryService)
        service.close()
        service.close()

    def test_constructor_failure_then_close(self, mapping):
        import numpy as np

        try:
            service = QueryService(mapping, shards=[np.arange(10)])
        except ValueError:
            pass
        else:  # pragma: no cover - construction must fail
            service.close()
            pytest.fail("invalid shards must be rejected")

    def test_shard_tasks_and_cache_misses_populated(self, setup, mapping):
        _db, queries, _space = setup
        with mapping.query_service(n_shards=3) as service:
            service.batch_query(queries[:8], 5)
            assert service.stats.cache_misses == 8
            assert service.stats.cache_hits == 0
            service.batch_query(queries[:8], 5)
            assert service.stats.cache_misses == 8
            assert service.stats.cache_hits == 8
            # A batch is one block of all rows (one task, nothing
            # skipped) or per-shard rounds whose computed + skipped
            # blocks account for every shard — which, depends on how
            # the random data clusters.
            whole = service.stats.whole_scans
            assert (
                service.stats.shard_tasks + service.stats.shards_skipped
                == whole + 3 * (2 - whole)
            )

    def test_cache_disabled_counts_no_misses(self, setup, mapping):
        _db, queries, _space = setup
        with mapping.query_service(n_shards=2, cache_size=0) as service:
            service.batch_query(queries[:5], 3)
            assert service.stats.cache_misses == 0
            assert service.stats.cache_hits == 0

    def test_empty_batch(self, mapping):
        with mapping.query_service(n_shards=2) as service:
            batch = service.batch_query([], 5)
            assert len(batch) == 0
            assert batch.query_vectors.shape == (0, mapping.dimensionality)

    def test_stats_populated(self, setup, mapping):
        _db, queries, _space = setup
        with mapping.query_service(n_shards=2) as service:
            service.batch_query(queries[:6], 5)
            assert service.stats.batches == 1
            assert service.stats.queries == 6
            assert service.stats.vf2_calls > 0

    def test_service_uses_memoised_engine(self, mapping):
        with mapping.query_service(n_shards=2) as service:
            assert service.engine is mapping.query_engine()
