"""The search policies and the bounded shard-skipping tier, end to end.

Exact mode is the scan: one block of all rows, no bound read, answers
bit-identical to the engine's.  Fixed ``nprobe`` is the scan of its
routed shards: one round, no bound read; routed to every shard
(``nprobe`` = the shard count) it must answer exactly as the scan does,
across shard counts, shard modes, tie-heavy workloads and
post-``apply_update`` states.  The bounds' soundness is pinned where
they are read, by ``nprobe="auto"``'s stop rule.  Approx mode, the
summaries' absence from the artifact, DSPMap routing, and the wire
protocol's ``search``/``pruning`` fields are covered alongside.
"""

import dataclasses
import json

import numpy as np
import pytest

from clustered import clustered_query_vectors, clustered_vector_index
from repro.core.dspmap import DSPMap
from repro.core.mapping import mapping_from_selection, variance_selection
from repro.datasets import synthetic_database, synthetic_query_set
from repro.features.binary_matrix import FeatureSpace
from repro.graph.labeled_graph import LabeledGraph
from repro.index import journal_path, load_index, save_index
from repro.mining import mine_frequent_subgraphs
from repro.query.pruning import (
    PruningTrace,
    SearchPolicy,
    ShardSummary,
    shard_centroid_distances,
    shard_lower_bounds,
    stack_summaries,
    topk_recall,
)
from repro.serving import protocol
from repro.serving.frontend import AsyncFrontend, FrontendConfig
from repro.serving.service import QueryService
from repro.utils.errors import ProtocolError, QueryError

N_CLUSTERS = 3
PER_CLUSTER = 12
NUM_LABELS = 4


def offset_graph(g: LabeledGraph, offset: int) -> LabeledGraph:
    """Shift every label by *offset*: disjoint alphabets per cluster."""
    labels = [g.vertex_label(v) + offset for v in range(g.num_vertices)]
    edges = [(e.u, e.v, e.label) for e in g.edges()]
    return LabeledGraph(labels, edges, graph_id=f"{g.graph_id}o{offset}")


def make_clustered(per_cluster=PER_CLUSTER, queries_per_cluster=4):
    """A database of label-disjoint clusters + per-cluster query lists.

    Features mined from one cluster can only match that cluster's
    graphs (and queries), so the embedding is block-structured — the
    geometry DSPMap partitions produce, at unit-test scale.
    """
    db, per_cluster_queries = [], []
    for c in range(N_CLUSTERS):
        base = synthetic_database(
            per_cluster, avg_edges=14, density=0.3,
            num_labels=NUM_LABELS, seed=100 + c,
        )
        db.extend(offset_graph(g, c * NUM_LABELS) for g in base)
        qs = synthetic_query_set(
            queries_per_cluster, avg_edges=14, density=0.3,
            num_labels=NUM_LABELS, seed=500 + c,
        )
        per_cluster_queries.append(
            [offset_graph(q, c * NUM_LABELS) for q in qs]
        )
    features = mine_frequent_subgraphs(db, min_support=0.12, max_edges=4)
    space = FeatureSpace(features, len(db))
    mapping = mapping_from_selection(space, variance_selection(space, 24))
    blocks = [
        np.arange(c * per_cluster, (c + 1) * per_cluster, dtype=np.int64)
        for c in range(N_CLUSTERS)
    ]
    return db, per_cluster_queries, mapping, blocks


@pytest.fixture(scope="module")
def clustered():
    return make_clustered()


@pytest.fixture(scope="module")
def random_setup():
    db = synthetic_database(40, avg_edges=16, density=0.3, num_labels=5, seed=3)
    queries = synthetic_query_set(
        20, avg_edges=16, density=0.3, num_labels=5, seed=99
    )
    features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=5)
    space = FeatureSpace(features, len(db))
    return queries, mapping_from_selection(space, variance_selection(space, 20))


def _assert_identical(reference, batch):
    assert len(reference) == len(batch)
    for a, b in zip(reference, batch):
        assert a.ranking == b.ranking
        assert a.scores == b.scores


class TestSearchPolicy:
    def test_default_is_exact_and_three_fields(self):
        policy = SearchPolicy()
        assert policy.mode == "exact"
        assert [f.name for f in dataclasses.fields(SearchPolicy)] == [
            "mode", "nprobe", "ef",
        ]

    def test_unknown_mode_rejected(self):
        with pytest.raises(QueryError, match="unknown search mode"):
            SearchPolicy(mode="fuzzy")

    def test_approx_requires_nprobe(self):
        with pytest.raises(QueryError, match="nprobe"):
            SearchPolicy(mode="approx")
        with pytest.raises(QueryError, match="nprobe"):
            SearchPolicy(mode="approx", nprobe=0)

    def test_nprobe_rejected_for_exact(self):
        with pytest.raises(QueryError, match="only applies"):
            SearchPolicy(mode="exact", nprobe=2)

    def test_bool_nprobe_rejected(self):
        # bool passes isinstance(..., int); the wire layer always
        # rejected it, but the dataclass used to read True as nprobe=1.
        with pytest.raises(QueryError, match="integer nprobe"):
            SearchPolicy(mode="approx", nprobe=True)

    def test_bool_ef_rejected(self):
        with pytest.raises(QueryError, match="integer ef"):
            SearchPolicy(mode="graph", ef=True)

    def test_auto_nprobe_accepted(self):
        policy = SearchPolicy(mode="approx", nprobe="auto")
        assert policy.nprobe == "auto"

    def test_numpy_integers_accepted_and_stored_as_int(self, random_setup):
        """A count is any integer, not only a Python ``int``, as in
        ``FrontendConfig``; it is stored as ``int``, so the trace's
        ``nprobe`` reaches a response as a JSON number."""
        approx = SearchPolicy(mode="approx", nprobe=np.int64(2))
        graph = SearchPolicy(mode="graph", ef=np.int64(40))
        assert type(approx.nprobe) is int and type(graph.ef) is int
        assert approx == SearchPolicy(mode="approx", nprobe=2)
        assert graph == SearchPolicy(mode="graph", ef=40)
        queries, mapping = random_setup
        with mapping.query_service(n_shards=4) as service:
            _result, _gen, trace = service.batch_query_traced(
                queries[:2], 5, approx
            )
        (section,) = json.loads(json.dumps(trace.payloads([2])))
        assert section["nprobe"] == 2

    def test_prune_is_not_a_field(self):
        """Exact is the scan and approx always reads its bounds: there
        is no pruning switch left to pass."""
        with pytest.raises(TypeError, match="prune"):
            SearchPolicy(prune=False)
        with pytest.raises(TypeError, match="prune"):
            SearchPolicy(mode="approx", nprobe="auto", prune=True)

    def test_hashable_for_coalescing(self):
        assert hash(SearchPolicy()) == hash(SearchPolicy())
        groups = {
            SearchPolicy(): 1,
            SearchPolicy(mode="approx", nprobe=2): 2,
            SearchPolicy(mode="approx", nprobe="auto"): 3,
        }
        assert groups[SearchPolicy()] == 1
        assert groups[SearchPolicy(mode="approx", nprobe="auto")] == 3


class TestShardSummary:
    def test_bounds_never_exceed_true_minimum(self, clustered):
        """The load-bearing invariant, on real mined embeddings (the
        hypothesis suite fuzzes it on adversarial vectors)."""
        _db, per_cluster_queries, mapping, blocks = clustered
        engine = mapping.query_engine()
        queries = [q for qs in per_cluster_queries for q in qs]
        vectors = engine.embed_many(queries)
        stack = stack_summaries([
            ShardSummary.from_vectors(mapping.database_vectors[block])
            for block in blocks
        ])
        bounds, _centroid_d = shard_lower_bounds(
            vectors, stack, mapping.dimensionality
        )
        distances = mapping.query_distances(vectors)
        for qi in range(len(queries)):
            for si, block in enumerate(blocks):
                true_min = distances[qi, block].min()
                assert bounds[qi, si] <= true_min + 1e-12


class TestExactIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 40])
    def test_matches_engine_across_shard_counts(self, random_setup, n_shards):
        queries, mapping = random_setup
        reference = mapping.query_engine().batch_query(queries, 7)
        with mapping.query_service(n_shards=n_shards) as service:
            _assert_identical(
                reference, service.batch_query(queries, 7, SearchPolicy())
            )

    def test_tie_heavy_identity(self, random_setup):
        queries, mapping = random_setup
        tie_mapping = mapping_from_selection(
            mapping.space, variance_selection(mapping.space, 3)
        )
        reference = tie_mapping.query_engine().batch_query(queries, 9)
        with tie_mapping.query_service(n_shards=4) as service:
            _assert_identical(reference, service.batch_query(queries, 9))

    def test_routed_to_every_shard_clustered_batches_stay_identical(
        self, clustered
    ):
        _db, per_cluster_queries, mapping, blocks = clustered
        engine = mapping.query_engine()
        everywhere = SearchPolicy(mode="approx", nprobe=len(blocks))
        with QueryService(engine, shards=blocks) as service:
            batches = 0
            for cluster_queries in per_cluster_queries:
                reference = engine.batch_query(cluster_queries, 5)
                result, _gen, trace = service.batch_query_traced(
                    cluster_queries, 5, everywhere
                )
                _assert_identical(reference, result.results)
                batches += 1
            # Routed to every shard, every shard is scored once per
            # batch and no bound is read.
            assert service.stats.bound_checks == 0
            assert (
                service.stats.shard_tasks + service.stats.shards_skipped
                == batches * len(blocks)
            )

    def test_exact_batch_reads_no_bound_and_is_one_task(
        self, clustered, monkeypatch
    ):
        """An exact batch is the scan: no shard bound is computed, one
        task covers every row, and no bound check is counted."""
        from repro.serving import service as service_module

        def refuse(*_args, **_kwargs):
            raise AssertionError("an exact batch computed a shard bound")

        monkeypatch.setattr(service_module, "shard_lower_bounds", refuse)
        _db, per_cluster_queries, mapping, blocks = clustered
        engine = mapping.query_engine()
        with QueryService(engine, shards=blocks) as service:
            for cluster_queries in per_cluster_queries:
                reference = engine.batch_query(cluster_queries, 5)
                result, _gen, trace = service.batch_query_traced(
                    cluster_queries, 5
                )
                _assert_identical(reference, result.results)
                assert (trace.shard_tasks, trace.shards_skipped) == (1, 0)
                assert (trace.visited == len(blocks)).all()
                assert not trace.bound_checks.any()
            batches = len(per_cluster_queries)
            assert service.stats.whole_scans == batches
            assert service.stats.shard_tasks == batches
            assert service.stats.bound_checks == 0
            assert service.stats.shards_skipped == 0

    def test_identity_after_apply_update_routed_to_every_shard(
        self, clustered
    ):
        db, per_cluster_queries, _mapping, _blocks = clustered
        # A private mapping: apply_update mutates supports in place.
        _db2, queries2, mapping, blocks = make_clustered()
        extra = [
            offset_graph(g, 0)
            for g in synthetic_query_set(
                2, avg_edges=14, density=0.3, num_labels=NUM_LABELS, seed=900
            )
        ]
        with QueryService(
            mapping.query_engine(), shards=blocks
        ) as service:
            before = [
                shard.summary for shard in service.shards
            ]
            service.apply_update(added=extra, removed=[0, 13])
            # Untouched shards keep their summary object (maintained,
            # not recomputed); mutated ones were rebuilt.
            reused = sum(
                1
                for shard in service.shards
                if any(shard.summary is s for s in before)
            )
            assert 0 < reused < len(service.shards)
            reference = mapping.query_engine().batch_query(queries2[1], 5)
            result, _gen, trace = service.batch_query_traced(
                queries2[1],
                5,
                SearchPolicy(mode="approx", nprobe=len(service.shards)),
            )
            _assert_identical(reference, result.results)
            assert (trace.visited == len(service.shards)).all()

    @pytest.mark.parametrize("n_shards", [2, 4, 5])
    def test_unskippable_batch_is_one_block_single_threaded(
        self, random_setup, n_shards, monkeypatch
    ):
        """An exact batch is one group over one block of all rows — one
        task, one ``rank_counts`` call, no bound read — and the trace
        still accounts for every shard."""
        from repro.serving import service as service_module

        queries, mapping = random_setup
        reference = mapping.query_engine().batch_query(queries, 7)
        ranked = []
        rank_counts = service_module.rank_counts
        monkeypatch.setattr(
            service_module,
            "rank_counts",
            lambda c, ids, k: ranked.append(c.shape) or rank_counts(c, ids, k),
        )
        with mapping.query_service(n_shards=n_shards) as service:
            result, _gen, trace = service.batch_query_traced(queries, 7)
            _assert_identical(reference, result.results)
            assert ranked == [(len(queries), mapping.space.n)]
            assert trace.shard_tasks == service.stats.whole_scans == 1
            assert (trace.visited == n_shards).all()
            assert not trace.bound_checks.any()
            assert trace.shards_skipped == 0

    def test_trace_routed_to_every_shard_accounts_for_every_shard(
        self, clustered
    ):
        _db, per_cluster_queries, mapping, blocks = clustered
        with QueryService(
            mapping.query_engine(), shards=blocks
        ) as service:
            _result, _gen, trace = service.batch_query_traced(
                per_cluster_queries[1],
                5,
                SearchPolicy(mode="approx", nprobe=len(blocks)),
            )
            per_query = trace.visited + trace.skipped
            assert (per_query == len(blocks)).all()
            assert (trace.visited == len(blocks)).all()
            assert not trace.bound_checks.any()

    def test_empty_batch_trace(self, random_setup):
        _queries, mapping = random_setup
        with mapping.query_service(n_shards=3) as service:
            result, _gen, trace = service.batch_query_traced([], 5)
            assert len(result) == 0
            assert trace.payloads([0])[0]["shards_visited"] == 0

    @pytest.mark.parametrize(
        "policy",
        [
            None,
            SearchPolicy(mode="approx", nprobe=2),
            SearchPolicy(mode="approx", nprobe="auto"),
            SearchPolicy(mode="graph"),
        ],
        ids=["exact", "nprobe", "auto", "graph"],
    )
    def test_empty_vector_batch_runs_nothing(self, random_setup, policy):
        """No queries: no round runs, whatever plan was asked for — a
        zero-length trace, and not one service counter moves (nor is a
        proximity graph built to search it with nothing)."""
        _queries, mapping = random_setup
        with mapping.query_service(n_shards=3) as service:
            before = dataclasses.asdict(service.stats)
            results, trace = service.batch_query_vectors_traced(
                np.zeros((0, mapping.dimensionality)), 5, policy
            )
            assert results == []
            assert len(trace.visited) == len(trace.skipped) == 0
            assert (trace.shard_tasks, trace.shards_skipped) == (0, 0)
            totals = json.loads(json.dumps(trace.payloads([0])[0]))
            assert totals["shards_visited"] == totals["shards_skipped"] == 0
            assert totals["bound_checks"] == 0
            assert dataclasses.asdict(service.stats) == before
            assert service._graph is None


class TestApproxMode:
    def test_nprobe_all_shards_equals_exact(self, random_setup):
        queries, mapping = random_setup
        reference = mapping.query_engine().batch_query(queries, 6)
        with mapping.query_service(n_shards=4) as service:
            result = service.batch_query(
                queries, 6, SearchPolicy(mode="approx", nprobe=4)
            )
            _assert_identical(reference, result.results)

    def test_nprobe_bounds_visits_and_keeps_recall(self, clustered):
        _db, per_cluster_queries, mapping, blocks = clustered
        engine = mapping.query_engine()
        k = 5
        overlaps = []
        with QueryService(engine, shards=blocks) as service:
            for cluster_queries in per_cluster_queries:
                reference = engine.batch_query(cluster_queries, k)
                result, _gen, trace = service.batch_query_traced(
                    cluster_queries, k, SearchPolicy(mode="approx", nprobe=1)
                )
                assert (trace.visited <= 1).all()
                assert trace.nprobe == 1
                overlaps.extend(
                    len(set(a.ranking) & set(b.ranking)) / k
                    for a, b in zip(reference, result.results)
                )
        # Label-disjoint clusters: the routed shard holds the answers.
        assert np.mean(overlaps) >= 0.9

    @pytest.mark.parametrize("nprobe", [1, 2, N_CLUSTERS])
    def test_fixed_nprobe_reads_no_bound_and_scores_its_route_once(
        self, clustered, monkeypatch, nprobe
    ):
        """Fixed ``nprobe`` is one round: each routed shard is scored
        once, for the queries routed to it, and no bound is computed
        or checked.  The answer is the top-k of the routed rows, ranked
        on ``(distance, row)`` — the engine's order."""
        from repro.serving import service as service_module

        def refuse(*_args, **_kwargs):
            raise AssertionError("a fixed-nprobe batch read a shard bound")

        monkeypatch.setattr(service_module, "shard_lower_bounds", refuse)
        monkeypatch.setattr(service_module, "prunable_mask", refuse)
        scored = []
        shard_topk = QueryService._shard_topk
        monkeypatch.setattr(
            QueryService,
            "_shard_topk",
            staticmethod(
                lambda shard, planes, k: scored.append(shard)
                or shard_topk(shard, planes, k)
            ),
        )
        _db, per_cluster_queries, mapping, blocks = clustered
        engine = mapping.query_engine()
        queries = [q for qs in per_cluster_queries for q in qs]
        vectors = engine.embed_many(queries)
        k = 5
        stack = stack_summaries([
            ShardSummary.from_vectors(mapping.database_vectors[block])
            for block in blocks
        ])
        routes = np.argsort(
            shard_centroid_distances(vectors, stack), axis=1, kind="stable"
        )[:, :nprobe]  # every cluster holds >= k rows
        distances = mapping.query_distances(vectors)
        with QueryService(engine, shards=blocks) as service:
            results, trace = service.batch_query_vectors_traced(
                vectors, k, SearchPolicy(mode="approx", nprobe=nprobe)
            )
            routed_shards = np.unique(routes)
            assert len(scored) == trace.shard_tasks == len(routed_shards)
            assert len({id(shard) for shard in scored}) == len(scored)
            assert trace.shards_skipped == len(blocks) - len(routed_shards)
            assert (trace.visited == nprobe).all()
            assert not trace.bound_checks.any()
            assert service.stats.bound_checks == 0
        for qi, answer in enumerate(results):
            rows = np.concatenate([blocks[si] for si in routes[qi]])
            best = sorted(rows.tolist(), key=lambda r: (distances[qi, r], r))
            assert answer.ranking == best[:k]
            assert answer.scores == [float(distances[qi, r]) for r in best[:k]]

    def test_routing_extends_past_tiny_shards_to_fill_k(
        self, random_setup
    ):
        """nprobe routed shards holding < k rows must not shorten the
        answer: routing widens until k rows are covered."""
        queries, mapping = random_setup
        n = mapping.database_vectors.shape[0]
        shards = [np.array([0]), np.array([1]), np.arange(2, n)]
        with mapping.query_service(shards=shards) as service:
            result, _gen, trace = service.batch_query_traced(
                queries[:4], 5, SearchPolicy(mode="approx", nprobe=1)
            )
            for answer in result.results:
                assert len(answer.ranking) == 5
                assert len(answer.scores) == 5
            # Coverage, not a blanket widening: at most the two tiny
            # shards plus the big one are ever needed for 5 rows.
            assert (trace.visited + trace.skipped == len(shards)).all()

    def test_oversized_nprobe_is_clamped(self, random_setup):
        queries, mapping = random_setup
        reference = mapping.query_engine().batch_query(queries, 4)
        with mapping.query_service(n_shards=3) as service:
            result, _gen, trace = service.batch_query_traced(
                queries, 4, SearchPolicy(mode="approx", nprobe=99)
            )
            _assert_identical(reference, result.results)
            assert trace.nprobe == 3

    def test_auto_nprobe_keeps_recall_on_routable_traffic(self, clustered):
        """The adaptive stop rule must not trade recall for probes on
        traffic the partitions can actually route."""
        _db, per_cluster_queries, mapping, blocks = clustered
        engine = mapping.query_engine()
        k = 5
        overlaps = []
        with QueryService(engine, shards=blocks) as service:
            for cluster_queries in per_cluster_queries:
                reference = engine.batch_query(cluster_queries, k)
                result, _gen, trace = service.batch_query_traced(
                    cluster_queries, k,
                    SearchPolicy(mode="approx", nprobe="auto"),
                )
                assert trace.nprobe == "auto"
                assert trace.effective_nprobe is not None
                assert (trace.effective_nprobe >= 1).all()
                assert (trace.effective_nprobe <= len(blocks)).all()
                # The trace reports the probes actually spent.
                np.testing.assert_array_equal(
                    trace.effective_nprobe, trace.visited
                )
                for answer in result.results:
                    assert len(answer.ranking) == k
                overlaps.extend(
                    len(set(a.ranking) & set(b.ranking)) / k
                    for a, b in zip(reference, result.results)
                )
        assert np.mean(overlaps) >= 0.9

    def test_auto_nprobe_stops_early_on_clustered_queries(self, clustered):
        """Cluster-homed queries satisfy the bound after their home
        shard: the mean probe count must sit below a full sweep."""
        _db, per_cluster_queries, mapping, blocks = clustered
        with QueryService(
            mapping.query_engine(), shards=blocks
        ) as service:
            queries = [q for block in per_cluster_queries for q in block]
            _result, _gen, trace = service.batch_query_traced(
                queries, 3, SearchPolicy(mode="approx", nprobe="auto")
            )
            assert trace.effective_nprobe.mean() < len(blocks)


class TestClusteredWorkCounts:
    """Distance work at matched recall, as counts (no clock).

    8 cluster shards x 250 rows, p = 128, 64 queries in batches of 16,
    k = 10, seed 0 — tight, well-separated clusters, the regime the
    routing and graph tiers are built for.  ``distance_evaluations``
    counts (query, row) pairs and repeats exactly for the seed; the
    numbers in the comments are what this shape read when recorded.
    """

    K = 10
    BATCH = 16
    SHAPE = dict(fill=0.95, noise=0.002)

    @pytest.fixture(scope="class")
    def service(self):
        mapping, blocks = clustered_vector_index(
            8, 250, 16, seed=0, **self.SHAPE
        )
        with QueryService(
            mapping.query_engine(), shards=blocks, cache_size=0
        ) as service:
            yield service

    def _pass(self, service, queries, policy):
        """(answers, distance evaluations, per-query shards visited)."""
        before = service.stats.distance_evaluations
        answers, visited = [], []
        for lo in range(0, len(queries), self.BATCH):
            batch, trace = service.batch_query_vectors_traced(
                queries[lo : lo + self.BATCH], self.K, policy
            )
            answers.extend(batch)
            visited.extend(trace.visited)
        evals = service.stats.distance_evaluations - before
        return answers, evals, visited

    @staticmethod
    def _recall(truth, answers):
        return float(
            np.mean([topk_recall(a, b) for a, b in zip(truth, answers)])
        )

    def test_graph_beam_beats_routing_at_matched_recall(self, service):
        """Session-like traffic (each batch stays in one cluster): the
        cheapest ``ef`` that reaches recall 0.9 pays strictly fewer
        evaluations than the cheapest ``nprobe`` that does — routing
        pays ``nprobe x rows-per-shard`` however soon the answer
        settles, the beam only the rows it walks past."""
        queries = clustered_query_vectors(
            64, 8, 16, seed=10_000, block_size=self.BATCH, **self.SHAPE
        )
        truth, full_evals, _ = self._pass(service, queries, SearchPolicy())
        assert full_evals == 64 * 2000  # 128,000

        def cheapest(points):
            hits = [evals for recall, evals in points if recall >= 0.9]
            assert hits, f"no operating point reached recall 0.9: {points}"
            return min(hits)

        routed, beam = [], []
        for nprobe in (1, 2, 4):
            answers, evals, _ = self._pass(
                service, queries, SearchPolicy(mode="approx", nprobe=nprobe)
            )
            routed.append((self._recall(truth, answers), evals))
        for ef in (16, 32, 64):
            answers, evals, _ = self._pass(
                service, queries, SearchPolicy(mode="graph", ef=ef)
            )
            assert 0 < evals < full_evals
            beam.append((self._recall(truth, answers), evals))
        # nprobe=1: recall 1.000 at 16,000; ef=16/32/64: recall 0.861 /
        # 0.964 / 0.998 at 4,512 / 5,947 / 8,317.
        assert cheapest(beam) < cheapest(routed)

    def test_auto_nprobe_beats_fixed_on_mixed_traffic(self, service):
        """Rotating traffic (every query in a batch from a different
        cluster): a fixed ``nprobe`` visits shards in one batch-wide
        order and pays for probes a query no longer needs, ``"auto"``
        orders shards per query and stops each one as soon as the
        remaining bounds clear its k-th best."""
        queries = clustered_query_vectors(
            64, 8, 16, seed=20_000, **self.SHAPE
        )
        truth, _, _ = self._pass(service, queries, SearchPolicy())
        fixed, fixed_evals, _ = self._pass(
            service, queries, SearchPolicy(mode="approx", nprobe=4)
        )
        auto, auto_evals, probes = self._pass(
            service, queries, SearchPolicy(mode="approx", nprobe="auto")
        )
        assert self._recall(truth, fixed) >= 0.9
        assert self._recall(truth, auto) >= 0.9
        assert auto_evals < fixed_evals  # 16,000 vs 44,250
        assert np.mean(probes) <= 4  # 1.0: every query stops at home


class TestDSPMapRouting:
    def test_partition_shards_route_home(self, clustered):
        """Serving over ``DSPMap.partitions_`` is the served way to shard
        by partition: approx mode routes by the blocks' own centroids."""
        db, per_cluster_queries, mapping, _blocks = clustered
        incidence = mapping.space.incidence.astype(float)

        def hamming(i: int, j: int) -> float:
            return float(np.abs(incidence[i] - incidence[j]).sum())

        solver = DSPMap(10, partition_size=14, seed=0)
        solver.fit(mapping.space, db, delta_fn=hamming)
        assert len(solver.partitions_) > 1
        engine = mapping.query_engine()
        queries = [qs[0] for qs in per_cluster_queries]
        with QueryService(
            engine, shards=solver.partitions_
        ) as service:
            assert len(service.shards) == len(solver.partitions_)
            home = np.argmin(
                shard_centroid_distances(
                    engine.embed_many(queries),
                    stack_summaries([s.summary for s in service.shards]),
                ),
                axis=1,
            )
            result, _gen, _trace = service.batch_query_traced(
                queries, 3, SearchPolicy(mode="approx", nprobe=1)
            )
            # nprobe=1 stays inside each query's first-choice block.
            for qi, answer in enumerate(result.results):
                block = {int(i) for i in solver.partitions_[int(home[qi])]}
                assert set(answer.ranking) <= block


def _parent_summaries_section(mapping, blocks, seq=0):
    """A ``shard_summaries`` manifest section exactly as the build
    before this one wrote it (that writer is gone; manifests it wrote
    are not)."""
    from repro.index.artifact import _entry_digest

    summaries = [
        ShardSummary.from_vectors(mapping.database_vectors[block])
        for block in blocks
    ]
    section = {
        "seq": seq,
        "layouts": [{
            "blocks": [[int(i) for i in block] for block in blocks],
            "summaries": [
                {
                    "num_rows": s.num_rows,
                    "centroid": s.centroid.tolist(),
                    "radius": s.radius,
                    "dim_min": s.dim_min.tolist(),
                    "dim_max": s.dim_max.tolist(),
                }
                for s in summaries
            ],
        }],
    }
    section["sha256"] = _entry_digest(section)
    return section


class TestArtifactSummaries:
    """Summaries are derived where the rows are gathered: the artifact
    neither carries them nor reads a copy an older build left behind."""

    POLICIES = (
        SearchPolicy(),
        SearchPolicy(mode="approx", nprobe=1),
        SearchPolicy(mode="approx", nprobe="auto"),
    )

    def _served(self, path, blocks, queries, mmap):
        with QueryService(
            load_index(path, mmap=mmap), shards=blocks
        ) as service:
            out = []
            for policy in self.POLICIES:
                result, _generation, trace = service.batch_query_traced(
                    queries, 5, policy
                )
                out.append((
                    [(r.ranking, r.scores) for r in result.results],
                    trace.payloads([len(queries)]),
                ))
            return out

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    @pytest.mark.parametrize(
        "section", ["intact", "stale_seq", "shrunk_radius", "not_a_partition"]
    )
    def test_parent_written_section_cannot_influence_answers(
        self, tmp_path, clustered, section, mmap
    ):
        """An intact section, one naming a journal position that never
        was, one with a shrunken radius (which, trusted, would make
        exact mode skip shards holding true answers) and one whose
        blocks do not partition the database all load, and the index
        answers exactly as the one saved without the section."""
        _db, per_cluster_queries, mapping, blocks = clustered
        queries = [q for qs in per_cluster_queries for q in qs]
        clean, old = tmp_path / "clean.json", tmp_path / "old.json"
        save_index(mapping, clean)
        save_index(mapping, old)
        manifest = json.loads(old.read_text())
        assert "shard_summaries" not in manifest
        entry = _parent_summaries_section(
            mapping, blocks, seq=7 if section == "stale_seq" else 0
        )
        # Checksums left stale, as tampering leaves them.
        if section == "shrunk_radius":
            entry["layouts"][0]["summaries"][0]["radius"] *= 0.1
        if section == "not_a_partition":
            entry["layouts"][0]["blocks"] = [[0, 1]]
        manifest["shard_summaries"] = entry
        old.write_text(json.dumps(manifest))
        assert self._served(old, blocks, queries, mmap) == self._served(
            clean, blocks, queries, mmap
        )

    def test_save_never_writes_summaries(self, tmp_path):
        """Building, querying and updating a service leaves nothing
        behind for ``save_index``: full and delta saves write the bytes
        they write for a mapping no service ever saw."""
        _db, queries, mapping, blocks = make_clustered()
        # Same file name on both sides: the manifest names its sidecar.
        cold, warm = tmp_path / "cold" / "i.json", tmp_path / "warm" / "i.json"
        cold.parent.mkdir()
        warm.parent.mkdir()
        save_index(mapping, cold)
        with QueryService(mapping, shards=blocks) as service:
            service.batch_query(queries[0], 5)
            save_index(mapping, warm)  # new path: the full-base writer
        assert "shard_summaries" not in json.loads(warm.read_text())
        assert warm.read_bytes() == cold.read_bytes()

        extra = [
            offset_graph(g, NUM_LABELS)
            for g in synthetic_query_set(
                2, avg_edges=14, density=0.3, num_labels=NUM_LABELS, seed=901
            )
        ]
        unserved, served = load_index(cold), load_index(warm)
        unserved.remove_graphs([1])
        unserved.add_graphs(extra)
        save_index(unserved, cold)
        with QueryService(served, shards=blocks) as service:
            service.batch_query(queries[1], 5)
            service.apply_update(added=extra, removed=[1])
            service.batch_query(queries[1], 5)
            save_index(served, warm)  # same artifact: the delta path
        assert served.journal_seq == unserved.journal_seq == 2
        assert "shard_summaries" not in json.loads(warm.read_text())
        assert warm.read_bytes() == cold.read_bytes()
        assert (
            journal_path(warm).read_bytes() == journal_path(cold).read_bytes()
        )


class TestProtocol:
    def test_search_field_parsed(self):
        request = protocol.parse_request(
            json.dumps({
                "op": "query", "id": 1, "k": 3,
                "graph": {"vertices": ["0"], "edges": []},
                "search": {"mode": "approx", "nprobe": 2},
            })
        )
        policy = protocol.search_policy_from_request(request)
        assert policy == SearchPolicy(mode="approx", nprobe=2)

    def test_auto_nprobe_parses(self):
        request = protocol.parse_request(
            json.dumps({
                "op": "query", "id": 1, "k": 3,
                "graph": {"vertices": ["0"], "edges": []},
                "search": {"mode": "approx", "nprobe": "auto"},
            })
        )
        policy = protocol.search_policy_from_request(request)
        assert policy == SearchPolicy(mode="approx", nprobe="auto")

    def test_missing_search_means_none(self):
        assert protocol.search_policy_from_request({"op": "query"}) is None

    def test_non_object_search_rejected(self):
        with pytest.raises(ProtocolError, match="'search'"):
            protocol.parse_request(
                json.dumps({
                    "op": "query", "id": 1, "k": 3,
                    "graph": {"vertices": ["0"], "edges": []},
                    "search": "approx",
                })
            )

    @pytest.mark.parametrize(
        "section",
        [
            {"mode": "fuzzy"},
            {"mode": "approx"},
            {"mode": "approx", "nprobe": 0},
            {"mode": "approx", "nprobe": True},
            {"mode": "approx", "nprobe": "2"},
            {"mode": "exact", "nprobe": 2},
            {"prune": "no"},
            {"mode": "exact", "turbo": True},
            # No pruning switch: exact is the scan, approx reads bounds.
            {"mode": "exact", "prune": False},
        ],
    )
    def test_bad_search_sections_rejected(self, section):
        with pytest.raises(ProtocolError):
            protocol.search_policy_from_request({"search": section})


class TestFrontendPolicies:
    @pytest.fixture()
    def materials(self, clustered):
        _db, per_cluster_queries, mapping, blocks = clustered
        service = QueryService(
            mapping.query_engine(), shards=blocks
        )
        return per_cluster_queries, mapping, service

    @pytest.mark.asyncio
    @pytest.mark.timeout(30)
    async def test_per_response_pruning_stats(self, materials):
        per_cluster_queries, mapping, service = materials
        frontend = AsyncFrontend(service)
        engine = mapping.query_engine()
        try:
            await frontend.start()
            q = per_cluster_queries[0][0]
            wire = protocol.graph_to_wire(q)
            response = await frontend.handle_request({
                "op": "query", "id": "p1", "k": 3, "graph": wire,
            })
            assert response["ok"]
            truth = engine.query(q, 3)
            assert response["ranking"] == truth.ranking
            assert response["scores"] == truth.scores
            pruning = response["pruning"]
            # Exact is the scan: every shard visited, no bound read.
            assert pruning == {
                "mode": "exact",
                "shards_visited": len(service.shards),
                "shards_skipped": 0,
                "bound_checks": 0,
            }
            approx = await frontend.handle_request({
                "op": "query", "id": "p2", "k": 3, "graph": wire,
                "search": {"mode": "approx", "nprobe": 1},
            })
            assert approx["ok"]
            assert approx["pruning"]["mode"] == "approx"
            assert approx["pruning"]["nprobe"] == 1
            assert approx["pruning"]["shards_visited"] <= 1
            bad = await frontend.handle_request({
                "op": "query", "id": "p3", "k": 3, "graph": wire,
                "search": {"mode": "warp"},
            })
            assert not bad["ok"]
            assert bad["error"] == "bad_request"
            knob = await frontend.handle_request({
                "op": "query", "id": "p4", "k": 3, "graph": wire,
                "search": {"prune": False},
            })
            assert (knob["ok"], knob["error"]) == (False, "bad_request")
            assert "prune" in knob["message"]
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    @pytest.mark.timeout(30)
    async def test_auto_tier_reports_effective_nprobe(self, materials):
        per_cluster_queries, _mapping, service = materials
        frontend = AsyncFrontend(service)
        try:
            await frontend.start()
            q = per_cluster_queries[0][0]
            response = await frontend.handle_request({
                "op": "query", "id": "a1", "k": 3,
                "graph": protocol.graph_to_wire(q),
                "search": {"mode": "approx", "nprobe": "auto"},
            })
            assert response["ok"]
            assert len(response["ranking"]) == 3
            pruning = response["pruning"]
            assert pruning["mode"] == "approx"
            assert pruning["nprobe"] == "auto"
            # One query: the mean over the slice IS its probe count.
            assert 1 <= pruning["effective_nprobe"] <= len(service.shards)
            assert pruning["shards_visited"] == pruning["effective_nprobe"]
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    @pytest.mark.timeout(30)
    async def test_mixed_policies_coalesce_separately(self, materials):
        per_cluster_queries, mapping, service = materials
        frontend = AsyncFrontend(
            service,
            FrontendConfig(batch_size=8, batch_window=0.05),
        )
        engine = mapping.query_engine()
        queries = [qs[0] for qs in per_cluster_queries]
        try:
            await frontend.start()
            import asyncio

            exact_tasks = [
                asyncio.ensure_future(frontend.submit([q], 4))
                for q in queries
            ]
            approx_tasks = [
                asyncio.ensure_future(
                    frontend.submit(
                        [q], 4,
                        policy=SearchPolicy(mode="approx", nprobe=1),
                    )
                )
                for q in queries
            ]
            done = await asyncio.gather(*exact_tasks, *approx_tasks)
            for (results, _gen, pruning), q in zip(
                done[: len(queries)], queries
            ):
                truth = engine.query(q, 4)
                assert results[0].ranking == truth.ranking
                assert results[0].scores == truth.scores
                assert pruning["mode"] == "exact"
            for (_results, _gen, pruning), _q in zip(
                done[len(queries):], queries
            ):
                assert pruning["mode"] == "approx"
        finally:
            await frontend.aclose()

    def test_config_has_no_default_policy(self):
        """A request names its own search; the server has none."""
        with pytest.raises(TypeError, match="default_policy"):
            FrontendConfig(
                default_policy=SearchPolicy(mode="approx", nprobe=1)
            )

    def test_stats_payload_carries_pruning_counters(self, materials):
        _queries, _mapping, service = materials
        frontend = AsyncFrontend(service)
        payload = frontend.stats_payload()
        assert "shards_skipped" in payload["service"]
        assert "bound_checks" in payload["service"]
        service.close()


class TestPruningTrace:
    def test_full_scan_trace_shape(self, random_setup):
        queries, mapping = random_setup
        with mapping.query_service(n_shards=4) as service:
            _result, _gen, trace = service.batch_query_traced(
                queries[:3], 5, SearchPolicy()
            )
        assert trace.payloads([3]) == [{
            "mode": "exact",
            "shards_visited": 12,
            "shards_skipped": 0,
            "bound_checks": 0,
        }]

    def test_payloads_partition_the_batch(self):
        trace = PruningTrace(
            mode="approx",
            nprobe=2,
            visited=np.array([1, 2, 3]),
            skipped=np.array([3, 2, 1]),
            bound_checks=np.array([4, 4, 4]),
        )
        first, rest = trace.payloads([1, 2])
        (totals,) = trace.payloads([3])
        for key in ("shards_visited", "shards_skipped", "bound_checks"):
            assert first[key] + rest[key] == totals[key]
