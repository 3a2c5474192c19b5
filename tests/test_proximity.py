"""Behaviour tests for the navigable proximity graph (graph-ANN tier).

The tier's contract, in order of importance:

* the canonical structure — incremental maintenance (appends, removals,
  mixed churn) produces neighbor tables **bit-identical** to a scratch
  rebuild, so graph-mode answers are reproducible under any update
  history;
* beam-search quality is monotone in the knob — recall never decreases
  as ``ef`` grows (a hypothesis property, guaranteed by construction:
  ``ef`` enters the search only through the termination test);
* answers pinned across commits — a digest record holds every query's
  ``(ranking, scores, hops, evals)``, since graph mode has no naive
  oracle — and the 0/1 contract: every way into the graph refuses
  vectors its popcount distance would score wrong;
* persistence — the checksummed v3 manifest section round-trips without
  triggering a KNN rebuild, fails loudly when corrupted, and is
  silently dropped (then lazily rebuilt) when it is stale;
* the serving plumbing — ``SearchPolicy(mode="graph")`` dispatches end
  to end, and malformed policies fail with structured errors that
  enumerate every accepted mode.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clustered import clustered_query_vectors, clustered_vector_index
from repro import kernels
from repro.core.mapping import mapping_from_selection
from repro.features.binary_matrix import FeatureSpace
from repro.graph.labeled_graph import LabeledGraph
from repro.index import load_index, save_index
from repro.index.artifact import _entry_digest
from repro.mining.gspan import FrequentSubgraph
from repro.query.proximity import ProximityGraph, _entry_points
from repro.query.pruning import SEARCH_MODES, SearchPolicy, default_ef
from repro.serving import protocol
from repro.serving.frontend import AsyncFrontend
from repro.serving.service import QueryService
from repro.utils.errors import (
    ArtifactCorruptError,
    ChecksumError,
    ProtocolError,
    QueryError,
)


def _binary_vectors(rng, n, p):
    return rng.integers(0, 2, size=(n, p)).astype(float)


def _exact_topk(vectors, query, k):
    """Ground-truth (distance, id)-ordered top-k by brute force."""
    p = vectors.shape[1]
    diff = vectors - query[None, :]
    d = np.sqrt((diff**2).sum(axis=1) / p) if p else np.zeros(len(vectors))
    order = np.lexsort((np.arange(len(d)), d))[:k]
    return [int(i) for i in order], [float(d[i]) for i in order]


def _vector_mapping(vectors):
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


def _row_graph(row, graph_id):
    dims = np.flatnonzero(row)
    if dims.size == 0:
        dims = np.array([0])
    return LabeledGraph([f"d{int(j)}" for j in dims], graph_id=graph_id)


class TestBuildAndSearch:
    def test_exhaustive_beam_equals_brute_force(self):
        rng = np.random.default_rng(7)
        vectors = _binary_vectors(rng, 40, 12)
        graph = ProximityGraph.build(vectors, max_degree=4)
        query = _binary_vectors(rng, 1, 12)[0]
        # ef = n leaves the tracker short of ef scores until every row
        # is seen, and the reseed rule restarts a dry frontier from the
        # smallest unvisited row — so the beam degenerates to an exact
        # scan.
        ranking, scores, hops, evals = graph.search(query, k=5, ef=40)
        truth_ids, truth_scores = _exact_topk(vectors, query, 5)
        assert ranking == truth_ids
        assert scores == truth_scores
        assert evals == 40  # every row evaluated exactly once
        assert hops > 0

    def test_search_reports_work_counters(self):
        rng = np.random.default_rng(3)
        vectors = _binary_vectors(rng, 60, 10)
        graph = ProximityGraph.build(vectors)
        _r, _s, hops, evals = graph.search(vectors[17], k=3, ef=8)
        assert 0 < evals <= 60
        assert hops >= 1

    def test_singleton_and_empty_databases(self):
        graph = ProximityGraph.build(np.ones((1, 4)))
        ranking, scores, _hops, evals = graph.search(np.ones(4), k=3, ef=2)
        assert ranking == [0] and scores == [0.0] and evals == 1
        empty = ProximityGraph.build(np.zeros((0, 4)))
        assert empty.search(np.zeros(4), k=3, ef=2) == ([], [], 0, 0)

    def test_bad_max_degree_rejected(self):
        with pytest.raises(QueryError):
            ProximityGraph.build(np.ones((3, 2)), max_degree=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_build_matches_brute_force_reference(self, seed):
        """Every list is the row's ``min(max_degree, n-1)`` nearest
        other rows under the (distance, id) order — here on few distinct
        rows (ties everywhere) and down to ``n <= max_degree``."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        max_degree = int(rng.integers(1, 10))
        pool = _binary_vectors(rng, 4, 5)
        vectors = pool[rng.integers(0, len(pool), size=n)]
        graph = ProximityGraph.build(vectors, max_degree=max_degree)
        diff = vectors[:, None, :] - vectors[None, :, :]
        dmat = np.sqrt((diff**2).sum(axis=2) / vectors.shape[1])
        m = min(max_degree, n - 1)
        assert graph.knn_ids.shape == graph.knn_dists.shape == (n, m)
        for i in range(n):
            others = np.delete(np.arange(n), i)
            order = np.lexsort((others, dmat[i, others]))[:m]
            assert graph.knn_ids[i].tolist() == others[order].tolist()
            assert graph.knn_dists[i].tolist() == (
                dmat[i, others[order]].tolist()
            )

    def test_reverse_links_match_reference(self):
        rng = np.random.default_rng(12)
        pool = _binary_vectors(rng, 6, 6)
        vectors = pool[rng.integers(0, len(pool), size=60)]  # popular rows
        graph = ProximityGraph.build(vectors, max_degree=3)
        offsets, ids = graph._reverse()
        assert offsets.shape == (61,)
        for j in range(60):
            listers = [i for i in range(60) if j in graph.knn_ids[i]]
            assert ids[offsets[j] : offsets[j + 1]].tolist() == listers[:6]

    @pytest.mark.parametrize("k", [5, 8])
    def test_seeds_trapped_in_a_small_component_still_fill_k(self, k):
        """Two far clusters, interleaved so every strided seed lands in
        the 4-row one: its KNN lists (and the reverse links) never leave
        it, so only the reseed rule reaches the other cluster."""
        n, p = 16, 6
        seeds = _entry_points(n)
        assert seeds.tolist() == [0, 5, 10, 15]
        vectors = np.ones((n, p))
        vectors[seeds] = 0.0
        graph = ProximityGraph.build(vectors, max_degree=3)
        query = np.zeros(p)
        truth = _exact_topk(vectors, query, k)
        for ef in (k, 8, 12, n, 2 * n):
            ranking, scores, _hops, evals = graph.search(query, k, ef)
            assert len(ranking) == k, ef
            assert set(ranking) >= set(seeds.tolist())
            if ef >= n:
                assert (ranking, scores) == truth
                assert evals == n

    def test_neighbors_are_undirected_and_deduplicated(self):
        rng = np.random.default_rng(11)
        vectors = _binary_vectors(rng, 30, 8)
        graph = ProximityGraph.build(vectors, max_degree=3)
        for node in (0, 7, 29):
            nb = graph.neighbors(node)
            assert node not in nb
            assert len(nb) == len(set(nb.tolist()))
            # out-links always included
            assert set(graph.knn_ids[node].tolist()) <= set(nb.tolist())
        # reverse reachability: anyone listing `node` sees it back
        listed_by = int(graph.knn_ids[5][0])
        assert 5 in graph.neighbors(listed_by) or listed_by in (
            graph.neighbors(5).tolist()
        )

    def test_entry_points_are_canonical(self):
        for n in (1, 2, 9, 100, 2000):
            entries = _entry_points(n)
            assert entries[0] == 0
            assert np.array_equal(entries, np.unique(entries))
            assert entries.min() >= 0 and entries.max() < n
            # pure function of n: identical across calls
            assert np.array_equal(entries, _entry_points(n))
        assert _entry_points(100)[-1] == 99  # strided ends at the last row


class TestIncrementalMaintenance:
    def test_append_matches_scratch_across_degree_cap(self):
        rng = np.random.default_rng(21)
        vectors = _binary_vectors(rng, 4, 6)
        graph = ProximityGraph.build(vectors, max_degree=8)
        # grow through the m = n-1 < max_degree regime and past it
        for extra in (2, 3, 8):
            vectors = np.vstack([vectors, _binary_vectors(rng, extra, 6)])
            graph = graph.with_appended(vectors)
            scratch = ProximityGraph.build(vectors, max_degree=8)
            assert np.array_equal(graph.knn_ids, scratch.knn_ids)
            assert np.array_equal(graph.knn_dists, scratch.knn_dists)

    def test_removal_matches_scratch(self):
        rng = np.random.default_rng(22)
        vectors = _binary_vectors(rng, 30, 8)
        graph = ProximityGraph.build(vectors, max_degree=4)
        removed = [0, 7, 13, 29]
        survivors = np.setdiff1d(np.arange(30), removed)
        graph = graph.with_removed(removed, vectors[survivors])
        scratch = ProximityGraph.build(vectors[survivors], max_degree=4)
        assert np.array_equal(graph.knn_ids, scratch.knn_ids)
        assert np.array_equal(graph.knn_dists, scratch.knn_dists)

    def test_mixed_churn_matches_scratch(self):
        rng = np.random.default_rng(23)
        vectors = _binary_vectors(rng, 20, 6)
        graph = ProximityGraph.build(vectors, max_degree=5)
        for step in range(4):
            removed = sorted(
                int(i)
                for i in rng.choice(len(vectors), size=3, replace=False)
            )
            vectors = np.delete(vectors, removed, axis=0)
            graph = graph.with_removed(removed, vectors)
            fresh = _binary_vectors(rng, 4, 6)
            vectors = np.vstack([vectors, fresh])
            graph = graph.with_appended(vectors)
            scratch = ProximityGraph.build(vectors, max_degree=5)
            assert np.array_equal(graph.knn_ids, scratch.knn_ids), step
            assert np.array_equal(graph.knn_dists, scratch.knn_dists), step

    def test_payload_round_trip_is_exact_and_buildless(self):
        rng = np.random.default_rng(24)
        vectors = _binary_vectors(rng, 25, 7)
        graph = ProximityGraph.build(vectors, max_degree=4)
        before = ProximityGraph.builds
        back = ProximityGraph.from_payload(
            json.loads(json.dumps(graph.to_payload())), vectors
        )
        assert ProximityGraph.builds == before
        assert np.array_equal(back.knn_ids, graph.knn_ids)
        assert np.array_equal(back.knn_dists, graph.knn_dists)


class TestEfMonotonicity:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 40),
        p=st.integers(1, 10),
        k=st.integers(1, 6),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_recall_non_decreasing_in_ef(self, seed, n, p, k):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        vectors = _binary_vectors(rng, n, p)
        graph = ProximityGraph.build(vectors)
        query = _binary_vectors(rng, 1, p)[0]
        truth = set(_exact_topk(vectors, query, k)[0])
        recalls = []
        for ef in (1, 2, 4, 8, 16, 32, 64):
            ranking, _s, _h, evals = graph.search(query, k, ef)
            assert len(ranking) == k, ef
            if ef >= n:
                assert evals == n, ef
            recalls.append(len(set(ranking) & truth) / k)
        assert recalls == sorted(recalls), recalls
        # ef >= n leaves the termination threshold unset until the
        # whole (connected) graph is explored: exact recall.
        assert recalls[-1] == 1.0


# ----------------------------------------------------------------------
# graph answers pinned across commits
# ----------------------------------------------------------------------
def _duplicate_heavy():
    """60 rows drawn from 3 distinct ones: each duplicate's list is the
    same few smallest-id twins and the reverse links are capped, so most
    rows are reachable from no seed — only the reseed rule finds them."""
    rng = np.random.default_rng(17)
    pool = _binary_vectors(rng, 3, 6)
    vectors = pool[rng.integers(0, len(pool), size=60)]
    queries = np.vstack([pool, _binary_vectors(rng, 5, 6)])
    return ProximityGraph.build(vectors, max_degree=2), queries, 5


def _parity_index_graph():
    """`tests/test_serving.py`'s 48-row ``parity_index`` and its 16
    queries, ``k = 8``."""
    mapping, _blocks = clustered_vector_index(4, 12, 6, seed=5)
    queries = clustered_query_vectors(16, 4, 6, seed=6)
    return ProximityGraph.build(mapping.database_vectors), queries, 8


def _vector_mix_graph():
    """``vector_mix``'s shape: 8 clusters × 500 rows, p = 128, k = 10."""
    mapping, _blocks = clustered_vector_index(8, 500, 16, seed=0)
    queries = clustered_query_vectors(32, 8, 16, seed=1)
    return ProximityGraph.build(mapping.database_vectors), queries, 10


def _seed_closure(graph):
    """Every row a beam can reach from the strided seeds without the
    reseed rule."""
    reached = set(_entry_points(graph.num_rows).tolist())
    stack = list(reached)
    while stack:
        for row in graph.neighbors(stack.pop()).tolist():
            if row not in reached:
                reached.add(row)
                stack.append(row)
    return reached


GRAPH_PARITY_CASES = {
    "parity_index": _parity_index_graph,
    "vector_mix": _vector_mix_graph,
    "duplicates": _duplicate_heavy,
}


#: Digests of ``[(ranking, scores, hops, evals)]`` over every query of
#: each case, at ``ef`` = k, ``default_ef(k)`` and the row count — as
#: commit 7dbb6b9 (the beam's last kernel-call-per-hop form, with
#: ``RunningTopK`` as its tracker) returned them.  Nothing else pins
#: graph answers across commits: graph mode has no naive oracle.
GRAPH_PARITY_RECORD = {
    "parity_index": {
        8: "4f2e0dd80ff6fa76",
        32: "88f555d79f96178e",
        48: "da52ea63a00be576",
    },
    "vector_mix": {
        10: "e5e25eb7b9ced21d",
        40: "cad8edb14aa88572",
        4000: "6681304ad03d9d91",
    },
    "duplicates": {
        5: "dc4e7ca75bc425fe",
        32: "226d8ed9f3a80955",
        60: "72ea7428d0cee0e3",
    },
}


class TestGraphParity:
    @pytest.fixture(scope="class", params=sorted(GRAPH_PARITY_CASES))
    def case(self, request):
        return request.param, GRAPH_PARITY_CASES[request.param]()

    def test_answers_hops_and_evals_match_record(self, case):
        name, (graph, queries, k) = case
        got = {}
        for ef in (k, default_ef(k), graph.num_rows):
            runs = [graph.search(q, k, ef) for q in queries]
            got[ef] = hashlib.sha256(
                json.dumps(runs).encode()
            ).hexdigest()[:16]
        assert got == GRAPH_PARITY_RECORD[name]

    def test_duplicate_case_needs_the_reseed_rule(self):
        graph, queries, k = _duplicate_heavy()
        n = graph.num_rows
        reached = _seed_closure(graph)
        assert len(reached) < n
        for q in queries:
            assert graph.search(q, k, n)[3] == n
            # default_ef(k) exceeds what the seeds reach: reseeds fire
            # in the recorded narrow searches too.
            assert graph.search(q, k, default_ef(k))[3] > len(reached)


@pytest.fixture(scope="module")
def saved_graph_index(tmp_path_factory):
    rng = np.random.default_rng(31)
    vectors = _binary_vectors(rng, 24, 6)
    mapping = _vector_mapping(vectors)
    graph = mapping.proximity_graph()
    path = tmp_path_factory.mktemp("prox") / "index"
    save_index(mapping, path)
    return path, vectors, graph


class TestPersistence:
    def test_manifest_carries_checksummed_section(self, saved_graph_index):
        path, _vectors, graph = saved_graph_index
        manifest = json.loads(path.read_text())
        section = manifest["proximity_graph"]
        assert section["seq"] == 0
        assert section["max_degree"] == graph.max_degree
        assert "sha256" in section
        assert np.array_equal(
            np.asarray(section["neighbors"]), graph.knn_ids
        )

    def test_restore_attaches_without_rebuilding(self, saved_graph_index):
        path, vectors, graph = saved_graph_index
        loaded = load_index(path)
        before = ProximityGraph.builds
        restored = loaded.proximity_graph()
        assert ProximityGraph.builds == before  # attach, not rebuild
        assert np.array_equal(restored.knn_ids, graph.knn_ids)
        assert np.array_equal(restored.knn_dists, graph.knn_dists)
        query = vectors[3]
        assert restored.search(query, 5, 16) == graph.search(query, 5, 16)

    def test_corrupt_neighbor_table_fails_loudly(self, tmp_path):
        rng = np.random.default_rng(32)
        mapping = _vector_mapping(_binary_vectors(rng, 16, 5))
        mapping.proximity_graph()
        path = tmp_path / "corrupt-index"
        save_index(mapping, path)
        manifest = json.loads(path.read_text())
        manifest["proximity_graph"]["neighbors"][0][0] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(ChecksumError):
            load_index(path)

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    @pytest.mark.parametrize(
        "tamper",
        [
            "max_degree_true",
            "max_degree_zero",
            "wrong_shape",
            "id_out_of_range",
            "self_link",
            "duplicate",
        ],
    )
    def test_tampered_rehashed_section_is_corrupt(
        self, tmp_path, tamper, mmap
    ):
        """A structurally bad neighbor table whose checksum was
        re-computed still fails the load — ``true`` is no degree."""
        rng = np.random.default_rng(36)
        mapping = _vector_mapping(_binary_vectors(rng, 16, 5))
        mapping.proximity_graph()
        path = tmp_path / "tampered-index"
        save_index(mapping, path)
        manifest = json.loads(path.read_text())
        section = manifest["proximity_graph"]
        table = section["neighbors"]
        if tamper == "max_degree_true":
            # JSON true reads as 1: a width-1 table would fit it.
            section["max_degree"] = True
            section["neighbors"] = [row[:1] for row in table]
        elif tamper == "max_degree_zero":
            section["max_degree"] = 0
        elif tamper == "wrong_shape":
            del table[-1]
        elif tamper == "id_out_of_range":
            table[0][0] = 16
        elif tamper == "self_link":
            table[3][0] = 3
        else:
            table[2][1] = table[2][0]
        del section["sha256"]
        section["sha256"] = _entry_digest(section)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactCorruptError) as exc:
            load_index(path, mmap=mmap)
        assert not isinstance(exc.value, ChecksumError)
        assert "proximity_graph" in str(exc.value)

    def test_stale_seq_is_dropped_then_lazily_rebuilt(self, tmp_path):
        rng = np.random.default_rng(35)
        mapping = _vector_mapping(_binary_vectors(rng, 16, 5))
        graph = mapping.proximity_graph()
        path = tmp_path / "stale-index"
        save_index(mapping, path)
        manifest = json.loads(path.read_text())
        section = manifest["proximity_graph"]
        section["seq"] = 7  # pretend the table predates journal entries
        del section["sha256"]
        section["sha256"] = _entry_digest(section)
        path.write_text(json.dumps(manifest))
        loaded = load_index(path)
        assert loaded.peek_proximity_graph() is None
        before = ProximityGraph.builds
        rebuilt = loaded.proximity_graph()
        assert ProximityGraph.builds == before + 1  # honest rebuild
        assert np.array_equal(rebuilt.knn_ids, graph.knn_ids)

    def test_sectionless_artifact_loads_and_builds_lazily(self, tmp_path):
        rng = np.random.default_rng(33)
        mapping = _vector_mapping(_binary_vectors(rng, 12, 5))
        path = tmp_path / "plain-index"
        save_index(mapping, path)  # graph never built -> no section
        manifest = json.loads(path.read_text())
        assert "proximity_graph" not in manifest
        loaded = load_index(path)
        assert loaded.peek_proximity_graph() is None
        assert loaded.proximity_graph().num_rows == 12

    def test_resave_after_build_backfills_the_section(self, tmp_path):
        rng = np.random.default_rng(34)
        vectors = _binary_vectors(rng, 14, 5)
        mapping = _vector_mapping(vectors)
        path = tmp_path / "backfill-index"
        save_index(mapping, path)
        loaded = load_index(path)
        loaded.proximity_graph()  # built on the pre-PR artifact
        loaded.add_graphs([_row_graph(vectors[0], "extra0")])
        save_index(loaded, path)  # delta save syncs derived sections
        manifest = json.loads(path.read_text())
        section = manifest["proximity_graph"]
        assert section["seq"] == loaded.journal_seq
        assert len(section["neighbors"]) == 15


class TestPolicyValidation:
    def test_unknown_mode_enumerates_all_modes(self):
        with pytest.raises(QueryError) as exc:
            SearchPolicy(mode="fuzzy")
        for mode in SEARCH_MODES:
            assert mode in str(exc.value)

    def test_nprobe_outside_approx_enumerates_modes(self):
        with pytest.raises(QueryError) as exc:
            SearchPolicy(mode="graph", nprobe=2)
        assert "exact, approx, graph" in str(exc.value)

    def test_ef_outside_graph_enumerates_modes(self):
        with pytest.raises(QueryError) as exc:
            SearchPolicy(mode="exact", ef=8)
        assert "exact, approx, graph" in str(exc.value)

    def test_graph_ef_bounds(self):
        assert SearchPolicy(mode="graph").ef is None  # default beam
        assert SearchPolicy(mode="graph", ef=4).ef == 4
        with pytest.raises(QueryError):
            SearchPolicy(mode="graph", ef=0)

    def test_default_ef_scales_with_k(self):
        assert default_ef(1) == 32
        assert default_ef(10) == 40
        assert default_ef(100) == 400


class TestProtocolPlumbing:
    def test_graph_policy_parses(self):
        policy = protocol.search_policy_from_request(
            {"search": {"mode": "graph", "ef": 32}}
        )
        assert policy == SearchPolicy(mode="graph", ef=32)

    def test_unknown_mode_carries_structured_detail(self):
        with pytest.raises(ProtocolError) as exc:
            protocol.search_policy_from_request(
                {"search": {"mode": "hnsw"}}
            )
        assert exc.value.detail == {"allowed_modes": list(SEARCH_MODES)}

    def test_bad_ef_type_rejected(self):
        for ef in ("8", 8.0, True):
            with pytest.raises(ProtocolError):
                protocol.search_policy_from_request(
                    {"search": {"mode": "graph", "ef": ef}}
                )

    def test_error_response_embeds_detail(self):
        response = protocol.error_response(
            3, "bad_request", "nope", detail={"allowed_modes": ["exact"]}
        )
        assert response["detail"] == {"allowed_modes": ["exact"]}
        assert "detail" not in protocol.error_response(3, "bad_request", "x")


NOT_BINARY = [0.5, 2.0, -1.0, np.nan]


class TestBinaryContract:
    """The beam's popcount distance is exact on 0/1 vectors and
    silently wrong on anything else, so every way in refuses the rest."""

    @pytest.mark.parametrize("bad", NOT_BINARY)
    def test_build_refuses_other_rows(self, bad):
        vectors = np.ones((6, 4))
        vectors[3, 2] = bad
        with pytest.raises(QueryError):
            ProximityGraph.build(vectors)

    @pytest.mark.parametrize("bad", NOT_BINARY)
    def test_from_payload_refuses_other_rows(self, bad):
        vectors = _binary_vectors(np.random.default_rng(61), 10, 5)
        payload = ProximityGraph.build(vectors).to_payload()
        vectors[4, 1] = bad
        with pytest.raises(QueryError):
            ProximityGraph.from_payload(payload, vectors)

    @pytest.mark.parametrize("bad", NOT_BINARY)
    def test_with_appended_refuses_other_rows(self, bad):
        vectors = _binary_vectors(np.random.default_rng(62), 10, 5)
        graph = ProximityGraph.build(vectors)
        arrival = np.array([[1.0, 0.0, bad, 1.0, 0.0]])
        with pytest.raises(QueryError):
            graph.with_appended(np.vstack([vectors, arrival]))

    @pytest.mark.parametrize("bad", NOT_BINARY)
    def test_search_refuses_other_queries(self, bad):
        vectors = _binary_vectors(np.random.default_rng(63), 10, 5)
        graph = ProximityGraph.build(vectors)
        query = vectors[0].copy()
        query[1] = bad
        with pytest.raises(QueryError):
            graph.search(query, 3, 8)

    def test_rows_of_another_width_are_refused(self):
        """A popcount of mismatched bit ints is a number, not an error:
        the graph checks the width the float kernel's shapes did."""
        vectors = _binary_vectors(np.random.default_rng(65), 10, 5)
        graph = ProximityGraph.build(vectors)
        with pytest.raises(QueryError, match="5 dimensions"):
            graph.search(np.ones(6), 3, 8)
        wider = np.hstack([np.vstack([vectors, vectors[:1]]), np.ones((11, 1))])
        with pytest.raises(QueryError, match="5 dimensions"):
            graph.with_appended(wider)

    def test_graph_mode_refuses_the_block_every_mode_refuses(self):
        rng = np.random.default_rng(64)
        vectors = _binary_vectors(rng, 30, 8)
        mapping = _vector_mapping(vectors)
        block = vectors[:4].copy()
        block[2, 5] = 0.5
        with QueryService(
            mapping.query_engine(), n_shards=3, cache_size=0
        ) as service:
            for policy in (
                None,
                SearchPolicy(mode="approx", nprobe=2),
                SearchPolicy(mode="graph"),
            ):
                with pytest.raises(QueryError):
                    service.batch_query_vectors(block, 5, policy)
        # Refused before any graph was built for it.
        assert mapping.peek_proximity_graph() is None

    def test_zero_dimensions_score_zero_like_the_kernel(self):
        vectors = np.zeros((5, 0))
        graph = ProximityGraph.build(vectors)
        ranking, scores, _hops, evals = graph.search(np.zeros(0), 3, 5)
        assert ranking == [0, 1, 2] and evals == 5
        kernel = kernels.distance_block(
            np.zeros((1, 0)), vectors, np.zeros(5), 0
        )
        assert scores == kernel[0, :3].tolist() == [0.0] * 3


class TestServiceDispatch:
    def test_graph_mode_answers_and_counts_work(self):
        rng = np.random.default_rng(41)
        vectors = _binary_vectors(rng, 30, 8)
        mapping = _vector_mapping(vectors)
        with QueryService(
            mapping.query_engine(), n_shards=3, cache_size=0
        ) as service:
            policy = SearchPolicy(mode="graph", ef=30)
            answers = service.batch_query_vectors(vectors[:4], 5, policy)
            assert service.stats.distance_evaluations > 0
            graph = mapping.peek_proximity_graph()
            assert graph is not None  # built lazily on first graph query
            for qi, got in enumerate(answers):
                ranking, scores, _h, _e = graph.search(vectors[qi], 5, 30)
                assert got.ranking == ranking
                assert got.scores == scores

    def test_trace_reports_effective_beam_width(self):
        """Regression: the engine clamps the beam to ``max(ef, k)``
        before searching, but the trace used to echo the *requested*
        ef — describing a narrower search than the one that ran."""
        rng = np.random.default_rng(43)
        vectors = _binary_vectors(rng, 30, 8)
        mapping = _vector_mapping(vectors)
        with QueryService(
            mapping.query_engine(), n_shards=3, cache_size=0
        ) as service:
            _answers, trace = service.batch_query_vectors_traced(
                vectors[:3], 5, SearchPolicy(mode="graph", ef=2)
            )
            assert trace.mode == "graph"
            assert trace.ef == 5  # clamped to k, and reported as such
            assert trace.payloads([3])[0]["ef"] == 5
            # A request already at or above k passes through verbatim.
            _answers, wide = service.batch_query_vectors_traced(
                vectors[:3], 5, SearchPolicy(mode="graph", ef=12)
            )
            assert wide.ef == 12

    def test_full_scan_counts_every_pair(self):
        rng = np.random.default_rng(42)
        vectors = _binary_vectors(rng, 20, 6)
        mapping = _vector_mapping(vectors)
        with QueryService(
            mapping.query_engine(), n_shards=2, cache_size=0
        ) as service:
            service.batch_query_vectors(vectors[:3], 4, SearchPolicy())
            assert service.stats.distance_evaluations == 3 * 20


class TestGraphBeforeListening:
    """A server builds no graph before it listens: the first graph-mode
    request builds it, once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Every ``ProximityGraph.build`` call, by row count."""
        calls = []
        build = ProximityGraph.build.__func__

        def counting(cls, vectors, *args, **kwargs):
            calls.append(len(vectors))
            return build(cls, vectors, *args, **kwargs)

        monkeypatch.setattr(ProximityGraph, "build", classmethod(counting))
        return calls

    @staticmethod
    def _served():
        rng = np.random.default_rng(47)
        vectors = _binary_vectors(rng, 30, 8)
        service = QueryService(
            _vector_mapping(vectors).query_engine(), n_shards=3
        )
        frontend = AsyncFrontend(service)
        request = {
            "op": "query",
            "id": 1,
            "k": 5,
            "graph": protocol.graph_to_wire(_row_graph(vectors[0], "q")),
        }
        return service, frontend, request

    @pytest.mark.asyncio
    async def test_per_request_graph_policy_stays_lazy(self, builds):
        service, frontend, request = self._served()
        try:
            await frontend.start()
            assert service._graph is None and builds == []
            response = await frontend.handle_request(
                {**request, "search": {"mode": "graph"}}
            )
            assert response["ok"] and response["pruning"]["mode"] == "graph"
            assert service._graph is not None and builds == [30]
        finally:
            await frontend.aclose()


class TestChurnSoak:
    def test_graph_answers_track_scratch_rebuild_under_churn(self):
        rng = np.random.default_rng(51)
        vectors = _binary_vectors(rng, 40, 8)
        mapping = _vector_mapping(vectors)
        policy = SearchPolicy(mode="graph", ef=24)
        probes = _binary_vectors(rng, 6, 8)
        with QueryService(
            mapping.query_engine(), n_shards=3, cache_size=0
        ) as service:
            service.batch_query_vectors(probes, 5, policy)  # force build
            for cycle in range(3):
                n = mapping.database_vectors.shape[0]
                removed = sorted(
                    int(i) for i in rng.choice(n, size=4, replace=False)
                )
                added = [
                    _row_graph(
                        _binary_vectors(rng, 1, 8)[0], f"c{cycle}g{gi}"
                    )
                    for gi in range(4)
                ]
                before = ProximityGraph.builds
                service.apply_update(added=added, removed=removed)
                assert ProximityGraph.builds == before  # no full rebuild
                maintained = mapping.peek_proximity_graph()
                scratch = ProximityGraph.build(
                    mapping.database_vectors,
                    max_degree=maintained.max_degree,
                )
                assert np.array_equal(
                    maintained.knn_ids, scratch.knn_ids
                ), cycle
                assert np.array_equal(
                    maintained.knn_dists, scratch.knn_dists
                ), cycle
                answers = service.batch_query_vectors(probes, 5, policy)
                for qi, got in enumerate(answers):
                    ranking, scores, _h, _e = scratch.search(
                        probes[qi], 5, 24
                    )
                    assert got.ranking == ranking, (cycle, qi)
                    assert got.scores == scores, (cycle, qi)
