"""Equivalence and property tests for the lattice-pruned query engine.

The engine's contract is *bit-identical results at lower cost*, so
nearly every test here compares an optimised path against its naive
reference: lattice-pruned embedding vs per-feature VF2, partitioned
top-k vs full lexsort, profile-carrying VF2 vs profile-free, fused DSPM
iterates vs the literal kernels.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.dspm import DSPM
from repro.core.mapping import mapping_from_selection, variance_selection
from repro.datasets import (
    chemical_database,
    chemical_query_set,
    synthetic_database,
    synthetic_query_set,
)
from repro.features.binary_matrix import FeatureSpace
from repro.graph.generators import graphgen_database
from repro.isomorphism.vf2 import (
    PatternProfile,
    TargetProfile,
    _search_order,
    count_embeddings,
    is_subgraph,
)
from repro.mining import mine_frequent_subgraphs
from repro.query.engine import FeatureLattice, QueryEngine
from repro.query.topk import MappedTopKEngine, rank_with_ties


@pytest.fixture(scope="module")
def setup():
    db = synthetic_database(40, avg_edges=16, density=0.3, num_labels=5, seed=3)
    queries = synthetic_query_set(
        50, avg_edges=16, density=0.3, num_labels=5, seed=99
    )
    features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=5)
    space = FeatureSpace(features, len(db))
    return db, queries, space


@pytest.fixture(scope="module")
def selected_mapping(setup):
    _db, _queries, space = setup
    # A deterministic mid-support selection (mimics DSPM's preference).
    s = space.support_counts
    score = s * (space.n - s)
    order = np.lexsort((np.arange(space.m), -score))
    return mapping_from_selection(space, [int(r) for r in order[:20]])


@pytest.fixture(scope="module")
def full_mapping(setup):
    _db, _queries, space = setup
    return mapping_from_selection(space, list(range(space.m)))


class TestLattice:
    def test_ancestors_are_contained(self, selected_mapping):
        engine = selected_mapping.query_engine()
        lattice = engine.lattice
        for r, anc in enumerate(lattice.ancestors):
            for a in anc:
                assert is_subgraph(engine.patterns[a], engine.patterns[r])

    def test_descendants_transpose_ancestors(self, selected_mapping):
        lattice = selected_mapping.query_engine().lattice
        pairs = {(a, r) for r, anc in enumerate(lattice.ancestors) for a in anc}
        transposed = {
            (r, d) for r, desc in enumerate(lattice.descendants) for d in desc
        }
        assert pairs == transposed
        assert lattice.num_edges == len(pairs)

    def test_order_is_smallest_first_permutation(self, full_mapping):
        engine = full_mapping.query_engine()
        order = list(engine.lattice.order)
        assert sorted(order) == list(range(len(engine.patterns)))
        sizes = [engine.patterns[r].num_edges for r in order]
        assert sizes == sorted(sizes)

    def test_transitivity_shortcut_skips_checks(self, full_mapping):
        lattice = full_mapping.query_engine().lattice
        p = len(lattice.ancestors)
        # Worst case is one VF2 per ordered size-compatible pair; the
        # shortcut must have skipped at least the closed triangles.
        assert lattice.vf2_checks < p * (p - 1) // 2 + p


class TestEmbeddingEquivalence:
    def test_engine_equals_naive_on_50_queries(self, setup, selected_mapping):
        _db, queries, space = setup
        engine = selected_mapping.query_engine()
        for q in queries:
            naive = space.embed_query(q, selected_mapping.selected)
            assert np.array_equal(engine.embed(q), naive)

    def test_engine_equals_naive_full_universe(self, setup, full_mapping):
        _db, queries, space = setup
        engine = full_mapping.query_engine()
        vectors = engine.embed_many(queries)
        assert np.array_equal(vectors, space.embed_queries(queries))

    def test_naive_path_builds_one_profile_per_feature(
        self, setup, selected_mapping, monkeypatch
    ):
        """A profile compiles a match plan, so the feature space keeps
        one per feature and every consumer shares it: ``embed_queries``
        and the engine (lattice build, filter, walk) together build at
        most one per feature — never a throw-away per (feature, query),
        never an engine's own copy."""
        import repro.features.binary_matrix as binary_matrix
        import repro.isomorphism.vf2 as vf2
        import repro.query.engine as engine_mod

        built = []

        class CountingProfile(PatternProfile):
            __slots__ = ()

            def __init__(self, pattern):
                built.append(pattern)
                super().__init__(pattern)

        # The space's own construction site, the matcher's fall-back for
        # calls that pass no profile, and the engine's module.
        for module in (binary_matrix, vf2, engine_mod):
            monkeypatch.setattr(module, "PatternProfile", CountingProfile)
        _db, queries, space = setup
        fresh = FeatureSpace(space.features, space.n)
        vectors = fresh.embed_queries(queries[:8])
        selected = selected_mapping.selected
        engine = mapping_from_selection(fresh, selected).query_engine()
        assert np.array_equal(
            engine.embed_many(queries[:8]), vectors[:, selected]
        )
        assert len(built) <= fresh.m
        for i, r in enumerate(selected):
            assert engine._pattern_profiles[i] is fresh.pattern_profile(r)
        assert np.array_equal(vectors, space.embed_queries(queries[:8]))

    def test_pruning_saves_vf2_calls(self, setup, full_mapping):
        _db, queries, space = setup
        engine = QueryEngine(full_mapping)
        engine.embed_many(queries)
        assert engine.stats.vf2_calls < engine.stats.queries * space.m
        assert engine.stats.features_pruned > 0

    def test_vf2_calls_per_query_stay_below_one_per_feature(self):
        """How far below, on a selection and on the full universe (the
        paper's Exp-4 pain case: naively |F| VF2 calls per query).
        n = 60, 64 queries, 6 labels, ~20 edges, support 0.15, seed 0:
        17.7 calls per query of p = 30, 73.7 of |F| = 320."""
        shape = dict(avg_edges=20.0, density=0.3, num_labels=6)
        db = synthetic_database(60, seed=0, **shape)
        queries = synthetic_query_set(64, seed=10_000, **shape)
        features = mine_frequent_subgraphs(db, min_support=0.15, max_edges=6)
        space = FeatureSpace(features, len(db))
        for selection, share in (
            (variance_selection(space, 30), 1.0),
            (list(range(space.m)), 0.5),
        ):
            engine = QueryEngine(mapping_from_selection(space, selection))
            engine.embed_many(queries)
            per_query = engine.stats.vf2_calls / engine.stats.queries
            assert 0 < per_query < share * len(selection)

    def test_empty_batch(self, selected_mapping):
        engine = selected_mapping.query_engine()
        vectors = engine.embed_many([])
        assert vectors.shape == (0, selected_mapping.dimensionality)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


#: Digests of a small chemical index's answers — 30 graphs, every
#: pattern mined at support 0.1 up to 5 edges, 24 variance-selected,
#: 200 held-out queries — as commit c5d706d (the walker's last form
#: with per-candidate label/degree/used/back-edge checks, started at
#: the highest-degree vertex) returned them: the ``embed_many`` rows,
#: and ``count_embeddings(limit=3)`` for every (mined pattern, query)
#: pair.  Search order and candidate filter may change; neither may.
EMBED_PARITY_RECORD = {
    "embed_many": "a0513f9428fe2964",
    "count_embeddings": "5f7857acf9830d12",
}


class TestEmbeddingParity:
    @pytest.fixture(scope="class")
    def parity_index(self):
        db = chemical_database(30, seed=29)
        queries = chemical_query_set(200, seed=290)
        features = mine_frequent_subgraphs(db, min_support=0.1, max_edges=5)
        space = FeatureSpace(features, len(db))
        mapping = mapping_from_selection(space, variance_selection(space, 24))
        return mapping, features, queries

    def test_embed_many_rows_match_record(self, parity_index):
        mapping, _features, queries = parity_index
        rows = QueryEngine(mapping).embed_many(queries)
        digest = _digest(rows.astype(int).tolist())
        assert digest == EMBED_PARITY_RECORD["embed_many"]

    def test_capped_counts_match_record(self, parity_index):
        _mapping, features, queries = parity_index
        targets = [TargetProfile(q) for q in queries]
        counts = []
        for feature in features:
            profile = PatternProfile(feature.graph)
            counts.append(
                [
                    count_embeddings(feature.graph, q, 3, tp, profile)
                    for q, tp in zip(queries, targets)
                ]
            )
        digest = _digest(counts)
        assert digest == EMBED_PARITY_RECORD["count_embeddings"]


class TestQueryEquivalence:
    def test_single_query_matches_naive_engine(self, setup, selected_mapping):
        db, queries, _space = setup
        naive = MappedTopKEngine(selected_mapping)
        engine = selected_mapping.query_engine()
        for q in queries[:25]:
            a = naive.query(q, 7)
            b = engine.query(q, 7)
            assert a.ranking == b.ranking
            assert a.scores == b.scores

    def test_batch_query_matches_naive_engine(self, setup, selected_mapping):
        _db, queries, _space = setup
        naive = MappedTopKEngine(selected_mapping)
        engine = selected_mapping.query_engine()
        batch = engine.batch_query(queries, 5)
        assert len(batch) == len(queries)
        for q, res in zip(queries, batch):
            ref = naive.query(q, 5)
            assert ref.ranking == res.ranking
            assert ref.scores == res.scores
        assert batch.query_vectors.shape == (
            len(queries),
            selected_mapping.dimensionality,
        )
        assert batch.total_seconds == pytest.approx(
            batch.mapping_seconds + batch.search_seconds
        )

    def test_query_engine_is_cached_on_mapping(self, selected_mapping):
        assert selected_mapping.query_engine() is selected_mapping.query_engine()


class TestRankWithTies:
    @staticmethod
    def _reference(values, k):
        order = np.lexsort((np.arange(len(values)), values))
        top = order[:k]
        return [int(i) for i in top], [float(values[i]) for i in top]

    def test_matches_full_lexsort_on_tie_heavy_arrays(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(1, 200))
            # Few distinct values => many ties, including at the boundary.
            values = rng.integers(0, 4, size=n).astype(float) / 3.0
            k = int(rng.integers(1, n + 1))
            assert rank_with_ties(values, k) == self._reference(values, k)

    def test_k_zero_and_empty(self):
        assert rank_with_ties(np.array([1.0, 2.0]), 0) == ([], [])
        assert rank_with_ties(np.array([]), 3) == ([], [])

    def test_nan_values_rank_last(self):
        values = np.array([0.5, np.nan, 0.1, np.nan])
        ranking, scores = rank_with_ties(values, 3)
        ref_ranking, ref_scores = self._reference(values, 3)
        assert ranking == ref_ranking
        assert scores == pytest.approx(ref_scores, nan_ok=True)


class TestProfiles:
    def test_profiled_is_subgraph_equals_plain(self):
        graphs = graphgen_database(12, avg_edges=8, num_labels=3, seed=5)
        for pattern in graphs[:4]:
            pp = PatternProfile(pattern)
            for target in graphs:
                tp = TargetProfile(target)
                assert is_subgraph(pattern, target, tp, pp) == is_subgraph(
                    pattern, target
                )

    def test_mismatched_profiles_raise(self, setup, selected_mapping):
        db, _queries, _space = setup
        with pytest.raises(ValueError):
            is_subgraph(db[0], db[1], TargetProfile(db[2]))
        with pytest.raises(ValueError):
            is_subgraph(db[0], db[1], None, PatternProfile(db[2]))
        with pytest.raises(ValueError):
            selected_mapping.query_engine().embed(db[1], TargetProfile(db[2]))

    def test_search_order_is_connected_permutation(self):
        graphs = graphgen_database(10, avg_edges=12, num_labels=3, seed=11)
        for g in graphs:
            order = _search_order(g)
            assert sorted(order) == list(range(g.num_vertices))
            # A vertex with no earlier neighbor starts a new component;
            # every other vertex must extend the visited set along an
            # edge.  Exactly one seed per connected component.
            seen = set()
            seeds = 0
            for v in order:
                if not any(w in seen for w in g.neighbors(v)):
                    seeds += 1
                seen.add(v)
            assert seeds == len(g.connected_components())

    def test_search_order_starts_rare_then_most_constrained(self):
        graphs = graphgen_database(10, avg_edges=12, num_labels=3, seed=11)
        for g in graphs:
            labels = g.vertex_labels()
            frequency = {lab: labels.count(lab) for lab in labels}
            order = _search_order(g)
            seed = order[0]
            assert frequency[labels[seed]] == min(frequency.values())
            placed = set()
            for v in order:
                before = [
                    len(placed & set(g.neighbors(w)))
                    for w in range(g.num_vertices)
                    if w not in placed
                ]
                assert len(placed & set(g.neighbors(v))) == max(before)
                placed.add(v)


class TestDatabaseViews:
    def test_mapping_sq_norms_are_a_view(self, selected_mapping):
        first = selected_mapping.database_sq_norms
        assert selected_mapping.database_sq_norms is not first
        assert np.array_equal(
            first, (selected_mapping.database_vectors**2).sum(axis=1)
        )


class TestFusedDSPM:
    @pytest.fixture(scope="class")
    def matrix_setup(self):
        rng = np.random.default_rng(7)
        Y = (rng.random((12, 18)) < 0.45).astype(float)
        delta = np.abs(rng.normal(size=(12, 12)))
        delta = (delta + delta.T) / 2
        np.fill_diagonal(delta, 0.0)
        return Y, delta

    def test_histories_agree_across_all_kernels(self, matrix_setup):
        Y, delta = matrix_setup
        histories = {
            kernel: DSPM(4, max_iterations=5, tolerance=0.0, kernel=kernel)
            .fit_matrix(Y, delta)
            .objective_history
            for kernel in ("numpy", "inverted", "naive")
        }
        assert np.allclose(histories["numpy"], histories["inverted"])
        assert np.allclose(histories["numpy"], histories["naive"])

    def test_fused_kernel_counts_one_distance_per_iterate(self, matrix_setup):
        Y, delta = matrix_setup
        result = DSPM(4, max_iterations=5, tolerance=0.0).fit_matrix(Y, delta)
        assert result.distance_evaluations == result.iterations + 1

    def test_literal_kernels_count_two_per_iterate(self, matrix_setup):
        Y, delta = matrix_setup
        for kernel in ("inverted", "naive"):
            result = DSPM(
                4, max_iterations=3, tolerance=0.0, kernel=kernel
            ).fit_matrix(Y, delta)
            assert result.distance_evaluations == 2 * result.iterations + 1

    def test_fused_matches_unfused_reference_loop(self, matrix_setup):
        """Replay the pre-fusion loop (separate objective / transform
        distance computations) and demand the exact same trajectory."""
        Y, delta = matrix_setup
        n, m = Y.shape
        support = Y.sum(axis=0)
        c = np.full(m, 1.0 / np.sqrt(m))
        Z = Y * c
        history = [DSPM._objective_numpy(Y, c, Z, delta)]
        for _ in range(4):
            xbar = DSPM._xbar_numpy(Z, delta)
            c = DSPM._c_numpy(Y, xbar, support, n)
            Z = Y * c
            history.append(DSPM._objective_numpy(Y, c, Z, delta))
        fused = DSPM(4, max_iterations=4, tolerance=0.0).fit_matrix(Y, delta)
        assert fused.objective_history == history
