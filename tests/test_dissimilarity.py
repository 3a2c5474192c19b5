"""Tests for δ1/δ2 and the dissimilarity cache/matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import LabeledGraph, random_connected_graph
from repro.isomorphism import mcs_edge_count
from repro.similarity import (
    DissimilarityCache,
    cross_dissimilarity_matrix,
    delta1,
    delta2,
    dissimilarity,
    pairwise_dissimilarity_matrix,
)
from repro.utils.rng import ensure_rng


class TestDeltaFormulas:
    def test_identical_graph_zero(self, triangle):
        assert delta1(triangle, triangle) == 0.0
        assert delta2(triangle, triangle) == 0.0

    def test_disjoint_graphs_one(self):
        a = LabeledGraph(["a", "a"], [(0, 1, "x")])
        b = LabeledGraph(["z", "z"], [(0, 1, "x")])
        assert delta1(a, b) == 1.0
        assert delta2(a, b) == 1.0

    def test_known_values(self, triangle, path3):
        # mcs(path3, triangle) = 2 edges; |E| = 2 and 3.
        assert delta1(path3, triangle) == pytest.approx(1 - 2 / 3)
        assert delta2(path3, triangle) == pytest.approx(1 - 4 / 5)

    def test_empty_graphs(self):
        e = LabeledGraph()
        assert delta1(e, e) == 0.0
        assert delta2(e, e) == 0.0

    def test_explicit_mcs_short_circuit(self, triangle, path3):
        assert delta2(path3, triangle, mcs_edges=2) == pytest.approx(1 - 4 / 5)

    def test_dispatch(self, triangle, path3):
        assert dissimilarity("delta1", path3, triangle) == delta1(path3, triangle)
        assert dissimilarity("delta2", path3, triangle) == delta2(path3, triangle)
        with pytest.raises(ValueError):
            dissimilarity("delta9", path3, triangle)


class TestCache:
    def test_hit_counting(self, triangle, path3):
        cache = DissimilarityCache()
        cache(triangle, path3)
        assert cache.misses == 1
        cache(path3, triangle)  # symmetric key
        assert cache.hits == 1
        assert len(cache) == 1

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            DissimilarityCache("delta7")

    def test_values_match_direct(self, small_chemical_db):
        cache = DissimilarityCache("delta2")
        a, b = small_chemical_db[0], small_chemical_db[1]
        assert cache(a, b) == pytest.approx(delta2(a, b))

    def test_a_freed_graphs_id_never_answers_for_a_new_graph(self):
        """A graph freed after its pair was cached leaves its ``id`` free
        for the next graph built, which CPython hands out at once.  The
        entry keeps its graphs alive, so the new graph's pair is its
        own: a path of two ``x`` edges shares 2 edges with *b*, a lone
        ``z``-``z`` edge none."""
        cache = DissimilarityCache()
        b = LabeledGraph(["a", "a", "a"], [(0, 1, "x"), (1, 2, "x")])
        for _ in range(200):
            a = LabeledGraph(["a", "a", "a"], [(0, 1, "x"), (1, 2, "x")])
            assert cache.mcs_edges(a, b) == 2
            del a
            c = LabeledGraph(["z", "z"], [(0, 1, "x")])
            assert cache.mcs_edges(c, b) == mcs_edge_count(c, b) == 0


class TestMatrices:
    def test_pairwise_shape_and_symmetry(self, small_synthetic_db):
        db = small_synthetic_db[:6]
        matrix = pairwise_dissimilarity_matrix(db)
        assert matrix.shape == (6, 6)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_values_in_unit_interval(self, small_synthetic_db):
        matrix = pairwise_dissimilarity_matrix(small_synthetic_db[:6])
        assert (matrix >= 0).all() and (matrix <= 1).all()

    def test_cross_matrix(self, small_synthetic_db):
        queries = small_synthetic_db[:2]
        db = small_synthetic_db[2:7]
        matrix = cross_dissimilarity_matrix(queries, db)
        assert matrix.shape == (2, 5)
        assert (matrix >= 0).all() and (matrix <= 1).all()

    def test_shared_cache_reused(self, small_synthetic_db):
        cache = DissimilarityCache()
        db = small_synthetic_db[:5]
        pairwise_dissimilarity_matrix(db, cache)
        misses_before = cache.misses
        pairwise_dissimilarity_matrix(db, cache)
        assert cache.misses == misses_before  # second pass all hits


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_delta_properties(seed):
    """Property: symmetry, range, and δ2 ≥ δ1 · scaling relationships."""
    rng = ensure_rng(seed)
    g1 = random_connected_graph(5, 6, num_vertex_labels=2, seed=rng)
    g2 = random_connected_graph(4, 4, num_vertex_labels=2, seed=rng)
    d1 = delta1(g1, g2)
    d2 = delta2(g1, g2)
    assert 0.0 <= d1 <= 1.0
    assert 0.0 <= d2 <= 1.0
    assert delta1(g2, g1) == pytest.approx(d1)
    assert delta2(g2, g1) == pytest.approx(d2)
    # max-normalisation penalises at least as much as avg-normalisation
    assert d1 >= d2 - 1e-12
