"""Tests for the exact maximum common subgraph computation."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

import product_oracle
from repro.datasets import chemical_database
from repro.graph import LabeledGraph, random_connected_graph
from repro.isomorphism import is_subgraph, mcs_edge_count, maximum_common_subgraph
from repro.isomorphism.product_graph import build_edge_product
from repro.utils.rng import ensure_rng


class TestBasicCases:
    def test_identical_graphs(self, triangle):
        assert mcs_edge_count(triangle, triangle) == 3

    def test_structural_copy(self, triangle):
        assert mcs_edge_count(triangle, triangle.copy()) == 3

    def test_subgraph_relation(self, triangle, path3):
        # path a-a-b ⊆ triangle a-a-b, so MCS = the path (2 edges)
        assert mcs_edge_count(path3, triangle) == 2

    def test_disjoint_labels(self):
        a = LabeledGraph(["a", "a"], [(0, 1, "x")])
        b = LabeledGraph(["z", "z"], [(0, 1, "x")])
        assert mcs_edge_count(a, b) == 0

    def test_edge_label_mismatch(self):
        a = LabeledGraph(["a", "a"], [(0, 1, "x")])
        b = LabeledGraph(["a", "a"], [(0, 1, "y")])
        assert mcs_edge_count(a, b) == 0

    def test_empty_graph(self, triangle):
        assert mcs_edge_count(LabeledGraph(), triangle) == 0

    def test_symmetry(self, triangle, square_with_diagonal):
        assert mcs_edge_count(triangle, square_with_diagonal) == mcs_edge_count(
            square_with_diagonal, triangle
        )

    def test_single_shared_edge(self):
        a = LabeledGraph(["a", "b", "c"], [(0, 1, "x"), (1, 2, "y")])
        b = LabeledGraph(["a", "b", "z"], [(0, 1, "x"), (1, 2, "w")])
        assert mcs_edge_count(a, b) == 1

    def test_disconnected_common_subgraph_found(self):
        # Common subgraph is two disjoint edges; a connected-only MCS
        # would find just one.
        a = LabeledGraph(
            ["a", "a", "b", "b"], [(0, 1, "x"), (2, 3, "y"), (1, 2, "z")]
        )
        b = LabeledGraph(
            ["a", "a", "b", "b"], [(0, 1, "x"), (2, 3, "y"), (0, 3, "w")]
        )
        assert mcs_edge_count(a, b) == 2


class TestResultStructure:
    def test_mapping_is_injective_and_label_preserving(self, small_chemical_db):
        g1, g2 = small_chemical_db[0], small_chemical_db[1]
        result = maximum_common_subgraph(g1, g2)
        values = list(result.vertex_mapping.values())
        assert len(values) == len(set(values))
        for u, v in result.vertex_mapping.items():
            assert g1.vertex_label(u) == g2.vertex_label(v)

    def test_edge_pairs_consistent_with_mapping(self, small_chemical_db):
        g1, g2 = small_chemical_db[2], small_chemical_db[3]
        result = maximum_common_subgraph(g1, g2)
        edges1 = list(g1.edges())
        edges2 = list(g2.edges())
        for i, j in result.edge_pairs:
            e1, e2 = edges1[i], edges2[j]
            assert e1.label == e2.label
            image = {result.vertex_mapping[e1.u], result.vertex_mapping[e1.v]}
            assert image == {e2.u, e2.v}

    def test_common_subgraph_embeds_in_both(self, small_chemical_db):
        g1, g2 = small_chemical_db[4], small_chemical_db[5]
        result = maximum_common_subgraph(g1, g2)
        edges1 = list(g1.edges())
        common = g1.edge_subgraph([edges1[i] for i, _ in result.edge_pairs])
        assert is_subgraph(common, g1)
        assert is_subgraph(common, g2)


class TestProductGraph:
    def test_product_empty_for_disjoint_labels(self):
        a = LabeledGraph(["a", "a"], [(0, 1, "x")])
        b = LabeledGraph(["z", "z"], [(0, 1, "x")])
        vertices, adj = build_edge_product(a, b)
        assert vertices == []
        assert adj == []

    def test_product_vertex_count_single_edge(self):
        # a-b edge vs a-b edge: one orientation matches labels.
        a = LabeledGraph(["a", "b"], [(0, 1, "x")])
        b = LabeledGraph(["a", "b"], [(0, 1, "x")])
        vertices, _adj = build_edge_product(a, b)
        assert len(vertices) == 1

    def test_product_both_orientations_for_equal_labels(self):
        a = LabeledGraph(["a", "a"], [(0, 1, "x")])
        b = LabeledGraph(["a", "a"], [(0, 1, "x")])
        vertices, _adj = build_edge_product(a, b)
        assert len(vertices) == 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_product_matches_the_pair_at_a_time_rule(seed):
    """Property: the array-built product has the reference rule's
    vertices and adjacency, numbered by degree, highest first.  Two
    vertex labels on up to seven vertices repeat labels, so both
    orientations of an edge pair occur."""
    rng = ensure_rng(seed)
    graphs = []
    for _ in range(2):
        v = int(rng.integers(2, 8))
        e = int(rng.integers(v - 1, min(v * (v - 1) // 2, v + 3) + 1))
        graphs.append(random_connected_graph(
            v, e, num_vertex_labels=2, num_edge_labels=2, seed=rng
        ))
    g1, g2 = graphs
    vertices, adj = build_edge_product(g1, g2)
    reference = product_oracle.product_vertices(g1, g2)
    assert len(vertices) == len(reference)
    assert set(vertices) == set(reference)
    assert adj == product_oracle.adjacency(vertices)
    degrees = [bin(row).count("1") for row in adj]
    assert degrees == sorted(degrees, reverse=True)


#: ``mcs_edge_count`` over every pair ``i < j`` of
#: ``chemical_database(24, seed=2014)``, as the commit before the
#: array-built product returned it (a per-pair ``_consistent`` check,
#: product vertices in enumeration order): ``(pairs, digest)``.
PARENT_DELTA_RECORD = (276, "337aa84d08a3b107")


def test_mcs_counts_match_parent():
    db = chemical_database(24, seed=2014)
    counts = [
        mcs_edge_count(db[i], db[j])
        for i in range(len(db))
        for j in range(i + 1, len(db))
    ]
    digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()[:16]
    assert (len(counts), digest) == PARENT_DELTA_RECORD


def _brute_force_mcs(g1: LabeledGraph, g2: LabeledGraph) -> int:
    """Exponential reference: try all partial injective vertex mappings."""
    from itertools import permutations

    best = 0
    n1, n2 = g1.num_vertices, g2.num_vertices
    verts2 = list(range(n2)) + [None] * n1  # None = unmapped
    seen = set()
    for image in permutations(verts2, n1):
        real = tuple((u, v) for u, v in enumerate(image) if v is not None)
        if real in seen:
            continue
        seen.add(real)
        if any(g1.vertex_label(u) != g2.vertex_label(v) for u, v in real):
            continue
        mapping = dict(real)
        count = 0
        for e in g1.edges():
            if e.u in mapping and e.v in mapping:
                tu, tv = mapping[e.u], mapping[e.v]
                if g2.has_edge(tu, tv) and g2.edge_label(tu, tv) == e.label:
                    count += 1
        best = max(best, count)
    return best


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mcs_agrees_with_brute_force(seed):
    """Property: the clique-based MCS equals the brute-force optimum."""
    rng = ensure_rng(seed)
    v1 = int(rng.integers(2, 5))
    e1 = int(rng.integers(v1 - 1, v1 * (v1 - 1) // 2 + 1))
    v2 = int(rng.integers(2, 5))
    e2 = int(rng.integers(v2 - 1, v2 * (v2 - 1) // 2 + 1))
    g1 = random_connected_graph(v1, e1, num_vertex_labels=2, seed=rng)
    g2 = random_connected_graph(v2, e2, num_vertex_labels=2, seed=rng)
    assert mcs_edge_count(g1, g2) == _brute_force_mcs(g1, g2)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mcs_upper_bounds(seed):
    """Property: MCS size never exceeds either graph's edge count."""
    rng = ensure_rng(seed)
    g1 = random_connected_graph(6, 8, num_vertex_labels=3, seed=rng)
    g2 = random_connected_graph(5, 6, num_vertex_labels=3, seed=rng)
    size = mcs_edge_count(g1, g2)
    assert 0 <= size <= min(g1.num_edges, g2.num_edges)
