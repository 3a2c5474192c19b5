"""Unit tests for the core LabeledGraph type."""

import pytest

from repro.graph import Edge, LabeledGraph
from repro.utils.errors import InvalidGraphError


class TestConstruction:
    def test_empty_graph(self):
        g = LabeledGraph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_vertices_and_labels(self):
        g = LabeledGraph(["a", "b", "c"])
        assert g.num_vertices == 3
        assert g.vertex_label(0) == "a"
        assert g.vertex_labels() == ["a", "b", "c"]

    def test_add_vertex_returns_id(self):
        g = LabeledGraph(["a"])
        assert g.add_vertex("b") == 1
        assert g.add_vertex("c") == 2

    def test_edges_from_constructor(self):
        g = LabeledGraph(["a", "b"], [(0, 1, "x")])
        assert g.num_edges == 1
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert g.edge_label(0, 1) == "x"
        assert g.edge_label(1, 0) == "x"

    def test_self_loop_rejected(self):
        g = LabeledGraph(["a"])
        with pytest.raises(InvalidGraphError):
            g.add_edge(0, 0, "x")

    def test_duplicate_edge_rejected(self):
        g = LabeledGraph(["a", "b"], [(0, 1, "x")])
        with pytest.raises(InvalidGraphError):
            g.add_edge(1, 0, "y")

    def test_out_of_range_endpoint_rejected(self):
        g = LabeledGraph(["a", "b"])
        with pytest.raises(InvalidGraphError):
            g.add_edge(0, 5, "x")

    def test_missing_edge_label_raises(self):
        g = LabeledGraph(["a", "b"])
        with pytest.raises(InvalidGraphError):
            g.edge_label(0, 1)


class TestAccessors:
    def test_edges_iterated_once_ascending(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        assert all(e.u < e.v for e in edges)

    def test_degree_and_neighbors(self, triangle):
        assert triangle.degree(0) == 2
        assert sorted(triangle.neighbors(0)) == [1, 2]
        items = dict(triangle.neighbor_items(0))
        assert items == {1: "x", 2: "x"}

    def test_density_triangle(self, triangle):
        assert triangle.density() == pytest.approx(1.0)

    def test_density_small_graphs(self):
        assert LabeledGraph().density() == 0.0
        assert LabeledGraph(["a"]).density() == 0.0

    def test_label_multiset(self, triangle):
        assert dict(triangle.label_multiset()) == {"a": 2, "b": 1}


class TestDerivedGraphs:
    def test_subgraph_induced(self, square_with_diagonal):
        sub = square_with_diagonal.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        # edges 0-1, 1-2, 0-2 all survive induction
        assert sub.num_edges == 3

    def test_edge_subgraph(self, square_with_diagonal):
        edges = [e for e in square_with_diagonal.edges()][:2]
        sub = square_with_diagonal.edge_subgraph(edges)
        assert sub.num_edges == 2
        assert sub.num_vertices <= 4

    def test_copy_independent(self, triangle):
        c = triangle.copy()
        assert c == triangle
        c.add_vertex("z")
        assert c.num_vertices == triangle.num_vertices + 1

    def test_connected_components(self):
        g = LabeledGraph(["a", "a", "b", "b"], [(0, 1, "x"), (2, 3, "x")])
        comps = g.connected_components()
        assert sorted(map(tuple, comps)) == [(0, 1), (2, 3)]
        assert not g.is_connected()

    def test_empty_graph_connected(self):
        assert LabeledGraph().is_connected()


class TestEquality:
    def test_structural_equality(self):
        a = LabeledGraph(["a", "b"], [(0, 1, "x")])
        b = LabeledGraph(["a", "b"], [(0, 1, "x")])
        assert a == b
        assert hash(a) == hash(b)

    def test_different_labels_not_equal(self):
        a = LabeledGraph(["a", "b"], [(0, 1, "x")])
        b = LabeledGraph(["a", "b"], [(0, 1, "y")])
        assert a != b

    def test_isomorphic_but_renumbered_not_equal(self):
        a = LabeledGraph(["a", "b", "c"], [(0, 1, "x")])
        b = LabeledGraph(["b", "a", "c"], [(0, 1, "x")])
        assert a != b


class TestKey:
    """``key()`` is the one identity of a graph: the service's embedding
    cache, the router's placement cache, ``==`` and ``hash`` all use it."""

    def test_key_distinguishes_labels(self, small_synthetic_db):
        db = small_synthetic_db
        assert db[0].key() == db[0].key()
        assert db[0].key() != db[1].key()

    def test_key_equals_edge_object_construction(
        self, small_synthetic_db, small_chemical_db
    ):
        """The key is read straight off the adjacency; it must equal the
        tuple built from normalised ``Edge`` objects (int and str labels)."""
        for g in list(small_synthetic_db) + list(small_chemical_db):
            assert g.key() == (
                tuple(g.vertex_label(v) for v in range(g.num_vertices)),
                tuple(sorted(
                    (e.u, e.v, e.label)
                    for e in (edge.normalized() for edge in g.edges())
                )),
            )

    def test_two_wire_forms_of_one_graph_share_a_key(self):
        from repro.graph.io import graph_from_obj

        a = graph_from_obj(
            {"vertices": ["C", "C", "O"], "edges": [[0, 1, "s"], [1, 2, "d"]]}
        )
        b = graph_from_obj(
            {"vertices": ["C", "C", "O"], "edges": [[2, 1, "d"], [1, 0, "s"]]}
        )
        assert a.key() == b.key()
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize(
        "other",
        [
            (["C", "N", "O"], [(0, 1, "s"), (1, 2, "d")]),
            (["C", "C", "O"], [(0, 1, "s"), (1, 2, "s")]),
        ],
        ids=["vertex-label", "edge-label"],
    )
    def test_one_label_apart_is_another_key(self, other):
        g = LabeledGraph(["C", "C", "O"], [(0, 1, "s"), (1, 2, "d")])
        h = LabeledGraph(*other)
        assert g.key() != h.key()
        assert g != h

    def test_labels_compare_as_vf2_matches_them(self):
        """Labels are compared with ``==``, as VF2 matches them: an edge
        labelled ``1`` is the same as one labelled ``1.0``, and not the
        same as one labelled ``"1"``."""
        g = LabeledGraph(["a", "b"], [(0, 1, 1)])
        assert g == LabeledGraph(["a", "b"], [(0, 1, 1.0)])
        assert hash(g) == hash(LabeledGraph(["a", "b"], [(0, 1, 1.0)]))
        assert g != LabeledGraph(["a", "b"], [(0, 1, "1")])


class TestEdgeDataclass:
    def test_normalized_orders_endpoints(self):
        assert Edge(3, 1, "x").normalized() == Edge(1, 3, "x")
        assert Edge(1, 3, "x").normalized() == Edge(1, 3, "x")

    def test_endpoints(self):
        assert Edge(2, 5, "x").endpoints() == (2, 5)
