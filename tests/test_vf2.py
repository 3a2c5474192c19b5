"""Tests for VF2 subgraph isomorphism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import LabeledGraph, random_connected_graph
from repro.isomorphism import count_embeddings, find_embedding, is_subgraph
from repro.isomorphism.vf2 import (
    PatternProfile,
    TargetProfile,
    compile_plan,
    match_plan,
)
from repro.kernels import (
    PatternFilterStats,
    available_backends,
    resolve_backend,
)
from repro.utils.rng import ensure_rng


class TestBasicContainment:
    def test_triangle_in_square_with_diagonal(self, triangle, square_with_diagonal):
        # the square's diagonal creates triangles, but labels must match:
        # the triangle has labels a,a,b; the square is all a.
        assert not is_subgraph(triangle, square_with_diagonal)

    def test_all_a_triangle_in_square_with_diagonal(self, square_with_diagonal):
        tri = LabeledGraph(["a"] * 3, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")])
        assert is_subgraph(tri, square_with_diagonal)

    def test_graph_contains_itself(self, triangle):
        assert is_subgraph(triangle, triangle)

    def test_larger_pattern_never_contained(self, triangle, path3):
        assert not is_subgraph(triangle, path3)  # more edges than target

    def test_path_in_triangle(self, triangle, path3):
        # path a-a-b is inside triangle a-a-b (non-induced matching)
        assert is_subgraph(path3, triangle)

    def test_empty_pattern_always_contained(self, triangle):
        assert is_subgraph(LabeledGraph(), triangle)

    def test_single_vertex_pattern(self, triangle):
        assert is_subgraph(LabeledGraph(["b"]), triangle)
        assert not is_subgraph(LabeledGraph(["z"]), triangle)

    def test_edge_label_must_match(self):
        pattern = LabeledGraph(["a", "a"], [(0, 1, "y")])
        target = LabeledGraph(["a", "a"], [(0, 1, "x")])
        assert not is_subgraph(pattern, target)

    def test_disconnected_pattern(self):
        pattern = LabeledGraph(["a", "b", "c", "d"], [(0, 1, "x"), (2, 3, "x")])
        target = LabeledGraph(
            ["a", "b", "c", "d", "e"],
            [(0, 1, "x"), (2, 3, "x"), (1, 2, "x"), (3, 4, "x")],
        )
        assert is_subgraph(pattern, target)


class TestEmbeddings:
    def test_embedding_is_valid_mapping(self, square_with_diagonal):
        tri = LabeledGraph(["a"] * 3, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")])
        mapping = find_embedding(tri, square_with_diagonal)
        assert mapping is not None
        assert len(set(mapping.values())) == 3  # injective
        for e in tri.edges():
            assert square_with_diagonal.has_edge(mapping[e.u], mapping[e.v])

    def test_find_embedding_none_when_absent(self, triangle):
        big = LabeledGraph(["z"] * 5, [(i, i + 1, "x") for i in range(4)])
        assert find_embedding(triangle, big) is None

    def test_count_embeddings_triangle_in_itself(self):
        tri = LabeledGraph(["a"] * 3, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")])
        # 3! orderings of an unlabeled triangle
        assert count_embeddings(tri, tri) == 6

    def test_count_embeddings_with_limit(self):
        tri = LabeledGraph(["a"] * 3, [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")])
        assert count_embeddings(tri, tri, limit=2) == 2


def brute_force_count(pattern, target) -> int:
    """Exhaustive monomorphism count for cross-validation."""
    from itertools import permutations

    pv = list(range(pattern.num_vertices))
    count = 0
    for image in permutations(range(target.num_vertices), len(pv)):
        if any(
            pattern.vertex_label(v) != target.vertex_label(image[v]) for v in pv
        ):
            continue
        if all(
            target.has_edge(image[e.u], image[e.v])
            and target.edge_label(image[e.u], image[e.v]) == e.label
            for e in pattern.edges()
        ):
            count += 1
    return count


def brute_force_subgraph(pattern, target) -> bool:
    return brute_force_count(pattern, target) > 0


def assert_valid_embedding(mapping, pattern, target):
    assert sorted(mapping) == list(range(pattern.num_vertices))
    assert len(set(mapping.values())) == pattern.num_vertices  # injective
    for v, tv in mapping.items():
        assert pattern.vertex_label(v) == target.vertex_label(tv)
    for e in pattern.edges():
        assert target.has_edge(mapping[e.u], mapping[e.v])
        assert target.edge_label(mapping[e.u], mapping[e.v]) == e.label


#: Label pools: plain strings, and ``None`` / int / str / tuple mixed (the
#: matcher may only ever hash labels and compare them for equality).
LABEL_POOLS = (("a", "b"), (None, 0, "0", ("a", 1)))


def random_labeled_graph(rng, num_vertices, edge_share, vertex_labels, edge_labels):
    """Any graph, connected or not: each vertex pair is an edge with
    probability *edge_share*."""
    graph = LabeledGraph(
        [vertex_labels[int(i)] for i in rng.integers(0, len(vertex_labels), num_vertices)]
    )
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < edge_share:
                graph.add_edge(u, v, edge_labels[int(rng.integers(0, len(edge_labels)))])
    return graph


def random_pair(seed):
    """A small (pattern, target) pair.  Sparse patterns are often
    disconnected; few vertex labels over up to 6 target vertices give
    many same-label candidates per pattern vertex."""
    rng = ensure_rng(seed)
    pool = LABEL_POOLS[int(rng.integers(0, len(LABEL_POOLS)))]
    vertex_labels = pool[: int(rng.integers(1, len(pool) + 1))]
    edge_labels = pool[: int(rng.integers(1, 3))]
    pattern = random_labeled_graph(
        rng, int(rng.integers(1, 5)), rng.random(), vertex_labels, edge_labels
    )
    target = random_labeled_graph(
        rng, int(rng.integers(2, 7)), 0.3 + 0.7 * rng.random(),
        vertex_labels, edge_labels,
    )
    return pattern, target, rng


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_vf2_agrees_with_brute_force(seed):
    """Property: VF2 matches exhaustive search on small random pairs."""
    rng = ensure_rng(seed)
    pv = int(rng.integers(2, 5))
    pe = int(rng.integers(pv - 1, pv * (pv - 1) // 2 + 1))
    tvn = int(rng.integers(3, 7))
    te = int(rng.integers(tvn - 1, tvn * (tvn - 1) // 2 + 1))
    pattern = random_connected_graph(pv, pe, num_vertex_labels=2, seed=rng)
    target = random_connected_graph(tvn, te, num_vertex_labels=2, seed=rng)
    assert is_subgraph(pattern, target) == brute_force_subgraph(pattern, target)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_matcher_agrees_with_brute_force_count(seed):
    """Property: verdict, count, capped count and the returned embedding
    all agree with exhaustive search — disconnected patterns, ``None``
    and mixed-type labels, many same-label target vertices included."""
    pattern, target, _rng = random_pair(seed)
    expected = brute_force_count(pattern, target)
    assert is_subgraph(pattern, target) == (expected > 0)
    assert count_embeddings(pattern, target) == expected
    assert count_embeddings(pattern, target, limit=2) == min(expected, 2)
    mapping = find_embedding(pattern, target)
    if expected == 0:
        assert mapping is None
    else:
        assert_valid_embedding(mapping, pattern, target)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_plan_with_any_search_order_agrees_with_brute_force(seed):
    """Any permutation is a sound search order: a plan compiled from an
    order that is not connected-first (vertices placed before any
    neighbour) still finds exactly the brute-force count."""
    pattern, target, rng = random_pair(seed)
    order = [int(v) for v in rng.permutation(pattern.num_vertices)]
    count, first = match_plan(
        compile_plan(pattern, order), TargetProfile(target)
    )
    expected = brute_force_count(pattern, target)
    assert count == expected
    if expected == 0:
        assert first is None
    else:
        assert_valid_embedding(dict(zip(order, first)), pattern, target)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_candidate_filter_never_rejects_a_match(seed):
    """Soundness of the one-comparison filter: a ``False`` entry of
    ``candidate_mask`` is never a brute-force match, on any backend —
    over a vocabulary of several patterns, so the target lacks some
    labels and triples the filter has columns for."""
    patterns = [random_pair(seed + i)[0] for i in range(4)]
    _pattern, target, _rng = random_pair(seed)
    stats = PatternFilterStats([PatternProfile(p) for p in patterns])
    profile = TargetProfile(target)
    for name in available_backends():
        mask = stats.candidate_mask(profile, resolve_backend(name))
        for pattern, candidate in zip(patterns, mask):
            if not candidate:
                assert brute_force_count(pattern, target) == 0


def test_planted_pattern_above_bit_63_is_found():
    """Bitsets are Python ints: a pattern planted at vertex ids >= 64 of
    a 200-vertex target is found there, and the count does not depend
    on the search order the plan is compiled from."""
    rng = ensure_rng(64)
    pattern = LabeledGraph(
        ["x", "y", "x", "y", "x"],
        [(0, 1, "s"), (1, 2, "s"), (2, 3, "d"), (3, 0, "s"), (3, 4, "s")],
    )
    images = [int(v) for v in rng.choice(range(64, 200), 5, replace=False)]
    labels = [("a", "b")[int(i)] for i in rng.integers(0, 2, 200)]
    for pv, tv in enumerate(images):
        labels[tv] = pattern.vertex_label(pv)
    target = LabeledGraph(labels)
    for e in pattern.edges():
        target.add_edge(images[e.u], images[e.v], e.label)
    for u in range(200):
        for v in range(u + 1, 200):
            if rng.random() < 0.03 and not target.has_edge(u, v):
                target.add_edge(u, v, ("s", "d")[int(rng.integers(0, 2))])

    mapping = find_embedding(pattern, target)
    assert_valid_embedding(mapping, pattern, target)
    assert sorted(mapping.values()) == sorted(images)
    background = LabeledGraph(["a", "b", "a"], [(0, 1, "s"), (1, 2, "d")])
    profile = TargetProfile(target)
    for graph in (pattern, background):
        order = PatternProfile(graph).search_order
        counts = {
            match_plan(compile_plan(graph, o), profile)[0]
            for o in (order, order[::-1])
        }
        assert counts == {count_embeddings(graph, target)}
        assert counts.pop() > 0
