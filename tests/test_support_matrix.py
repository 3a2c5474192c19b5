"""φ's one owner: the feature space's packed support matrix.

Two contracts.  The served path never builds a float view of φ: a load
(eager and ``mmap=True``), a service answering in every search mode, an
update and a reload all run with the float-view builders rigged to
raise.  And every support view the space hands out equals a set-based
oracle kept here, whatever sequence of appends, refreshes and removals
edited the bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustered import clustered_query_vectors, clustered_vector_index
from repro.features.binary_matrix import FeatureSpace
from repro.graph.labeled_graph import LabeledGraph
from repro.index import load_index, save_index
from repro.mining.gspan import FrequentSubgraph
from repro.query.pruning import SearchPolicy
from repro.query.topk import MappedTopKEngine
from repro.serving.frontend import AsyncFrontend, FrontendConfig
from repro.serving.protocol import graph_to_wire

POLICIES = [
    None,
    SearchPolicy(mode="approx", nprobe=2),
    SearchPolicy(mode="approx", nprobe="auto"),
    SearchPolicy(mode="graph"),
]


def _graphs(rows):
    return [
        LabeledGraph([f"dim{j}" for j in np.flatnonzero(row)])
        for row in rows
    ]


def _forbid_float_views(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the served path built a view of φ")

    monkeypatch.setattr(FeatureSpace, "embed_database", refuse)
    monkeypatch.setattr(FeatureSpace, "incidence", property(refuse))
    monkeypatch.setattr(FeatureSpace, "support", refuse)


class TestServedPathHoldsNoFloatRows:
    @pytest.mark.asyncio
    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    async def test_load_serve_update_reload(self, tmp_path, monkeypatch, mmap):
        mapping, _blocks = clustered_vector_index(4, 30, 8, seed=11)
        mapping.proximity_graph()  # persisted: the load attaches it
        path = tmp_path / "index.json"
        save_index(mapping, path)
        queries = _graphs(clustered_query_vectors(6, 4, 8, seed=12))
        oracle = MappedTopKEngine(mapping)
        expected = [oracle.query(q, 5) for q in queries]

        _forbid_float_views(monkeypatch)
        loaded = load_index(path, mmap=mmap)
        service = loaded.query_service(n_shards=4)
        for policy in POLICIES:
            answers = service.batch_query(queries, 5, policy)
            assert len(answers) == len(queries)
        for got, want in zip(service.batch_query(queries, 5), expected):
            assert (got.ranking, got.scores) == (want.ranking, want.scores)

        frontend = AsyncFrontend(service, FrontendConfig())
        try:
            await frontend.start()
            update = await frontend.handle_request(
                {
                    "op": "update", "id": 1, "remove": [0, 3],
                    "add": [graph_to_wire(q) for q in queries[:2]],
                }
            )
            assert update["ok"], update
            assert loaded.space.n == 120 - 2 + 2
            for policy in POLICIES:
                frontend.service.batch_query(queries, 5, policy)
            reload = await frontend.handle_request(
                {"op": "reload", "id": 2, "path": str(path)}
            )
            assert reload["ok"], reload
            for policy in POLICIES:
                frontend.service.batch_query(queries, 5, policy)
        finally:
            await frontend.aclose()


class SupportOracle:
    """φ kept as one Python set per feature: the shape the space's
    supports had before they were packed, edited the obvious way."""

    def __init__(self, supports, n):
        self.supports = [set(s) for s in supports]
        self.n = n

    def append_rows(self, rows):
        for offset, row in enumerate(rows):
            for r in np.flatnonzero(row):
                self.supports[r].add(self.n + offset)
        self.n += len(rows)

    def refresh_rows(self, indices, rows):
        for i, row in zip(indices, rows):
            for r, support in enumerate(self.supports):
                (support.add if row[r] else support.discard)(i)

    def remove_rows(self, indices):
        gone = set(indices)
        new_id = {}
        for i in range(self.n):
            if i not in gone:
                new_id[i] = len(new_id)
        self.supports = [
            {new_id[i] for i in s if i not in gone} for s in self.supports
        ]
        self.n = len(new_id)


@st.composite
def _histories(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 140))
    supports = [
        draw(st.sets(st.integers(0, n - 1), max_size=n)) for _ in range(m)
    ]
    steps = draw(st.lists(st.sampled_from(["append", "refresh", "remove"]),
                          max_size=6))
    return m, n, supports, steps, draw(st.integers(0, 2**32 - 1))


class TestSupportViewsMatchTheSetOracle:
    @settings(max_examples=60, deadline=None)
    @given(_histories())
    def test_every_view_after_random_edits(self, history):
        m, n, supports, steps, seed = history
        rng = np.random.default_rng(seed)
        graph = LabeledGraph(["a"])
        space = FeatureSpace(
            [FrequentSubgraph(graph, set(s)) for s in supports], n
        )
        oracle = SupportOracle(supports, n)
        for step in steps:
            if step == "append":
                rows = rng.random((int(rng.integers(1, 70)), m)) < 0.4
                space.append_rows(rows)
                oracle.append_rows(rows)
            elif step == "refresh":
                idx = sorted(set(rng.integers(0, oracle.n, 3).tolist()))
                rows = rng.random((len(idx), m)) < 0.5
                space.refresh_rows(idx, rows)
                oracle.refresh_rows(idx, rows)
            elif oracle.n > 1:
                idx = sorted(set(rng.integers(0, oracle.n, 4).tolist()))
                idx = idx[: oracle.n - 1]
                space.remove_rows(idx)
                oracle.remove_rows(idx)
            self._assert_views(space, oracle)

    @staticmethod
    def _assert_views(space, oracle):
        n = oracle.n
        assert space.n == n
        assert space.supports.shape == (space.m, -(-n // 64))
        truth = np.zeros((n, space.m), dtype=bool)
        for r, support in enumerate(oracle.supports):
            truth[sorted(support), r] = True
            assert space.support(r) == support
            assert space.features[r].support == support
            assert space.inverted_feature_list(r).tolist() == sorted(support)
        assert space.support_counts.tolist() == [
            len(s) for s in oracle.supports
        ]
        assert np.array_equal(space.incidence, truth.astype(np.int8))
        assert np.array_equal(space.embed_database(), truth.astype(float))
        assert np.array_equal(space.rows([n - 1, 0]), truth[[n - 1, 0]])
        for i in {0, n // 2, n - 1}:
            assert space.inverted_graph_list(i).tolist() == (
                np.flatnonzero(truth[i]).tolist()
            )
        # Padding bits past n stay zero: a count never sees them.
        assert int(np.bitwise_count(space.supports).sum()) == int(
            truth.sum()
        )
