"""Round-trip tests for mapping persistence.

The cold-start guarantees live in ``test_index_artifact.py``; this
module covers what a ``save_index`` / ``load_index`` round trip
preserves, corruption detection, and the :class:`LabelCodec` — labels
come back with their original types on both dataset families
(string-labeled chemical, integer-labeled synthetic).
"""

import json

import numpy as np
import pytest

from repro.core.mapping import build_mapping
from repro.core.persistence import FORMAT_VERSION, LabelCodec
from repro.datasets import synthetic_database, synthetic_query_set
from repro.graph.io import dumps_gspan, loads_gspan
from repro.graph.labeled_graph import LabeledGraph
from repro.index import load_index, payload_path, save_index
from repro.query.topk import MappedTopKEngine


@pytest.fixture(scope="module")
def built_mapping(small_chemical_db):
    return build_mapping(
        small_chemical_db, num_features=6, min_support=0.2, max_pattern_edges=3
    )


@pytest.fixture(scope="module")
def synthetic_mapping():
    db = synthetic_database(25, avg_edges=14, density=0.3, num_labels=5, seed=3)
    return build_mapping(db, num_features=5, min_support=0.2,
                         max_pattern_edges=4)


class TestRoundTrip:
    def test_writes_current_format(self, built_mapping, tmp_path):
        path = tmp_path / "index.json"
        save_index(built_mapping, path)
        assert json.loads(path.read_text())["format_version"] == FORMAT_VERSION

    def test_vectors_preserved(self, built_mapping, tmp_path):
        path = tmp_path / "index.json"
        save_index(built_mapping, path)
        restored = load_index(path)
        assert (restored.database_vectors == built_mapping.database_vectors).all()
        assert restored.dimensionality == built_mapping.dimensionality

    def test_supports_preserved(self, built_mapping, tmp_path):
        path = tmp_path / "index.json"
        save_index(built_mapping, path)
        restored = load_index(path)
        original = built_mapping.selected_features()
        for i, feat in enumerate(restored.selected_features()):
            assert feat.support == original[i].support

    def test_queries_identical_after_reload(
        self, built_mapping, tmp_path, small_chemical_queries
    ):
        path = tmp_path / "index.json"
        save_index(built_mapping, path)
        restored = load_index(path)
        before = MappedTopKEngine(built_mapping)
        after = MappedTopKEngine(restored)
        for q in small_chemical_queries:
            assert before.query(q, 5).ranking == after.query(q, 5).ranking

    def test_version_check(self, built_mapping, tmp_path):
        path = tmp_path / "index.json"
        save_index(built_mapping, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_index(path)

    def test_corrupt_supports_detected(self, built_mapping, tmp_path):
        path = tmp_path / "index.json"
        save_index(built_mapping, path)
        payload = json.loads(path.read_text())
        payload["support_counts"] = payload["support_counts"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_index(path)

    def test_corrupt_vectors_detected(self, built_mapping, tmp_path):
        path = tmp_path / "index.json"
        save_index(built_mapping, path)
        data = payload_path(path).read_bytes()
        payload_path(path).write_bytes(data[:-7])  # truncated payload
        with pytest.raises(ValueError):
            load_index(path)
        with pytest.raises(ValueError):
            load_index(path, mmap=True)


class TestLabelRoundTrip:
    """Labels reload with their original types, not as gSpan text."""

    def test_chemical_string_labels(self, built_mapping, tmp_path):
        path = tmp_path / "chem.json"
        save_index(built_mapping, path)
        restored = load_index(path)
        for before, after in zip(
            built_mapping.selected_features(), restored.selected_features()
        ):
            g0, g1 = before.graph, after.graph
            assert [g1.vertex_label(v) for v in range(g1.num_vertices)] == [
                g0.vertex_label(v) for v in range(g0.num_vertices)
            ]
            assert all(isinstance(g1.vertex_label(v), str)
                       for v in range(g1.num_vertices))

    def test_synthetic_integer_labels(self, synthetic_mapping, tmp_path):
        path = tmp_path / "syn.json"
        save_index(synthetic_mapping, path)
        restored = load_index(path)
        for before, after in zip(
            synthetic_mapping.selected_features(),
            restored.selected_features(),
        ):
            g0, g1 = before.graph, after.graph
            for v in range(g1.num_vertices):
                assert g1.vertex_label(v) == g0.vertex_label(v)
                assert isinstance(g1.vertex_label(v), int)
            for e0, e1 in zip(g0.edges(), g1.edges()):
                assert e1.label == e0.label
                assert type(e1.label) is type(e0.label)

    def test_synthetic_queries_match_after_reload(
        self, synthetic_mapping, tmp_path
    ):
        """The actual bug the codec fixes: integer-labeled queries must
        match reloaded integer-labeled features."""
        path = tmp_path / "syn.json"
        save_index(synthetic_mapping, path)
        restored = load_index(path)
        queries = synthetic_query_set(
            4, avg_edges=14, density=0.3, num_labels=5, seed=9
        )
        before = synthetic_mapping.query_engine()
        after = restored.query_engine()
        matched_any = False
        for q in queries:
            va, vb = before.embed(q), after.embed(q)
            assert np.array_equal(va, vb)
            matched_any = matched_any or va.sum() > 0
        assert matched_any, "workload must exercise actual feature matches"


class TestLabelCodec:
    def test_int_float_str_round_trip(self):
        g = LabeledGraph([1, 2.5, "x"], [(0, 1, 7), (1, 2, "bond")])
        codec = LabelCodec.for_graphs([g])
        (decoded,) = loads_gspan(dumps_gspan([g]), codec.decode)
        assert [decoded.vertex_label(v) for v in range(3)] == [1, 2.5, "x"]
        assert sorted(str(e.label) for e in decoded.edges()) == ["7", "bond"]
        assert any(isinstance(e.label, int) for e in decoded.edges())

    def test_colliding_text_forms_rejected(self):
        g = LabeledGraph([1, "1"], [(0, 1, "e")])
        with pytest.raises(ValueError):
            LabelCodec.for_graphs([g])

    def test_whitespace_labels_rejected_loudly(self):
        # gSpan text splits on whitespace; such labels would silently
        # truncate on reload, so saving must fail instead.
        g = LabeledGraph(["C l"], [])
        with pytest.raises(ValueError, match="whitespace"):
            LabelCodec.for_graphs([g])
        g2 = LabeledGraph(["C", "O"], [(0, 1, "double bond")])
        with pytest.raises(ValueError, match="whitespace"):
            LabelCodec.for_graphs([g2])

    def test_unsupported_label_type_rejected(self):
        g = LabeledGraph([("tuple", "label")], [])
        with pytest.raises(ValueError):
            LabelCodec.for_graphs([g])
        with pytest.raises(ValueError):
            LabelCodec.for_graphs([LabeledGraph([True], [])])

    def test_unknown_text_passes_through_as_string(self):
        codec = LabelCodec({"5": "int"})
        assert codec.decode("5") == 5
        assert codec.decode("unseen") == "unseen"

    def test_payload_round_trip(self):
        codec = LabelCodec.for_graphs(
            [LabeledGraph([3, "C"], [(0, 1, 2)])]
        )
        again = LabelCodec.from_payload(codec.to_payload())
        assert again.table == codec.table

    def test_bad_payload_tag_rejected(self):
        with pytest.raises(ValueError):
            LabelCodec({"x": "banana"})
