"""Round-trip tests for the gSpan and JSON graph formats."""

import json

import pytest

from repro.graph import LabeledGraph
from repro.graph.io import (
    dumps_gspan,
    dumps_json,
    load_gspan,
    load_json,
    loads_gspan,
    loads_json,
    save_gspan,
    save_json,
)
from repro.utils.errors import InvalidGraphError


def _string_labeled(g: LabeledGraph) -> LabeledGraph:
    out = LabeledGraph([str(g.vertex_label(v)) for v in range(g.num_vertices)],
                       graph_id=str(g.graph_id) if g.graph_id is not None else None)
    for e in g.edges():
        out.add_edge(e.u, e.v, str(e.label))
    return out


class TestGSpanFormat:
    def test_round_trip(self, small_synthetic_db):
        original = [_string_labeled(g) for g in small_synthetic_db[:5]]
        parsed = loads_gspan(dumps_gspan(original))
        assert len(parsed) == 5
        for a, b in zip(original, parsed):
            assert a.num_vertices == b.num_vertices
            assert a.num_edges == b.num_edges
            assert sorted((e.u, e.v, e.label) for e in a.edges()) == sorted(
                (e.u, e.v, e.label) for e in b.edges()
            )

    def test_terminator_optional(self):
        text = "t # 0\nv 0 a\nv 1 b\ne 0 1 x\n"
        graphs = loads_gspan(text)
        assert len(graphs) == 1
        assert graphs[0].num_edges == 1

    def test_vertex_before_transaction_rejected(self):
        with pytest.raises(InvalidGraphError):
            loads_gspan("v 0 a\n")

    def test_non_consecutive_vertex_ids_rejected(self):
        with pytest.raises(InvalidGraphError):
            loads_gspan("t # 0\nv 1 a\n")

    def test_unknown_record_rejected(self):
        with pytest.raises(InvalidGraphError):
            loads_gspan("t # 0\nq nonsense\n")

    @pytest.mark.parametrize(
        "record, lineno",
        [
            ("e 0 1", 4),  # missing label
            ("e 0", 4),
            ("v 2", 4),
            ("v", 4),
            ("e 0 x 1", 4),  # non-integer endpoint
            ("v two C", 4),  # non-integer id
            ("e 0 1 x y", 4),  # a stray field
            ("e 0 7 x", 4),  # endpoint out of range
        ],
    )
    def test_malformed_record_names_its_line(self, record, lineno):
        text = f"t # 0\nv 0 C\nv 1 C\n{record}\n"
        with pytest.raises(InvalidGraphError, match=f"^line {lineno}: "):
            loads_gspan(text)

    def test_decode_applies_to_every_label(self):
        text = "t # 0\nv 0 6\nv 1 8\ne 0 1 2\n"
        (g,) = loads_gspan(text, int)
        assert g.vertex_labels() == [6, 8]
        assert [e.label for e in g.edges()] == [2]

    def test_file_round_trip(self, tmp_path, small_synthetic_db):
        original = [_string_labeled(g) for g in small_synthetic_db[:3]]
        path = tmp_path / "db.gspan"
        save_gspan(original, path)
        assert len(load_gspan(path)) == 3


class TestJSONFormat:
    def test_round_trip(self, small_chemical_db):
        parsed = loads_json(dumps_json(small_chemical_db[:4]))
        assert len(parsed) == 4
        for a, b in zip(small_chemical_db, parsed):
            assert a.num_vertices == b.num_vertices
            assert a.num_edges == b.num_edges

    def test_file_round_trip(self, tmp_path, small_chemical_db):
        path = tmp_path / "db.json"
        save_json(small_chemical_db[:2], path)
        assert len(load_json(path)) == 2

    def test_ids_preserved(self, small_chemical_db):
        parsed = loads_json(dumps_json(small_chemical_db[:2]))
        assert parsed[0].graph_id == str(small_chemical_db[0].graph_id)

    @pytest.mark.parametrize(
        "record",
        [
            {"vertices": ["C", "C"], "edges": [[0, 1]]},
            {"edges": [[0, 1, "s"]]},
            {"vertices": ["C", "C", "O"], "edges": [[0, 1.7, "s"]]},
            {"vertices": ["C", "C", "O"], "edges": [[True, 2, "s"]]},
        ],
        ids=["two-item-edge", "no-vertices", "float-endpoint",
             "bool-endpoint"],
    )
    def test_bad_records_rejected(self, record):
        """The file format has the wire's one parser: each record that
        ``graph_from_wire`` refuses is an :class:`InvalidGraphError`
        here, not a coerced edge or a ``KeyError``."""
        with pytest.raises(InvalidGraphError):
            loads_json(json.dumps([record]))

    def test_document_must_be_a_list(self):
        with pytest.raises(InvalidGraphError):
            loads_json(json.dumps({"vertices": ["C"], "edges": []}))
