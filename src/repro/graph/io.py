"""Graph database serialisation.

Two formats are supported:

* the classic **gSpan text format** (``t # <id>`` / ``v <id> <label>`` /
  ``e <u> <v> <label>``) used by most frequent-subgraph-mining tools, and
* a JSON format that round-trips arbitrary hashable labels as strings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, List, Union

from repro.graph.labeled_graph import Label, LabeledGraph
from repro.utils.errors import InvalidGraphError

PathLike = Union[str, Path]


def dumps_gspan(graphs: Iterable[LabeledGraph]) -> str:
    """Serialise *graphs* to the gSpan text format."""
    lines: List[str] = []
    for idx, g in enumerate(graphs):
        gid = g.graph_id if g.graph_id is not None else idx
        lines.append(f"t # {gid}")
        for v in range(g.num_vertices):
            lines.append(f"v {v} {g.vertex_label(v)}")
        for e in g.edges():
            lines.append(f"e {e.u} {e.v} {e.label}")
    lines.append("t # -1")
    return "\n".join(lines) + "\n"


def loads_gspan(
    text: str, decode: Callable[[str], Label] = str
) -> List[LabeledGraph]:
    """Parse gSpan-format *text* into a list of graphs.

    Labels come back as strings (the format is untyped), each passed
    through *decode* (a ``LabelCodec.decode`` restores typed labels).
    The terminating ``t # -1`` record is optional.  A malformed record
    raises :class:`InvalidGraphError` naming its line.
    """
    graphs: List[LabeledGraph] = []
    current: LabeledGraph = None  # type: ignore[assignment]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "t":
            if len(parts) >= 3 and parts[2] == "-1":
                current = None  # type: ignore[assignment]
                continue
            gid = parts[2] if len(parts) >= 3 else len(graphs)
            current = LabeledGraph(graph_id=gid)
            graphs.append(current)
        elif tag in ("v", "e"):
            if current is None:
                kind = "vertex" if tag == "v" else "edge"
                raise InvalidGraphError(
                    f"line {lineno}: {kind} before any 't' record"
                )
            fields = 3 if tag == "v" else 4
            if len(parts) != fields:
                raise InvalidGraphError(
                    f"line {lineno}: {tag!r} record needs {fields - 1} "
                    f"fields, got {len(parts) - 1}: {line!r}"
                )
            try:
                ids = [int(part) for part in parts[1:-1]]
            except ValueError:
                raise InvalidGraphError(
                    f"line {lineno}: non-integer vertex id in {line!r}"
                ) from None
            label = decode(parts[-1])
            if tag == "v":
                if ids[0] != current.num_vertices:
                    raise InvalidGraphError(
                        f"line {lineno}: vertex ids must be consecutive "
                        f"(got {ids[0]})"
                    )
                current.add_vertex(label)
            else:
                try:
                    current.add_edge(ids[0], ids[1], label)
                except InvalidGraphError as exc:
                    raise InvalidGraphError(f"line {lineno}: {exc}") from exc
        else:
            raise InvalidGraphError(f"line {lineno}: unknown record {tag!r}")
    return graphs


def save_gspan(graphs: Iterable[LabeledGraph], path: PathLike) -> None:
    """Write *graphs* to *path* in gSpan format."""
    Path(path).write_text(dumps_gspan(graphs))


def load_gspan(path: PathLike) -> List[LabeledGraph]:
    """Read a gSpan-format database from *path*."""
    return loads_gspan(Path(path).read_text())


def graph_to_obj(g: LabeledGraph) -> dict:
    """One graph as a JSON-ready object (labels stringified).

    The single source of the per-graph JSON shape: both the file format
    (:func:`dumps_json`) and the serving wire format
    (:mod:`repro.serving.protocol`) emit exactly this, and
    :func:`graph_from_obj` is the one parser of it, so the two can never
    drift apart.  ``id`` is present only when the graph has one.
    """
    obj: dict = {
        "vertices": [str(g.vertex_label(v)) for v in range(g.num_vertices)],
        "edges": [[e.u, e.v, str(e.label)] for e in g.edges()],
    }
    if g.graph_id is not None:
        obj["id"] = str(g.graph_id)
    return obj


def is_wire_int(value) -> bool:
    """A JSON integer — not ``true``/``false``, which Python's ``bool``
    would smuggle through ``isinstance(value, int)`` as 1/0."""
    return isinstance(value, int) and not isinstance(value, bool)


def graph_from_obj(obj, decode: Callable[[str], Label] = str) -> LabeledGraph:
    """Parse one JSON graph object: the inverse of :func:`graph_to_obj`.

    Labels must be strings and endpoints JSON integers, or it raises
    :class:`InvalidGraphError`.  Every label passes through *decode*
    (a ``LabelCodec.decode`` restores typed labels).
    """
    if not isinstance(obj, dict):
        raise InvalidGraphError("graph must be an object")
    vertices = obj.get("vertices")
    if not isinstance(vertices, list) or not all(
        isinstance(v, str) for v in vertices
    ):
        raise InvalidGraphError("graph 'vertices' must be a list of labels")
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise InvalidGraphError(
            "graph 'edges' must be a list of [u, v, label]"
        )
    g = LabeledGraph([decode(v) for v in vertices], graph_id=obj.get("id"))
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) != 3:
            raise InvalidGraphError("each edge must be [u, v, label]")
        u, v, label = edge
        if not (is_wire_int(u) and is_wire_int(v) and isinstance(label, str)):
            raise InvalidGraphError(
                f"bad edge {edge!r}: expected [integer, integer, string]"
            )
        try:
            g.add_edge(u, v, decode(label))
        except (TypeError, ValueError, InvalidGraphError) as exc:
            raise InvalidGraphError(f"bad edge {edge!r}: {exc}") from exc
    return g


def dumps_json(graphs: Iterable[LabeledGraph]) -> str:
    """Serialise *graphs* as a JSON document (labels stringified)."""
    payload = []
    for idx, g in enumerate(graphs):
        obj = graph_to_obj(g)
        obj.setdefault("id", str(idx))
        payload.append(obj)
    return json.dumps(payload, indent=1)


def loads_json(text: str) -> List[LabeledGraph]:
    """Parse a JSON document produced by :func:`dumps_json`."""
    records = json.loads(text)
    if not isinstance(records, list):
        raise InvalidGraphError("a JSON graph file must hold a list of graphs")
    return [graph_from_obj(record) for record in records]


def save_json(graphs: Iterable[LabeledGraph], path: PathLike) -> None:
    Path(path).write_text(dumps_json(graphs))


def load_json(path: PathLike) -> List[LabeledGraph]:
    return loads_json(Path(path).read_text())
