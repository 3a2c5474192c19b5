"""The undirected labeled graph used throughout the package.

The paper (Section 2) works with undirected labeled graphs
``g = (V, E, l)`` where ``l`` labels both vertices and edges.  Vertices are
integers ``0 .. n-1``; labels are arbitrary hashable values (the miners and
matchers only compare them for equality and ordering).

The class is a thin, fast adjacency-map structure.  It is mutable while
being constructed (``add_vertex`` / ``add_edge``) and is treated as frozen
once it enters a database; nothing in the package mutates a stored graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.utils.errors import InvalidGraphError

Label = Hashable


@dataclass(frozen=True)
class Edge:
    """An undirected edge ``u -- v`` with an edge label.

    ``u <= v`` is *not* required at construction; :meth:`normalized`
    provides the ordered form used for set membership.
    """

    u: int
    v: int
    label: Label

    def normalized(self) -> "Edge":
        """Return the same edge with endpoints in ascending order."""
        if self.u <= self.v:
            return self
        return Edge(self.v, self.u, self.label)

    def endpoints(self) -> Tuple[int, int]:
        return (self.u, self.v)


class LabeledGraph:
    """An undirected labeled graph with integer vertices.

    Parameters
    ----------
    vertex_labels:
        Labels for vertices ``0 .. n-1``, in order.
    edges:
        Iterable of ``(u, v, label)`` triples.  Self loops and duplicate
        edges are rejected.
    graph_id:
        Optional identifier (the database index, a name, ...) carried
        around for reporting.
    """

    __slots__ = ("_vlabels", "_adj", "_num_edges", "graph_id")

    def __init__(
        self,
        vertex_labels: Sequence[Label] = (),
        edges: Iterable[Tuple[int, int, Label]] = (),
        graph_id: Optional[object] = None,
    ) -> None:
        self._vlabels: List[Label] = list(vertex_labels)
        self._adj: List[Dict[int, Label]] = [{} for _ in self._vlabels]
        self._num_edges = 0
        self.graph_id = graph_id
        for u, v, label in edges:
            self.add_edge(u, v, label)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, label: Label) -> int:
        """Append a vertex with *label* and return its id."""
        self._vlabels.append(label)
        self._adj.append({})
        return len(self._vlabels) - 1

    def add_edge(self, u: int, v: int, label: Label) -> None:
        """Add the undirected edge ``u -- v`` carrying *label*."""
        n = len(self._vlabels)
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidGraphError(
                f"edge ({u}, {v}) references a vertex outside 0..{n - 1}"
            )
        if u == v:
            raise InvalidGraphError(f"self loop on vertex {u} is not allowed")
        if v in self._adj[u]:
            raise InvalidGraphError(f"duplicate edge ({u}, {v})")
        self._adj[u][v] = label
        self._adj[v][u] = label
        self._num_edges += 1

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._vlabels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertex_label(self, v: int) -> Label:
        return self._vlabels[v]

    def vertex_labels(self) -> List[Label]:
        """A copy of the vertex-label list."""
        return list(self._vlabels)

    @property
    def adjacency(self) -> List[Dict[int, Label]]:
        """The adjacency maps themselves: ``adjacency[u][v]`` is the label
        of edge ``u -- v``.  Not a copy — for read-only inner loops (the
        VF2 walker) that cannot afford an accessor call per neighbour."""
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edge_label(self, u: int, v: int) -> Label:
        try:
            return self._adj[u][v]
        except KeyError:
            raise InvalidGraphError(f"no edge ({u}, {v})") from None

    def neighbors(self, v: int) -> Iterator[int]:
        return iter(self._adj[v])

    def neighbor_items(self, v: int) -> Iterator[Tuple[int, Label]]:
        """Iterate ``(neighbor, edge_label)`` pairs of *v*."""
        return iter(self._adj[v].items())

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges(self) -> Iterator[Edge]:
        """Iterate every edge exactly once, endpoints ascending."""
        for u, nbrs in enumerate(self._adj):
            for v, label in nbrs.items():
                if u < v:
                    yield Edge(u, v, label)

    def density(self) -> float:
        """``2|E| / (|V| (|V|-1))``; 0.0 for graphs with < 2 vertices."""
        n = self.num_vertices
        if n < 2:
            return 0.0
        return 2.0 * self._num_edges / (n * (n - 1))

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Sequence[int]) -> "LabeledGraph":
        """The vertex-induced subgraph on *vertices* (ids remapped to 0..)."""
        index = {v: i for i, v in enumerate(vertices)}
        sub = LabeledGraph([self._vlabels[v] for v in vertices])
        for v in vertices:
            for w, label in self._adj[v].items():
                if w in index and v < w:
                    sub.add_edge(index[v], index[w], label)
        return sub

    def edge_subgraph(self, edges: Sequence[Edge]) -> "LabeledGraph":
        """The subgraph spanned by *edges* (vertices remapped to 0..)."""
        index: Dict[int, int] = {}
        sub = LabeledGraph()
        for e in edges:
            for endpoint in e.endpoints():
                if endpoint not in index:
                    index[endpoint] = sub.add_vertex(self._vlabels[endpoint])
        for e in edges:
            sub.add_edge(index[e.u], index[e.v], e.label)
        return sub

    def copy(self, graph_id: Optional[object] = None) -> "LabeledGraph":
        """A structural copy (labels shared, topology duplicated)."""
        g = LabeledGraph(self._vlabels, graph_id=graph_id or self.graph_id)
        for e in self.edges():
            g.add_edge(e.u, e.v, e.label)
        return g

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def connected_components(self) -> List[List[int]]:
        """Vertex lists of the connected components (BFS, sorted ids)."""
        seen = [False] * self.num_vertices
        components: List[List[int]] = []
        for start in range(self.num_vertices):
            if seen[start]:
                continue
            queue = [start]
            seen[start] = True
            component = []
            while queue:
                v = queue.pop()
                component.append(v)
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            components.append(sorted(component))
        return components

    def is_connected(self) -> bool:
        """True for the empty graph, single vertices, and connected graphs."""
        return len(self.connected_components()) <= 1

    def label_multiset(self) -> Tuple[Tuple[Label, int], ...]:
        """Sorted ``(vertex_label, count)`` pairs — a cheap iso invariant."""
        counts: Dict[Label, int] = {}
        for label in self._vlabels:
            counts[label] = counts.get(label, 0) + 1
        return tuple(sorted(counts.items(), key=lambda kv: repr(kv[0])))

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gid = f" id={self.graph_id!r}" if self.graph_id is not None else ""
        return (
            f"<LabeledGraph{gid} |V|={self.num_vertices} |E|={self.num_edges}>"
        )

    def key(self) -> Tuple:
        """The graph's identity: vertex labels and sorted ``(u, v,
        label)`` edges, ``u < v``, labels compared with ``==`` as VF2
        does.  The embedding and placement caches key on it, and ``==``
        / ``hash`` are defined through it."""
        return (
            tuple(self._vlabels),
            tuple(sorted(
                (u, v, label)
                for u, nbrs in enumerate(self._adj)
                for v, label in nbrs.items()
                if u < v
            )),
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality under the *identity* vertex mapping.

        This is intentional: two isomorphic graphs with different vertex
        numberings are *not* ``==``.  Use :func:`repro.graph.canonical.
        canonical_signature` for isomorphism-invariant comparison.
        """
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())
