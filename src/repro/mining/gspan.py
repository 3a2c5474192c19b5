"""gSpan frequent-subgraph mining (Yan & Han, ICDM'02).

The paper mines its candidate feature set ``F`` with gSpan at minimum
support τ = 5%.  This is a from-scratch implementation:

* graphs are encoded with integer labels (arbitrary hashable labels are
  mapped through a deterministic dictionary so DFS-code comparisons stay
  well-ordered),
* patterns grow by rightmost-path extension over projection lists,
* duplicate patterns are pruned by the minimum-DFS-code canonicality test.

A mined pattern comes back as a :class:`FrequentSubgraph`: the pattern
graph (original labels restored) plus its exact support set — which doubles
as the inverted list ``IF`` the DSPM algorithms need, so no VF2 calls are
required at index-construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.mining.dfs_code import (
    VACANT,
    DFSCode,
    DFSEdge,
    DirectedEdge,
    EncodedGraph,
    History,
    PDFS,
    Projected,
)
from repro.utils.errors import MiningError


@dataclass
class FrequentSubgraph:
    """A frequent pattern and where it occurs.

    Attributes
    ----------
    graph:
        The pattern as a :class:`LabeledGraph` (original labels).
    support:
        Indices of the database graphs containing the pattern (``sup(f)``).
        Constructed from a set, or from a callable returning one: a
        :class:`~repro.features.binary_matrix.FeatureSpace` gives its
        features a view of its support matrix, built on each read.
    dfs_code:
        The canonical (minimum) DFS code, kept as a stable pattern identity.
    """

    graph: LabeledGraph
    support: Set[int]
    dfs_code: Tuple = ()

    @property
    def support_count(self) -> int:
        return len(self.support)

    def frequency(self, database_size: int) -> float:
        """``freq(f) = |sup(f)| / |DG|``."""
        return len(self.support) / database_size

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


def _get_support(self) -> Set[int]:
    value = self.__dict__["_support"]
    return value() if callable(value) else value


def _set_support(self, value) -> None:
    self.__dict__["_support"] = value


# Attached after @dataclass generated ``__init__``, whose assignment then
# routes through the setter.
FrequentSubgraph.support = property(_get_support, _set_support)


class _LabelCodec:
    """Deterministic bidirectional mapping between labels and ints."""

    def __init__(self, labels: Sequence[Hashable]) -> None:
        unique = sorted(set(labels), key=repr)
        self._to_int: Dict[Hashable, int] = {lab: i for i, lab in enumerate(unique)}
        self._to_label: List[Hashable] = unique

    def encode(self, label: Hashable) -> int:
        return self._to_int[label]

    def decode(self, code: int) -> Hashable:
        return self._to_label[code]


class GSpanMiner:
    """Mines all connected frequent subgraphs of a graph database.

    Parameters
    ----------
    graphs:
        The database ``DG``.
    min_support:
        Fraction in ``(0, 1]`` (τ in the paper) or an absolute count when
        ``>= 1`` and integral.
    max_edges:
        Upper bound on pattern size (``None`` for unbounded).  The paper's
        evaluation keeps feature sets moderate; bounding pattern size is
        the standard way to do so (cf. gIndex's size-bounded features).
    min_edges:
        Smallest pattern size to report (default 1 edge).
    """

    def __init__(
        self,
        graphs: Sequence[LabeledGraph],
        min_support: float = 0.05,
        max_edges: Optional[int] = None,
        min_edges: int = 1,
    ) -> None:
        if not graphs:
            raise MiningError("cannot mine an empty database")
        if min_support <= 0:
            raise MiningError("min_support must be positive")
        if min_edges < 1:
            raise MiningError("min_edges must be at least 1")
        if max_edges is not None and max_edges < min_edges:
            raise MiningError("max_edges must be >= min_edges")

        self._graphs_raw = list(graphs)
        if min_support < 1 or isinstance(min_support, float):
            self._min_support_abs = max(1, int(round(min_support * len(graphs))))
        else:
            self._min_support_abs = int(min_support)
        self._max_edges = max_edges
        self._min_edges = min_edges

        self._vertex_codec = _LabelCodec(
            [g.vertex_label(v) for g in graphs for v in range(g.num_vertices)]
        )
        self._edge_codec = _LabelCodec(
            [e.label for g in graphs for e in g.edges()]
        )
        self._encoded: List[EncodedGraph] = [
            self._encode(g, gid) for gid, g in enumerate(graphs)
        ]
        self._dfs_code = DFSCode()
        self._results: List[FrequentSubgraph] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def mine(self) -> List[FrequentSubgraph]:
        """Run the search and return all frequent patterns."""
        self._results = []
        self._dfs_code = DFSCode()

        root: Dict[Tuple[int, int, int], Projected] = {}
        for g in self._encoded:
            for frm in range(g.num_vertices):
                for edge in self._forward_root_edges(g, frm):
                    vevlb = (g.vlb(edge[0]), edge[2], g.vlb(edge[1]))
                    root.setdefault(vevlb, Projected()).push(g.gid, edge, None)

        for vevlb in sorted(root):
            projected = root[vevlb]
            if len(projected.support_set()) < self._min_support_abs:
                continue
            self._dfs_code.push(0, 1, vevlb)
            self._subgraph_mining(projected)
            self._dfs_code.pop()
        return self._results

    # ------------------------------------------------------------------
    # database encoding
    # ------------------------------------------------------------------
    def _encode(self, graph: LabeledGraph, gid: int) -> EncodedGraph:
        g = EncodedGraph(gid=gid, num_vertices=graph.num_vertices)
        for v in range(graph.num_vertices):
            g.vertex_labels[v] = self._vertex_codec.encode(graph.vertex_label(v))
        for e in graph.edges():
            g.add_edge(e.u, e.v, self._edge_codec.encode(e.label))
        return g

    def _decode_pattern(self, code: DFSCode) -> LabeledGraph:
        encoded = code.to_encoded_graph()
        pattern = LabeledGraph(
            [self._vertex_codec.decode(c) for c in encoded.vertex_labels]
        )
        seen = set()
        for v in range(encoded.num_vertices):
            for frm, to, elb, eid in encoded.adjacency[v]:
                if eid not in seen:
                    seen.add(eid)
                    pattern.add_edge(frm, to, self._edge_codec.decode(elb))
        return pattern

    # ------------------------------------------------------------------
    # rightmost extension enumeration
    # ------------------------------------------------------------------
    @staticmethod
    def _forward_root_edges(g: EncodedGraph, frm: int) -> List[DirectedEdge]:
        """Directed edges from *frm* whose endpoint label is not smaller."""
        return [
            e for e in g.adjacency[frm] if g.vlb(frm) <= g.vlb(e[1])
        ]

    @staticmethod
    def _backward_edge(
        g: EncodedGraph,
        e1: DirectedEdge,
        e2: DirectedEdge,
        history: History,
    ) -> Optional[DirectedEdge]:
        """The backward extension from the rightmost vertex to ``e1.frm``.

        *e1* is an earlier rightmost-path edge, *e2* the edge reaching the
        rightmost vertex.  gSpan's ordering rule only admits the extension
        when it cannot produce a smaller code.
        """
        for e in g.adjacency[e2[1]]:
            if history.has_edge(e[3]) or e[1] != e1[0]:
                continue
            if e1[2] < e[2] or (e1[2] == e[2] and g.vlb(e1[1]) <= g.vlb(e2[1])):
                return e
        return None

    @staticmethod
    def _forward_pure_edges(
        g: EncodedGraph,
        rm_edge: DirectedEdge,
        min_vlb: int,
        history: History,
    ) -> List[DirectedEdge]:
        """Forward extensions growing from the rightmost vertex."""
        return [
            e
            for e in g.adjacency[rm_edge[1]]
            if min_vlb <= g.vlb(e[1]) and not history.has_vertex(e[1])
        ]

    @staticmethod
    def _forward_rmpath_edges(
        g: EncodedGraph,
        rm_edge: DirectedEdge,
        min_vlb: int,
        history: History,
    ) -> List[DirectedEdge]:
        """Forward extensions growing from an interior rightmost-path vertex."""
        result = []
        for e in g.adjacency[rm_edge[0]]:
            if (
                e[1] == rm_edge[1]
                or g.vlb(e[1]) < min_vlb
                or history.has_vertex(e[1])
            ):
                continue
            if rm_edge[2] < e[2] or (
                rm_edge[2] == e[2] and g.vlb(rm_edge[1]) <= g.vlb(e[1])
            ):
                result.append(e)
        return result

    # ------------------------------------------------------------------
    # the recursive search
    # ------------------------------------------------------------------
    def _subgraph_mining(self, projected: Projected) -> None:
        support = projected.support_set()
        if len(support) < self._min_support_abs:
            return
        if not self._is_min():
            return

        if len(self._dfs_code) >= self._min_edges:
            pattern = self._decode_pattern(self._dfs_code)
            code_key = tuple(
                (e.frm, e.to, e.vevlb) for e in self._dfs_code
            )
            self._results.append(
                FrequentSubgraph(pattern, set(support), dfs_code=code_key)
            )
        if self._max_edges is not None and len(self._dfs_code) >= self._max_edges:
            return

        rmpath = self._dfs_code.build_rmpath()
        min_vlb = self._dfs_code[0].vevlb[0]
        maxtoc = self._dfs_code[rmpath[0]].to

        forward_root: Dict[Tuple[int, int, int], Projected] = {}
        backward_root: Dict[Tuple[int, int], Projected] = {}

        for p in projected:
            g = self._encoded[p.gid]
            history = History(p)
            # Backward extensions, deepest rightmost-path vertex first.
            for i in range(len(rmpath) - 1, 0, -1):
                e = self._backward_edge(
                    g, history.edges[rmpath[i]], history.edges[rmpath[0]], history
                )
                if e is not None:
                    key = (self._dfs_code[rmpath[i]].frm, e[2])
                    backward_root.setdefault(key, Projected()).push(p.gid, e, p)
            # Pure forward extensions from the rightmost vertex.
            for e in self._forward_pure_edges(
                g, history.edges[rmpath[0]], min_vlb, history
            ):
                key = (maxtoc, e[2], g.vlb(e[1]))
                forward_root.setdefault(key, Projected()).push(p.gid, e, p)
            # Forward extensions from interior rightmost-path vertices.
            for rmpath_i in rmpath:
                for e in self._forward_rmpath_edges(
                    g, history.edges[rmpath_i], min_vlb, history
                ):
                    key = (self._dfs_code[rmpath_i].frm, e[2], g.vlb(e[1]))
                    forward_root.setdefault(key, Projected()).push(p.gid, e, p)

        # Recurse in DFS-code order: backward first, then forward with
        # larger source discovery time first.
        for to, elb in sorted(backward_root):
            self._dfs_code.push(maxtoc, to, (VACANT, elb, VACANT))
            self._subgraph_mining(backward_root[(to, elb)])
            self._dfs_code.pop()
        for frm, elb, vlb2 in sorted(
            forward_root, key=lambda k: (-k[0], k[1], k[2])
        ):
            self._dfs_code.push(frm, maxtoc + 1, (VACANT, elb, vlb2))
            self._subgraph_mining(forward_root[(frm, elb, vlb2)])
            self._dfs_code.pop()

    # ------------------------------------------------------------------
    # minimum-DFS-code canonicality
    # ------------------------------------------------------------------
    def _is_min(self) -> bool:
        """Is the current DFS code the minimum code of its pattern?"""
        if len(self._dfs_code) == 1:
            return True
        g = self._dfs_code.to_encoded_graph()
        code_min = DFSCode()

        root: Dict[Tuple[int, int, int], Projected] = {}
        for frm in range(g.num_vertices):
            for edge in self._forward_root_edges(g, frm):
                vevlb = (g.vlb(edge[0]), edge[2], g.vlb(edge[1]))
                root.setdefault(vevlb, Projected()).push(g.gid, edge, None)
        min_vevlb = min(root)
        code_min.push(0, 1, min_vevlb)
        if self._dfs_code[0] != code_min[0]:
            return False

        def project_is_min(projected: Projected) -> bool:
            rmpath = code_min.build_rmpath()
            min_vlb = code_min[0].vevlb[0]
            maxtoc = code_min[rmpath[0]].to

            # Minimal backward extension, if any exists.
            backward: Dict[int, Projected] = {}
            newto = 0
            found = False
            for i in range(len(rmpath) - 1, 0, -1):
                if found:
                    break
                for p in projected:
                    history = History(p)
                    e = self._backward_edge(
                        g, history.edges[rmpath[i]], history.edges[rmpath[0]], history
                    )
                    if e is not None:
                        backward.setdefault(e[2], Projected()).push(g.gid, e, p)
                        newto = code_min[rmpath[i]].frm
                        found = True
            if found:
                elb = min(backward)
                code_min.push(maxtoc, newto, (VACANT, elb, VACANT))
                idx = len(code_min) - 1
                if self._dfs_code[idx] != code_min[idx]:
                    return False
                return project_is_min(backward[elb])

            # Minimal forward extension.
            forward: Dict[Tuple[int, int], Projected] = {}
            newfrm = 0
            found = False
            for p in projected:
                history = History(p)
                edges = self._forward_pure_edges(
                    g, history.edges[rmpath[0]], min_vlb, history
                )
                if edges:
                    found = True
                    newfrm = maxtoc
                    for e in edges:
                        forward.setdefault((e[2], g.vlb(e[1])), Projected()).push(
                            g.gid, e, p
                        )
            for rmpath_i in rmpath:
                if found:
                    break
                for p in projected:
                    history = History(p)
                    edges = self._forward_rmpath_edges(
                        g, history.edges[rmpath_i], min_vlb, history
                    )
                    if edges:
                        found = True
                        newfrm = code_min[rmpath_i].frm
                        for e in edges:
                            forward.setdefault(
                                (e[2], g.vlb(e[1])), Projected()
                            ).push(g.gid, e, p)
            if not found:
                return True

            elb, vlb2 = min(forward)
            code_min.push(newfrm, maxtoc + 1, (VACANT, elb, vlb2))
            idx = len(code_min) - 1
            if self._dfs_code[idx] != code_min[idx]:
                return False
            return project_is_min(forward[(elb, vlb2)])

        return project_is_min(root[min_vevlb])


def mine_frequent_subgraphs(
    graphs: Sequence[LabeledGraph],
    min_support: float = 0.05,
    max_edges: Optional[int] = None,
    min_edges: int = 1,
) -> List[FrequentSubgraph]:
    """Convenience wrapper: mine and return all frequent subgraphs of *graphs*.

    See :class:`GSpanMiner` for parameter semantics.
    """
    return GSpanMiner(
        graphs,
        min_support=min_support,
        max_edges=max_edges,
        min_edges=min_edges,
    ).mine()
