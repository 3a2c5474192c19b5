"""Edge-product (modular product of edges) construction for MCS.

The maximum common edge subgraph (MCES) of two labeled graphs equals the
maximum clique of their *edge product graph*:

* a product vertex is an oriented pair of edges ``(e1 in g1, e2 in g2)``
  whose edge labels match and whose endpoint labels match under the chosen
  orientation — it encodes the partial vertex mapping sending ``e1``'s
  endpoints to ``e2``'s;
* two product vertices are adjacent when their partial vertex mappings are
  mutually consistent (agree on shared vertices, never map two distinct
  vertices to the same image) and neither reuses the other's edges.

A clique therefore corresponds to a set of edge pairs whose union of
partial mappings is one injective, label-preserving vertex mapping — i.e. a
common subgraph — and clique size equals its edge count.  This is the
classic RASCAL reduction; it permits disconnected common subgraphs, which
matches the Bunke/Shearer dissimilarities the paper uses.

The product is built with array ops.  The product vertices are int
columns ``(i, j, a, b, x, y)``, and the adjacency of every pair is one
boolean matrix.  Two mappings ``{a→x, b→y}`` and ``{a'→x', b'→y'}``
merge into one injective map exactly when, for each of the four
combinations of a key from each side, the keys are equal iff their
images are: equal keys must agree (a function), equal images must come
from equal keys (injective).  Each row is packed into a Python-int
bitset once.

The vertices are numbered by product degree, highest first: the initial
order of Tomita's MCQ.  The clique solver colours candidates lowest
index first, so the dense vertices take the low colours, where the
colour bound cuts the search before it branches on them.  The order
changes which optimal clique is found first, never its size.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.labeled_graph import LabeledGraph

# A product vertex: (edge index in g1, edge index in g2,
#                    (a, b) endpoints in g1, (x, y) images in g2)
ProductVertex = Tuple[int, int, Tuple[int, int], Tuple[int, int]]


def _edge_columns(g: LabeledGraph, codes: dict) -> np.ndarray:
    """Columns ``(u, v, label(u), label(v), edge label)`` over *g*'s
    edges, labels as int codes shared through *codes*."""
    def code(label) -> int:
        return codes.setdefault(label, len(codes))

    return np.array(
        [
            (e.u, e.v, code(g.vertex_label(e.u)), code(g.vertex_label(e.v)),
             code(e.label))
            for e in g.edges()
        ],
        dtype=np.int64,
    ).reshape(-1, 5).T


def _eq(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``out[r, c] = p[r] == q[c]``."""
    return p[:, None] == q[None, :]


def build_edge_product(
    g1: LabeledGraph, g2: LabeledGraph
) -> Tuple[List[ProductVertex], List[int]]:
    """Return the product vertices, in degree order, and their adjacency.

    The adjacency is returned as one Python integer bitmask per vertex
    (bit ``j`` of ``adj[i]`` set iff vertices ``i`` and ``j`` are
    adjacent), which is the representation the branch-and-bound clique
    solver consumes.
    """
    codes: dict = {}
    u1, v1, lu1, lv1, le1 = _edge_columns(g1, codes)
    u2, v2, lu2, lv2, le2 = _edge_columns(g2, codes)
    same = _eq(le1, le2)
    forward = same & _eq(lu1, lu2) & _eq(lv1, lv2)
    reverse = same & _eq(lu1, lv2) & _eq(lv1, lu2)
    # Axis 2 is the orientation: (a, b) -> (x, y), then -> (y, x).
    i, j, flip = np.nonzero(np.stack([forward, reverse], axis=2))
    a, b = u1[i], v1[i]
    x = np.where(flip, v2[j], u2[j])
    y = np.where(flip, u2[j], v2[j])

    adjacent = ~_eq(i, i) & ~_eq(j, j)
    for key, image in ((a, x), (b, y)):
        for key2, image2 in ((a, x), (b, y)):
            adjacent &= _eq(key, key2) == _eq(image, image2)

    order = np.argsort(-adjacent.sum(axis=1), kind="stable")
    adjacent = adjacent[np.ix_(order, order)]
    packed = np.packbits(adjacent, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    adj = [
        int.from_bytes(data[r * width:(r + 1) * width], "little")
        for r in range(len(order))
    ]
    columns = [c[order].tolist() for c in (i, j, a, b, x, y)]
    vertices = [
        (ii, jj, (aa, bb), (xx, yy))
        for ii, jj, aa, bb, xx, yy in zip(*columns)
    ]
    return vertices, adj
