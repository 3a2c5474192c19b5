"""Pair-at-a-time oracle for :mod:`repro.isomorphism.product_graph`.

The product graph is built with array ops: every pair of product
vertices is judged at once, as four key/image equivalences over int
columns.  This module keeps the rule in its first form instead, one
pair at a time over a dict: two partial vertex mappings are adjacent
when they use different edges of both graphs, agree on every shared
key and never send two distinct keys to one image.  The product
vertices are enumerated edge pair by edge pair, too.
``tests/test_mcs.py`` asserts that both give the same product.
"""

from __future__ import annotations

from typing import List, Sequence


def product_vertices(g1, g2) -> List:
    """Every label-matching oriented edge pair, in enumeration order."""
    edges1, edges2 = list(g1.edges()), list(g2.edges())
    vertices = []
    for i, e1 in enumerate(edges1):
        la, lb = g1.vertex_label(e1.u), g1.vertex_label(e1.v)
        for j, e2 in enumerate(edges2):
            if e1.label != e2.label:
                continue
            lx, ly = g2.vertex_label(e2.u), g2.vertex_label(e2.v)
            if la == lx and lb == ly:
                vertices.append((i, j, (e1.u, e1.v), (e2.u, e2.v)))
            if la == ly and lb == lx:
                vertices.append((i, j, (e1.u, e1.v), (e2.v, e2.u)))
    return vertices


def consistent(map1, a2: int, x2: int, b2: int, y2: int) -> bool:
    """Do mapping {a2→x2, b2→y2} and *map1* merge into an injective map?"""
    # Forward agreement on shared g1 vertices.
    img_a = map1.get(a2)
    if img_a is not None and img_a != x2:
        return False
    img_b = map1.get(b2)
    if img_b is not None and img_b != y2:
        return False
    # Injectivity: an image used by map1 may only be reused by the same key.
    for key, val in map1.items():
        if val == x2 and key != a2:
            return False
        if val == y2 and key != b2:
            return False
    return True


def adjacency(vertices: Sequence) -> List[int]:
    """The bitmask adjacency of *vertices*, as ``build_edge_product``
    returns it, judged one pair at a time."""
    n = len(vertices)
    adj = [0] * n
    for p in range(n):
        i1, j1, (a1, b1), (x1, y1) = vertices[p]
        map1 = {a1: x1, b1: y1}
        for q in range(p + 1, n):
            i2, j2, (a2, b2), (x2, y2) = vertices[q]
            if i1 == i2 or j1 == j2:
                continue
            if consistent(map1, a2, x2, b2, y2):
                adj[p] |= 1 << q
                adj[q] |= 1 << p
    return adj
