"""VF2-style subgraph isomorphism for undirected labeled graphs.

The paper matches features against query graphs with VF2 [43].  We need
*monomorphism* semantics: ``pattern ⊆ target`` holds when there is an
injective vertex mapping preserving vertex labels and mapping every pattern
edge onto a target edge with the same edge label.  The target may contain
extra edges between mapped vertices (the usual "subgraph isomorphic"
relation of the frequent-subgraph-mining literature — not induced).

The search is VF2's incremental state with feasibility pruning:

* label compatibility of the candidate pair,
* consistency of already-mapped neighbors (all pattern edges into the
  mapped core must exist in the target with equal labels),
* a degree look-ahead (a pattern vertex cannot map to a target vertex of
  smaller degree),
* a global pre-check before search starts: the target must dominate the
  pattern's size, label and half-edge histograms and degree sequence.

It is split the way the online path uses it.  Everything that depends
on the pattern alone is compiled once into a flat **match plan**
(:func:`compile_plan`, held by :class:`PatternProfile`): one step per
search depth naming the label and degree the candidate needs, the
earlier depth whose image supplies the candidates, and the edges back
into the mapped core, each with its ``(edge label, label)`` key.
Everything that depends on the target alone sits in a
:class:`TargetProfile`: the histograms the pre-check reads, and the
target's vertex sets as int bitsets — per label, per vertex and
neighbour kind, per minimum degree.  One iterative **walker**
(:func:`match_plan`) then runs a plan against a target profile, where
the first three feasibility rules are one AND of masks per depth;
:func:`is_subgraph`, :func:`find_embedding` and :func:`count_embeddings`
are thin wrappers over it.  Pass the profiles in when one target is
matched against many patterns (feature matching at query time) or one
pattern against many targets, instead of letting every call rebuild
them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.graph.labeled_graph import LabeledGraph

#: A neighbour kind: ``(edge label, neighbour's vertex label)``.
EdgeKey = Tuple[object, object]

#: One step of a match plan: ``(vertex label, degree, anchor depth,
#: anchor key, back-edges)``, each back-edge ``(earlier depth, key)``.
PlanStep = Tuple[object, int, int, EdgeKey, Tuple[Tuple[int, EdgeKey], ...]]


class TargetProfile:
    """Precomputed match-target invariants, shared across many patterns.

    Built in one pass over the target.  The walker reads three bitsets,
    each a Python int with bit ``v`` for target vertex ``v`` (ints are
    unbounded, so a target may have any number of vertices):

    * ``label_bits[label]`` — the vertices with that label;
    * ``neighbour_bits[u][(edge label, neighbour label)]`` — ``u``'s
      neighbours of that kind;
    * ``degree_bits[d]`` — the vertices of degree ``>= d``.

    The pre-check reads ``vertex_label_counts`` (the popcounts of
    ``label_bits``), ``triple_counts`` keyed ``(label, (edge label,
    neighbour label))`` (one per directed half-edge: the popcounts of
    ``neighbour_bits``) and the descending degree sequence.  One profile
    serves every pattern matched against the target — the per-query
    cache of the online path.
    """

    __slots__ = (
        "target",
        "num_vertices",
        "num_edges",
        "vertex_label_counts",
        "triple_counts",
        "degrees_desc",
        "label_bits",
        "neighbour_bits",
        "degree_bits",
    )

    def __init__(self, target: LabeledGraph) -> None:
        self.target = target
        self.num_vertices = target.num_vertices
        self.num_edges = target.num_edges
        labels = target.vertex_labels()
        label_bits: Dict[object, int] = {}
        neighbour_bits: List[Dict[EdgeKey, int]] = []
        triple_counts: Dict[object, int] = {}
        degrees = [len(nbrs) for nbrs in target.adjacency]
        degree_bits = [0] * (max(degrees, default=0) + 1)
        for u, nbrs in enumerate(target.adjacency):
            bit = 1 << u
            own = labels[u]
            label_bits[own] = label_bits.get(own, 0) | bit
            degree_bits[degrees[u]] |= bit
            row: Dict[EdgeKey, int] = {}
            for v, lab in nbrs.items():
                key = (lab, labels[v])
                row[key] = row.get(key, 0) | (1 << v)
                triple = (own, key)
                triple_counts[triple] = triple_counts.get(triple, 0) + 1
            neighbour_bits.append(row)
        for d in range(len(degree_bits) - 2, -1, -1):
            degree_bits[d] |= degree_bits[d + 1]
        self.label_bits = label_bits
        self.neighbour_bits = neighbour_bits
        self.degree_bits = degree_bits
        self.vertex_label_counts = {
            lab: bits.bit_count() for lab, bits in label_bits.items()
        }
        self.triple_counts = triple_counts
        self.degrees_desc = sorted(degrees, reverse=True)


def _histograms(pattern: LabeledGraph) -> Tuple[Dict, Dict, List[int]]:
    """Vertex-label and half-edge triple counts (keyed like
    :attr:`TargetProfile.triple_counts`), and the descending degrees."""
    labels = pattern.vertex_labels()
    return (
        dict(Counter(labels)),
        dict(
            Counter(
                (labels[u], (lab, labels[v]))
                for u, nbrs in enumerate(pattern.adjacency)
                for v, lab in nbrs.items()
            )
        ),
        sorted(map(len, pattern.adjacency), reverse=True),
    )


class PatternProfile:
    """Precomputed pattern-side invariants, search order and match plan.

    The counterpart of :class:`TargetProfile` for the other side of the
    match: when one pattern is matched against many targets (a feature
    across a query stream), its histograms, degree sequence, search
    order and the plan compiled from that order are pure functions of
    the pattern, computed once per pattern — an O(V+E) pass, so they
    are derived wherever a pattern is loaded and never persisted
    (:meth:`FeatureSpace.pattern_profile
    <repro.features.binary_matrix.FeatureSpace.pattern_profile>` keeps
    the one profile of each feature).
    """

    __slots__ = (
        "pattern",
        "num_vertices",
        "num_edges",
        "vertex_label_counts",
        "triple_counts",
        "degrees_desc",
        "search_order",
        "plan",
    )

    def __init__(self, pattern: LabeledGraph) -> None:
        self.pattern = pattern
        self.num_vertices = pattern.num_vertices
        self.num_edges = pattern.num_edges
        (
            self.vertex_label_counts,
            self.triple_counts,
            self.degrees_desc,
        ) = _histograms(pattern)
        self.search_order = _search_order(pattern)
        self.plan = compile_plan(pattern, self.search_order)


def _profile_for(
    target: LabeledGraph, profile: Optional[TargetProfile]
) -> TargetProfile:
    if profile is None:
        return TargetProfile(target)
    if profile.target is not target:
        raise ValueError("TargetProfile was built for a different target graph")
    return profile


def _pattern_profile_for(
    pattern: LabeledGraph, profile: Optional[PatternProfile]
) -> PatternProfile:
    if profile is None:
        return PatternProfile(pattern)
    if profile.pattern is not pattern:
        raise ValueError("PatternProfile was built for a different pattern")
    return profile


def _label_counts_ok(pattern: PatternProfile, target: TargetProfile) -> bool:
    """Cheap necessary conditions: the target must dominate the pattern's
    size, vertex-label and half-edge triple histograms, and degree
    sequence.  (Triple dominance implies edge-label dominance: each
    edge label's count is half the sum of its triples.)"""
    if pattern.num_vertices > target.num_vertices:
        return False
    if pattern.num_edges > target.num_edges:
        return False
    for need, have in (
        (pattern.vertex_label_counts, target.vertex_label_counts),
        (pattern.triple_counts, target.triple_counts),
    ):
        for key, count in need.items():
            if have.get(key, 0) < count:
                return False
    # Degree-sequence dominance: the i-th largest pattern degree must not
    # exceed the i-th largest target degree (Hall's condition for the
    # nested "degree >= d" candidate sets).
    target_degrees = target.degrees_desc
    for i, d in enumerate(pattern.degrees_desc):
        if target_degrees[i] < d:
            return False
    return True


def _search_order(pattern: LabeledGraph) -> List[int]:
    """A connected visit order: rarest label first, then most constrained.

    Each component is seeded with the vertex whose label is least
    frequent *within the pattern* (ties: higher degree, then lower id) —
    on chemistry a heteroatom rather than one of many carbons, so the
    seed's candidate set is small.  Every later vertex is the frontier
    vertex with the most already-placed neighbours (ties: rarer label,
    higher degree, lower id), so each depth ANDs as many back-edge
    masks as possible.  O(V²) — patterns are small and the order is
    computed once per pattern.
    """
    labels = pattern.vertex_labels()
    adjacency = pattern.adjacency
    frequency = Counter(labels)
    placed = [0] * len(labels)
    left = set(range(len(labels)))
    order: List[int] = []
    while left:
        # A frontier vertex has placed > 0; with none left, every
        # remaining vertex reads 0 and the key picks the next seed.
        v = min(
            left,
            key=lambda w: (
                -placed[w], frequency[labels[w]], -len(adjacency[w]), w
            ),
        )
        left.discard(v)
        order.append(v)
        for w in adjacency[v]:
            placed[w] += 1
    return order


def compile_plan(
    pattern: LabeledGraph, search_order: List[int]
) -> Tuple[PlanStep, ...]:
    """Flatten ``(pattern, search_order)`` into one step per search depth.

    The step for depth ``d`` places pattern vertex ``search_order[d]``
    and carries the keys the walker looks its masks up by.  Its *anchor*
    is the first neighbour (in adjacency order) placed at an earlier
    depth, with the key ``(anchor edge label, label)``: candidates are
    the anchor image's neighbours of that kind.  Anchor depth ``-1``
    marks a vertex with no placed neighbour — a component seed, or any
    vertex of an order that is not connected-first — whose candidates
    are the target's vertices of its label.  *Back-edges* are the
    remaining ``(earlier depth, (edge label, label))`` pairs the
    candidate must also be adjacent to, so every pattern edge is
    verified exactly once, at its later endpoint.
    """
    labels = pattern.vertex_labels()
    adjacency = pattern.adjacency
    depth_of = {v: d for d, v in enumerate(search_order)}
    steps: List[PlanStep] = []
    for depth, pv in enumerate(search_order):
        label = labels[pv]
        placed = [
            (depth_of[w], (lab, label))
            for w, lab in adjacency[pv].items()
            if depth_of[w] < depth
        ]
        anchor, key = placed[0] if placed else (-1, None)
        steps.append(
            (label, len(adjacency[pv]), anchor, key, tuple(placed[1:]))
        )
    return tuple(steps)


def match_plan(
    plan: Tuple[PlanStep, ...],
    target: TargetProfile,
    limit: Optional[int] = None,
) -> Tuple[int, Optional[List[int]]]:
    """Run *plan* against *target*: ``(embeddings counted, first one)``.

    One iterative backtracking loop over bitsets.  ``image[d]`` is the
    target vertex the pattern vertex of depth ``d`` currently maps to,
    ``used`` the bitset of those images, ``bits`` the untried candidates
    of the current depth and ``pending[d]`` those of an earlier depth
    ``d``.  A depth's candidates are one AND chain, computed when the
    walk enters it::

        degree_bits[degree] & ~used & neighbour_bits[image[anchor]][key]
                            & neighbour_bits[image[earlier]][key] ...

    (``label_bits[label]`` instead of the anchor's mask for a component
    seed), so every candidate is feasible and none is checked again:
    candidates are popped lowest bit first, and at the last depth each
    one is an embedding, counted by popcount.  Counting stops at
    *limit*; the first embedding is returned as target vertices indexed
    by search depth (``None`` when there is none).  The caller owns the
    global pre-check (:func:`_label_counts_ok` or its vectorised form) —
    the walker is correct without it, just slower on hopeless pairs.
    """
    last = len(plan) - 1
    if last < 0:
        return 1, []
    label_bits = target.label_bits
    neighbour_bits = target.neighbour_bits
    degree_bits = target.degree_bits
    top = len(degree_bits)
    image = [0] * last
    pending = [0] * last
    label, degree, _, _, _ = plan[0]
    bits = label_bits.get(label, 0)
    bits &= degree_bits[degree] if degree < top else 0
    used = 0
    count = 0
    first: Optional[List[int]] = None
    depth = 0
    while True:
        if bits and depth == last:
            if first is None:
                first = image + [(bits & -bits).bit_length() - 1]
            count += bits.bit_count()
            if limit is not None and count >= limit:
                return limit, first
            bits = 0
        while not bits:
            if depth == 0:
                return count, first
            depth -= 1
            used ^= 1 << image[depth]
            bits = pending[depth]
        low = bits & -bits
        pending[depth] = bits ^ low
        image[depth] = low.bit_length() - 1
        used |= low
        depth += 1
        label, degree, anchor, key, back_edges = plan[depth]
        if anchor < 0:
            bits = label_bits.get(label, 0)
        else:
            bits = neighbour_bits[image[anchor]].get(key, 0)
        bits &= ~used & (degree_bits[degree] if degree < top else 0)
        for earlier, key in back_edges:
            if not bits:
                break
            bits &= neighbour_bits[image[earlier]].get(key, 0)


def _match(
    pattern_profile: PatternProfile,
    target: LabeledGraph,
    limit: Optional[int],
    profile: Optional[TargetProfile],
) -> Tuple[int, Optional[List[int]]]:
    """Pre-check + walker: what every public entry point shares."""
    profile = _profile_for(target, profile)
    if not _label_counts_ok(pattern_profile, profile):
        return 0, None
    return match_plan(pattern_profile.plan, profile, limit)


def find_embedding(
    pattern: LabeledGraph,
    target: LabeledGraph,
    profile: Optional[TargetProfile] = None,
    pattern_profile: Optional[PatternProfile] = None,
) -> Optional[Dict[int, int]]:
    """The first embedding of *pattern* in *target*, or ``None``."""
    pattern_profile = _pattern_profile_for(pattern, pattern_profile)
    _, first = _match(pattern_profile, target, 1, profile)
    if first is None:
        return None
    return dict(zip(pattern_profile.search_order, first))


def is_subgraph(
    pattern: LabeledGraph,
    target: LabeledGraph,
    profile: Optional[TargetProfile] = None,
    pattern_profile: Optional[PatternProfile] = None,
) -> bool:
    """``True`` iff *pattern* is subgraph-isomorphic to *target*.

    Pass a :class:`TargetProfile` of *target* (resp. a
    :class:`PatternProfile` of *pattern*) to amortise the invariant
    computation across many patterns matched against the same target
    (resp. many targets matched by the same pattern).
    """
    pattern_profile = _pattern_profile_for(pattern, pattern_profile)
    return _match(pattern_profile, target, 1, profile)[0] > 0


def count_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    limit: Optional[int] = None,
    profile: Optional[TargetProfile] = None,
    pattern_profile: Optional[PatternProfile] = None,
) -> int:
    """Count embeddings of *pattern* in *target* (capped at *limit*)."""
    pattern_profile = _pattern_profile_for(pattern, pattern_profile)
    return _match(pattern_profile, target, limit, profile)[0]
