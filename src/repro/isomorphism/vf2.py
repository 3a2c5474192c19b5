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
* a global label-multiset pre-check before search starts.

It is split the way the online path uses it.  Everything that depends
on the pattern alone is compiled once into a flat **match plan**
(:func:`compile_plan`, held by :class:`PatternProfile`): one step per
search depth saying which label and degree the candidate needs, which
earlier depth's image supplies the candidates, and which edges back
into the mapped core must be verified.  Everything that depends on the
target alone — label histograms, degree sequence, label buckets, the
raw adjacency — sits in a :class:`TargetProfile`.  One iterative
**walker** (:func:`match_plan`) then runs a plan against a target
profile; :func:`is_subgraph`, :func:`find_embedding` and
:func:`count_embeddings` are thin wrappers over it.  Pass the profiles
in when one target is matched against many patterns (feature matching
at query time) or one pattern against many targets, instead of letting
every call rebuild them.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.graph.labeled_graph import LabeledGraph

#: One step of a match plan: ``(vertex label, degree, anchor depth,
#: anchor edge label, back-edges)``.
PlanStep = Tuple[object, int, int, object, Tuple[Tuple[int, object], ...]]

#: ``dict.get`` default that equals no edge label (``None`` is a label).
_NO_EDGE = object()


def _histograms(
    labels: List[object], adjacency: List[Dict[int, object]]
) -> Tuple[Dict[object, int], Dict[object, int], List[int]]:
    """Vertex-label counts, edge-label counts and descending degrees."""
    vcounts: Dict[object, int] = {}
    for lab in labels:
        vcounts[lab] = vcounts.get(lab, 0) + 1
    ecounts: Dict[object, int] = {}
    for u, nbrs in enumerate(adjacency):
        for v, lab in nbrs.items():
            if u < v:
                ecounts[lab] = ecounts.get(lab, 0) + 1
    return vcounts, ecounts, sorted(map(len, adjacency), reverse=True)


class TargetProfile:
    """Precomputed match-target invariants, shared across many patterns.

    Holds the target's vertex-label histogram, edge-label histogram,
    descending degree sequence, and per-label vertex buckets, plus the
    label list and adjacency maps the walker reads directly.  All are
    pure functions of the target, so one profile serves every pattern
    matched against it — the per-query cache of the online path.
    """

    __slots__ = (
        "target",
        "num_vertices",
        "num_edges",
        "vertex_label_counts",
        "edge_label_counts",
        "degrees_desc",
        "by_label",
        "labels",
        "adjacency",
    )

    def __init__(self, target: LabeledGraph) -> None:
        self.target = target
        self.num_vertices = target.num_vertices
        self.num_edges = target.num_edges
        self.labels = target.vertex_labels()
        self.adjacency = target.adjacency
        (
            self.vertex_label_counts,
            self.edge_label_counts,
            self.degrees_desc,
        ) = _histograms(self.labels, self.adjacency)
        by_label: Dict[object, List[int]] = {}
        for v, lab in enumerate(self.labels):
            by_label.setdefault(lab, []).append(v)
        self.by_label = by_label


class PatternProfile:
    """Precomputed pattern-side invariants, search order and match plan.

    The counterpart of :class:`TargetProfile` for the other side of the
    match: when one pattern is matched against many targets (a feature
    across a query stream), its label histograms, degree sequence,
    search order and the plan compiled from that order are pure
    functions of the pattern and are computed once at index-build time.
    The plan is derived, never persisted: :meth:`restore` recompiles it
    from the saved search order.
    """

    __slots__ = (
        "pattern",
        "num_vertices",
        "num_edges",
        "vertex_label_counts",
        "edge_label_counts",
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
            self.edge_label_counts,
            self.degrees_desc,
        ) = _histograms(pattern.vertex_labels(), pattern.adjacency)
        self.search_order = _search_order(pattern)
        self.plan = compile_plan(pattern, self.search_order)

    @classmethod
    def restore(
        cls,
        pattern: LabeledGraph,
        vertex_label_counts: Dict[object, int],
        edge_label_counts: Dict[object, int],
        degrees_desc: List[int],
        search_order: List[int],
    ) -> "PatternProfile":
        """Rebuild a profile from persisted invariants (index cold start).

        Every invariant that affects *correctness* is validated against
        the pattern (histograms, degree sequence, and that the search
        order is a permutation) — O(V+E), no VF2, so corruption fails
        loudly instead of silently mismatching.  The search order itself
        is the one genuinely restored value: any permutation is sound
        for VF2 (it only affects pruning speed), so the persisted order
        is honoured as saved and the plan is compiled from it.
        """
        vcounts, ecounts, degrees = _histograms(
            pattern.vertex_labels(), pattern.adjacency
        )
        if (
            dict(vertex_label_counts) != vcounts
            or dict(edge_label_counts) != ecounts
            or list(degrees_desc) != degrees
            or sorted(search_order) != list(range(pattern.num_vertices))
        ):
            raise ValueError("persisted profile does not match its pattern")
        self = cls.__new__(cls)
        self.pattern = pattern
        self.num_vertices = pattern.num_vertices
        self.num_edges = pattern.num_edges
        self.vertex_label_counts = vcounts
        self.edge_label_counts = ecounts
        self.degrees_desc = degrees
        self.search_order = list(search_order)
        self.plan = compile_plan(pattern, self.search_order)
        return self


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
    size, label histograms, and degree sequence."""
    if pattern.num_vertices > target.num_vertices:
        return False
    if pattern.num_edges > target.num_edges:
        return False
    target_vcounts = target.vertex_label_counts
    for lab, need in pattern.vertex_label_counts.items():
        if target_vcounts.get(lab, 0) < need:
            return False
    target_ecounts = target.edge_label_counts
    for lab, need in pattern.edge_label_counts.items():
        if target_ecounts.get(lab, 0) < need:
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
    """A connected, high-degree-first visit order of the pattern vertices.

    Starting from the highest-degree vertex and always extending along
    edges keeps the partial mapping connected, which makes the neighbor
    consistency check maximally restrictive early.

    The frontier is maintained incrementally as a max-heap keyed by
    (degree, smallest id): each vertex is pushed at most once when it
    first becomes reachable, so building the order is O(E log V) instead
    of the O(V²) full-rebuild per step.
    """
    n = pattern.num_vertices
    if n == 0:
        return []
    visited = [False] * n
    in_frontier = [False] * n
    order: List[int] = []
    heap: List[tuple] = []

    def push_neighbors(v: int) -> None:
        for w in pattern.neighbors(v):
            if not visited[w] and not in_frontier[w]:
                in_frontier[w] = True
                heapq.heappush(heap, (-pattern.degree(w), w))

    while len(order) < n:
        # Seed each component with its highest-degree unvisited vertex.
        seed = max(
            (v for v in range(n) if not visited[v]),
            key=lambda v: pattern.degree(v),
        )
        visited[seed] = True
        order.append(seed)
        push_neighbors(seed)
        while heap:
            _, nxt = heapq.heappop(heap)
            in_frontier[nxt] = False
            visited[nxt] = True
            order.append(nxt)
            push_neighbors(nxt)
    return order


def compile_plan(
    pattern: LabeledGraph, search_order: List[int]
) -> Tuple[PlanStep, ...]:
    """Flatten ``(pattern, search_order)`` into one step per search depth.

    The step for depth ``d`` places pattern vertex ``search_order[d]``.
    Its *anchor* is the first neighbour (in adjacency order) placed at
    an earlier depth: candidates are the target neighbours of the
    anchor's image along an edge with the anchor edge label.  Anchor
    depth ``-1`` marks a vertex with no placed neighbour — a component
    seed, or any vertex of an order that is not connected-first — whose
    candidates come from the target's label bucket.  *Back-edges* are
    the remaining ``(earlier depth, edge label)`` pairs the candidate
    must also be adjacent to, so every pattern edge is verified exactly
    once, at its later endpoint.
    """
    labels = pattern.vertex_labels()
    adjacency = pattern.adjacency
    depth_of = {v: d for d, v in enumerate(search_order)}
    steps: List[PlanStep] = []
    for depth, pv in enumerate(search_order):
        placed = [
            (depth_of[w], lab)
            for w, lab in adjacency[pv].items()
            if depth_of[w] < depth
        ]
        anchor, wanted = placed[0] if placed else (-1, None)
        steps.append(
            (labels[pv], len(adjacency[pv]), anchor, wanted, tuple(placed[1:]))
        )
    return tuple(steps)


def match_plan(
    plan: Tuple[PlanStep, ...],
    target: TargetProfile,
    limit: Optional[int] = None,
) -> Tuple[int, Optional[List[int]]]:
    """Run *plan* against *target*: ``(embeddings counted, first one)``.

    One iterative backtracking loop.  ``image[d]`` is the target vertex
    the pattern vertex of depth ``d`` currently maps to, ``used`` the set
    of those images, ``pending[d]`` the iterator over depth ``d``'s
    untried candidates.  Counting stops at *limit*; the first embedding
    is returned as target vertices indexed by search depth (``None``
    when there is none).  The caller owns the global pre-check
    (:func:`_label_counts_ok` or its vectorised form) — the walker is
    correct without it, just slower on hopeless pairs.
    """
    last = len(plan) - 1
    if last < 0:
        return 1, []
    labels = target.labels
    adjacency = target.adjacency
    image = [0] * last
    used: set = set()
    pending = [iter(target.by_label.get(plan[0][0], ()))] + [None] * last
    count = 0
    first: Optional[List[int]] = None
    depth = 0
    while True:
        vlabel, degree, anchor, wanted, back_edges = plan[depth]
        for candidate in pending[depth]:
            if anchor < 0:
                tv = candidate
                if tv in used:
                    continue
            else:
                tv, lab = candidate
                if lab != wanted or tv in used or labels[tv] != vlabel:
                    continue
            nbrs = adjacency[tv]
            if len(nbrs) < degree:
                continue
            for earlier, lab in back_edges:
                if nbrs.get(image[earlier], _NO_EDGE) != lab:
                    break
            else:
                if depth == last:
                    count += 1
                    if first is None:
                        first = image + [tv]
                    if limit is not None and count >= limit:
                        return count, first
                    continue
                image[depth] = tv
                used.add(tv)
                depth += 1
                step = plan[depth]
                if step[2] < 0:
                    pending[depth] = iter(target.by_label.get(step[0], ()))
                else:
                    pending[depth] = iter(adjacency[image[step[2]]].items())
                break
        else:
            depth -= 1
            if depth < 0:
                return count, first
            used.discard(image[depth])


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
