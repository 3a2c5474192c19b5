"""The lattice-pruned, batched online query engine.

The paper's online path (Exp-4) is dominated by feature matching: every
query is matched against each of the ``p`` selected features with VF2.
:class:`QueryEngine` makes that path dramatically faster **without
changing any result**:

* **Feature-lattice pruning.**  The selected features form a
  subgraph-containment DAG (:class:`FeatureLattice`): ``f' ⊑ f`` when
  ``f'`` is subgraph-isomorphic to ``f``.  Containment of patterns in
  the query is monotone along the lattice — ``f' ⊑ f`` and ``f ⊆ q``
  imply ``f' ⊆ q``, while ``f' ⊄ q`` implies ``f ⊄ q`` — so features are
  matched smallest-first and every decided feature settles its whole
  up- or down-set for free.  The DAG is computed once, offline, by VF2
  on the (small) patterns themselves, with a transitivity shortcut that
  skips the quadratic blow-up.
* **Per-query invariant cache.**  One :class:`TargetProfile` per query
  supplies the histograms of the candidate filter and the label,
  neighbour and degree bitsets of the walker to every VF2 call, instead
  of each call recomputing them.
* **Batching.**  :meth:`QueryEngine.batch_query` embeds many queries,
  computes all query-database distances in one BLAS call against the
  mapping's cached squared norms, and ranks the whole distance matrix
  with one partition-based :func:`rank_block`.

Because the mapped vectors are binary and all distance terms are small
integers (exactly representable in float64), the engine's rankings and
scores are bit-identical to the naive
:class:`~repro.query.topk.MappedTopKEngine` path — the equivalence test
suite enforces this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapping import DSPreservedMapping
from repro.core.persistence import LabelCodec
from repro.graph.labeled_graph import LabeledGraph
from repro.isomorphism.vf2 import (
    PatternProfile,
    TargetProfile,
    is_subgraph,
    match_plan,
)
from repro.kernels import PatternFilterStats
from repro.query.topk import TopKResult, _check_k, rank_block, rank_with_ties


@dataclass(frozen=True)
class FeatureLattice:
    """The subgraph-containment DAG over a list of patterns.

    Positions refer to the pattern list the lattice was built from (for
    a :class:`QueryEngine`, position ``i`` is ``mapping.selected[i]``).

    Attributes
    ----------
    order:
        Positions sorted by ascending (edge count, vertex count) — the
        smallest-first match order.
    ancestors:
        ``ancestors[i]`` — positions ``j`` with pattern ``j`` strictly
        below ``i`` (``pattern_j ⊑ pattern_i``), i.e. everything a match
        of ``i`` implies.
    descendants:
        Transpose of ``ancestors``: everything a non-match of ``i``
        rules out.
    vf2_checks:
        How many pattern-vs-pattern VF2 calls the build actually ran
        (after the size prefilter and transitivity shortcut).
    """

    order: Tuple[int, ...]
    ancestors: Tuple[Tuple[int, ...], ...]
    descendants: Tuple[Tuple[int, ...], ...]
    vf2_checks: int = 0

    @classmethod
    def build(
        cls,
        patterns: Sequence[LabeledGraph],
        pattern_profiles: Optional[Sequence[PatternProfile]] = None,
        known: Optional[Dict[Tuple[int, int], bool]] = None,
    ) -> "FeatureLattice":
        """Compute containment among *patterns* with VF2, smallest-first.

        Processing in ascending size order lets each established edge
        short-circuit further work twice over: when ``a ⊑ b`` is found,
        every known ancestor of ``a`` is an ancestor of ``b`` without
        another VF2 call.  Pass *pattern_profiles* (one per pattern) to
        share them with the caller's own match loop.

        *known* maps ``(a, b)`` pattern positions to an already-decided
        ``pattern_a ⊑ pattern_b`` verdict — how a re-selection reuses
        the existing lattice: every pair of features surviving from the
        old selection is answered from the old closure, and only pairs
        involving a newly entering feature pay a VF2 call (the
        ``vf2_checks`` counter counts only the calls actually made).
        """
        p = len(patterns)
        order = sorted(
            range(p),
            key=lambda r: (patterns[r].num_edges, patterns[r].num_vertices, r),
        )
        target_profiles = [TargetProfile(g) for g in patterns]
        if pattern_profiles is None:
            pattern_profiles = [PatternProfile(g) for g in patterns]
        ancestor_sets: Dict[int, set] = {}
        checks = 0
        for bi, b in enumerate(order):
            anc: set = set()
            for ai in range(bi):
                a = order[ai]
                if a in anc:
                    continue
                if (
                    patterns[a].num_edges > patterns[b].num_edges
                    or patterns[a].num_vertices > patterns[b].num_vertices
                ):
                    continue
                verdict = known.get((a, b)) if known is not None else None
                if verdict is None:
                    checks += 1
                    verdict = is_subgraph(
                        patterns[a],
                        patterns[b],
                        target_profiles[b],
                        pattern_profiles[a],
                    )
                if verdict:
                    anc.add(a)
                    anc |= ancestor_sets[a]
            ancestor_sets[b] = anc
        return cls.from_ancestors(
            order,
            [sorted(ancestor_sets[r]) for r in range(p)],
            vf2_checks=checks,
        )

    @classmethod
    def from_ancestors(
        cls,
        order: Sequence[int],
        ancestors: Sequence[Sequence[int]],
        vf2_checks: int = 0,
    ) -> "FeatureLattice":
        """Construct from (transitively closed) ancestor sets.

        Descendants are derived as the transpose.  Shared by
        :meth:`build` and the index-artifact loader, so the built and
        reloaded construction paths cannot drift.
        """
        p = len(ancestors)
        if sorted(order) != list(range(p)):
            raise ValueError("lattice order must be a permutation of positions")
        ancestors = tuple(
            tuple(sorted(int(a) for a in anc)) for anc in ancestors
        )
        if any(not 0 <= a < p for anc in ancestors for a in anc):
            raise ValueError("lattice ancestor position out of range")
        descendant_sets: Dict[int, set] = {r: set() for r in range(p)}
        for b, anc in enumerate(ancestors):
            for a in anc:
                descendant_sets[a].add(b)
        return cls(
            order=tuple(int(r) for r in order),
            ancestors=ancestors,
            descendants=tuple(
                tuple(sorted(descendant_sets[r])) for r in range(p)
            ),
            vf2_checks=vf2_checks,
        )

    @property
    def num_edges(self) -> int:
        """Number of (transitively closed) containment pairs."""
        return sum(len(a) for a in self.ancestors)


@dataclass
class EngineStats:
    """Cumulative online-path counters of one :class:`QueryEngine`.

    ``filter_rejected`` counts positions decided by the vectorised
    candidate pre-filter (size/histogram/degree dominance) without a
    VF2 call — work the lattice alone would have paid for.
    """

    queries: int = 0
    vf2_calls: int = 0
    features_pruned: int = 0
    filter_rejected: int = 0


@dataclass
class BatchQueryResult:
    """The answer to a :meth:`QueryEngine.batch_query` call."""

    results: List[TopKResult]
    query_vectors: np.ndarray
    mapping_seconds: float = 0.0
    search_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.mapping_seconds + self.search_seconds

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i: int) -> TopKResult:
        return self.results[i]

    @classmethod
    def with_shared_timing(
        cls,
        results: List[TopKResult],
        query_vectors: np.ndarray,
        mapping_seconds: float,
        search_seconds: float,
    ) -> "BatchQueryResult":
        """Construct, spreading the batch wall-clock evenly per query.

        Existing per-query timing consumers keep working; engine and
        service share this one spreading rule so their timings stay
        comparable.
        """
        share = max(len(results), 1)
        for res in results:
            res.mapping_seconds = mapping_seconds / share
            res.search_seconds = search_seconds / share
        return cls(
            results=results,
            query_vectors=query_vectors,
            mapping_seconds=mapping_seconds,
            search_seconds=search_seconds,
        )


class QueryEngine:
    """Lattice-pruned, batched top-k engine over a frozen mapping.

    Produces rankings and scores bit-identical to
    :class:`~repro.query.topk.MappedTopKEngine`; only the work needed to
    produce them changes.
    """

    def __init__(
        self,
        mapping: DSPreservedMapping,
        lattice: Optional[FeatureLattice] = None,
    ) -> None:
        self.mapping = mapping
        self.patterns: List[LabeledGraph] = [
            f.graph for f in mapping.selected_features()
        ]
        self.num_selected = len(self.patterns)
        # Pattern-side VF2 invariants (histograms, degree sequence,
        # search order, compiled match plan) are fixed per feature and
        # kept by the feature space — one profile per feature, shared
        # with the lattice build, the naive path and every online match.
        self._pattern_profiles = [
            mapping.space.pattern_profile(r) for r in mapping.selected
        ]
        self.lattice = lattice or FeatureLattice.build(
            self.patterns, self._pattern_profiles
        )
        if len(self.lattice.ancestors) != len(self.patterns):
            raise ValueError("lattice does not match the engine's pattern list")
        # The pattern side of the vectorised VF2 candidate filter.  Like
        # the lattice it depends on the selection alone, so a database
        # update keeps this engine as it is.
        self.pattern_filter = PatternFilterStats(self._pattern_profiles)
        self.stats = EngineStats()

    def selected_offline_products(
        self,
    ) -> Tuple[FeatureLattice, List[PatternProfile]]:
        """The lattice and the per-feature profiles, position-aligned
        with ``mapping.selected`` — the engine's pattern side, which
        depends on the selection alone."""
        return self.lattice, list(self._pattern_profiles)

    @cached_property
    def label_codec(self) -> LabelCodec:
        """The codec giving stringified labels back their types: over
        the selected patterns' labels, since no other label can match a
        pattern.  The artifact persists it and both serving tiers decode
        wire graphs with it; a re-selection builds a new engine."""
        return LabelCodec.for_graphs(self.patterns)

    # ------------------------------------------------------------------
    # embedding (the VF2 feature-matching hot path)
    # ------------------------------------------------------------------
    def embed(
        self,
        query: LabeledGraph,
        profile: Optional[TargetProfile] = None,
    ) -> np.ndarray:
        """φ(q) via the pruned frontier walk over the feature lattice.

        Positions are decided smallest-first.  A VF2 non-match zeroes the
        position's whole descendant cone (any superpattern would have to
        contain the missing subpattern); a match sets every ancestor
        (already implied, kept for DAG orders where they are still
        open).  The resulting vector equals
        ``FeatureSpace.embed_query(query, mapping.selected)`` exactly.
        """
        if profile is None:
            profile = TargetProfile(query)
        elif profile.target is not query:
            raise ValueError(
                "TargetProfile was built for a different target graph"
            )
        return np.array(self._decide(profile), dtype=float)

    def _decide(self, profile: TargetProfile) -> List[int]:
        """The lattice walk for one query: 0/1 per selected position."""
        state = [-1] * self.num_selected
        ancestors = self.lattice.ancestors
        descendants = self.lattice.descendants
        profiles = self._pattern_profiles
        # One vectorised pass of VF2's size/histogram/degree pre-check
        # over every pattern: a False entry is a proven non-match (VF2
        # would fail the same conditions first thing), so the walk takes
        # the non-match branch without paying the call — and a True
        # entry has passed the pre-check, so the walker runs directly.
        candidates = self.pattern_filter.candidate_mask(profile).tolist()
        vf2_calls = 0
        filter_rejected = 0
        for r in self.lattice.order:
            if state[r] != -1:
                continue
            if candidates[r]:
                vf2_calls += 1
                if match_plan(profiles[r].plan, profile, 1)[0]:
                    state[r] = 1
                    for a in ancestors[r]:
                        state[a] = 1
                    continue
            else:
                filter_rejected += 1
            state[r] = 0
            for d in descendants[r]:
                state[d] = 0
        stats = self.stats
        stats.queries += 1
        stats.vf2_calls += vf2_calls
        stats.features_pruned += self.num_selected - vf2_calls
        stats.filter_rejected += filter_rejected
        return state

    def embed_many(self, queries: Sequence[LabeledGraph]) -> np.ndarray:
        """Stacked :meth:`embed` rows — one profile per query, one lattice."""
        vectors = np.empty((len(queries), self.num_selected))
        for i, query in enumerate(queries):
            vectors[i] = self._decide(TargetProfile(query))
        return vectors

    def filter_mask(self, query: LabeledGraph) -> np.ndarray:
        """Zero-VF2 upper bound on φ(q) over the selected positions.

        One vectorised pass of the VF2 size/histogram/degree pre-check:
        a ``False`` entry is a proven non-match, a ``True`` entry merely
        *may* match.  Entrywise ``filter_mask(q) >= embed(q)`` always
        holds, and computing it costs no subgraph-isomorphism calls —
        cheap enough for a router tier to place every query by content
        (against the shard centroids) without paying for an embedding.
        """
        profile = TargetProfile(query)
        mask = self.pattern_filter.candidate_mask(profile)
        return np.asarray(mask[: self.num_selected], dtype=float)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(self, q: LabeledGraph, k: int) -> TopKResult:
        """Single-query top-k (the drop-in for ``MappedTopKEngine.query``)."""
        k = _check_k(k, self.mapping.space.n)
        start = time.perf_counter()
        vector = self.embed(q)
        mapped = time.perf_counter()
        distances = self.mapping.query_distances(vector[None, :])[0]
        ranking, scores = rank_with_ties(distances, k)
        end = time.perf_counter()
        return TopKResult(
            ranking,
            scores,
            mapping_seconds=mapped - start,
            search_seconds=end - mapped,
        )

    def batch_query(
        self, queries: Sequence[LabeledGraph], k: int
    ) -> BatchQueryResult:
        """Top-k for many queries, amortising everything amortisable.

        The lattice is shared across the batch; all query-database
        distances come from a single matrix product.
        """
        k = _check_k(k, self.mapping.space.n)
        start = time.perf_counter()
        vectors = self.embed_many(queries)
        mapped = time.perf_counter()
        distances = self.mapping.query_distances(vectors)
        cols, scores = rank_block(distances, k)
        results = [
            TopKResult(ranking, row)
            for ranking, row in zip(cols.tolist(), scores.tolist())
        ]
        end = time.perf_counter()
        return BatchQueryResult.with_shared_timing(
            results, vectors, mapped - start, end - mapped
        )
