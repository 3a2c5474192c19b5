"""Closing the staleness loop: re-running selection over a mutated index.

The :class:`~repro.core.mapping.StalenessPolicy` detects when a mutated
database has drifted past the selection's useful life; this module is
the other half of that loop — a :class:`Reselector` that re-runs
DSPM over the *current* feature space and installs the winning
selection through :meth:`DSPreservedMapping.apply_selection`, without
re-mining and while reusing every offline product that is still valid:

* **dissimilarities** — graph-pair MCS dissimilarities are memoised in
  a :class:`~repro.similarity.dissimilarity.DissimilarityCache`, so a
  re-selection only pays for pairs involving rows that changed since
  the last run (surviving pairs are cache hits);
* **the lattice** — containment verdicts between features that survive
  from the old selection are answered from the old engine's closure
  (zero VF2) via :meth:`FeatureLattice.build`'s ``known`` parameter;
  only pairs touching a newly entering feature run VF2;
* **pattern profiles** — surviving features keep their
  :class:`~repro.isomorphism.vf2.PatternProfile` objects by identity,
  because the feature space keeps one per feature
  (:meth:`~repro.features.binary_matrix.FeatureSpace.pattern_profile`).

The reselector doubles as a mutation *observer*
(:meth:`DSPreservedMapping.register_observer`): it keeps a graph list
aligned with the live rows so it can (a) compute graph-based deltas
over the current database and (b) repair the universe incidence of
rows that entered through the incremental add path (which only embeds
over the *selected* columns — see :meth:`FeatureSpace.refresh_rows`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.dspm import DSPM, DSPMResult
from repro.core.mapping import DSPreservedMapping, StalenessPolicy
from repro.features.binary_matrix import normalized_euclidean_distances
from repro.graph.labeled_graph import LabeledGraph
from repro.similarity.dissimilarity import DissimilarityCache
from repro.similarity.matrix import pairwise_dissimilarity_matrix
from repro.utils.errors import SelectionError


class Reselector:
    """Re-run feature selection over a mutated mapping, reusing caches.

    Parameters
    ----------
    num_features:
        ``p`` for the re-selection; ``None`` keeps the mapping's current
        dimensionality.
    graphs:
        The database graphs in row order at attach time.  Required for
        ``delta="graphs"`` (the paper's MCS dissimilarity needs the
        graphs); optional for ``delta="incidence"``, where it still
        enables universe-incidence repair of rows added before attach.
    delta:
        ``"incidence"`` (default) scores candidate features against the
        normalised Euclidean distances of the *full universe* embedding
        — cheap, no graph retention needed; ``"graphs"`` recomputes the
        paper's pairwise MCS dissimilarity, memoised across runs in
        :attr:`cache` so only pairs involving new rows pay MCS.
    dissimilarity:
        Dissimilarity name for ``delta="graphs"`` (``"delta2"`` = Eq. 2).
    tolerance / max_iterations:
        Forwarded to :class:`~repro.core.dspm.DSPM`.

    Use :meth:`attach` to wire an instance to a mapping: it registers
    the observer and installs a :class:`StalenessPolicy` with the given
    ``max_drift``.  A mutation past it sets ``mapping.stale``; a
    maintenance loop notices and hands this reselector to
    :meth:`~repro.serving.service.QueryService.apply_reselection`.
    """

    def __init__(
        self,
        num_features: Optional[int] = None,
        graphs: Optional[Sequence[LabeledGraph]] = None,
        delta: str = "incidence",
        dissimilarity: str = "delta2",
        tolerance: float = 1e-5,
        max_iterations: int = 100,
        cache: Optional[DissimilarityCache] = None,
    ) -> None:
        if delta not in ("incidence", "graphs"):
            raise SelectionError(
                f"delta must be 'incidence' or 'graphs', got {delta!r}"
            )
        if delta == "graphs" and graphs is None:
            raise SelectionError(
                "delta='graphs' needs the database graphs — pass graphs="
            )
        self.num_features = num_features
        self.delta = delta
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        # Share the build-time cache (pass cache=) so even the *first*
        # re-selection's surviving pairs are hits; either way successive
        # re-selections only pay MCS for pairs involving new rows.
        self.cache = (
            cache if cache is not None else DissimilarityCache(dissimilarity)
        )
        self._initial_graphs = list(graphs) if graphs is not None else None
        #: Row-aligned graph objects (``None`` per row when unknown).
        self._graphs: Optional[List[Optional[LabeledGraph]]] = None
        #: Row-aligned flags: True iff the row entered through the
        #: incremental add path, whose universe incidence is stale.
        self._needs_repair: Optional[List[bool]] = None
        self.reselections = 0
        self.selections_changed = 0
        self.rows_repaired = 0
        self.last_result: Optional[DSPMResult] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(
        self, mapping: DSPreservedMapping, max_drift: float = 0.25
    ) -> "Reselector":
        """Register on *mapping* and install the staleness policy.

        The mutating call only flags; a maintenance pass heals later.
        """
        n = mapping.space.n
        if self._initial_graphs is not None:
            if len(self._initial_graphs) != n:
                raise SelectionError(
                    f"graphs length {len(self._initial_graphs)} does not "
                    f"match database size {n}"
                )
            self._graphs = list(self._initial_graphs)
        else:
            self._graphs = [None] * n
        self._needs_repair = [False] * n
        mapping.staleness_policy = StalenessPolicy(max_drift=max_drift)
        mapping.register_observer(self)
        return self

    # ------------------------------------------------------------------
    # mutation observation (keeps the row alignment live)
    # ------------------------------------------------------------------
    def observe_add(self, graphs: Sequence[LabeledGraph]) -> None:
        if self._graphs is None:
            return
        for graph in graphs:
            self._graphs.append(graph)
            self._needs_repair.append(True)

    def observe_remove(self, indices: Sequence[int]) -> None:
        if self._graphs is None:
            return
        for i in sorted({int(i) for i in indices}, reverse=True):
            del self._graphs[i]
            del self._needs_repair[i]

    # ------------------------------------------------------------------
    # the re-selection hook
    # ------------------------------------------------------------------
    def _repair_universe(self, mapping: DSPreservedMapping) -> int:
        """Re-embed add-path rows over the *full* universe.

        The incremental add path only matches new graphs against the
        selected features (queries never read the rest), leaving their
        non-selected universe incidence empty.  A re-selection scores
        the whole universe, so those rows are re-embedded over all
        ``m`` features first — the only per-row VF2 a re-selection pays.
        """
        if self._graphs is None:
            return 0
        stale = [
            i
            for i, needed in enumerate(self._needs_repair)
            if needed and self._graphs[i] is not None
        ]
        if not stale:
            return 0
        rows = mapping.space.embed_queries([self._graphs[i] for i in stale])
        mapping.space.refresh_rows(stale, rows)
        for i in stale:
            self._needs_repair[i] = False
        self.rows_repaired += len(stale)
        return len(stale)

    def _delta_matrix(self, mapping: DSPreservedMapping) -> np.ndarray:
        if self.delta == "graphs":
            missing = [
                i for i, g in enumerate(self._graphs or []) if g is None
            ]
            if self._graphs is None or missing:
                raise SelectionError(
                    "delta='graphs' re-selection is missing graph objects "
                    f"for rows {missing[:5]} — attach with the full graph "
                    "list"
                )
            return pairwise_dissimilarity_matrix(self._graphs, self.cache)
        return normalized_euclidean_distances(
            mapping.space.incidence.astype(float)
        )

    def __call__(self, mapping: DSPreservedMapping) -> bool:
        """Re-select over *mapping*'s current rows; install if changed.

        Returns True iff the selection actually changed.
        """
        self.reselections += 1
        self._repair_universe(mapping)
        delta = self._delta_matrix(mapping)
        p = (
            self.num_features
            if self.num_features is not None
            else mapping.dimensionality
        )
        result = DSPM(
            min(p, mapping.space.m),
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
        ).fit_matrix(mapping.space.incidence.astype(float), delta)
        self.last_result = result
        if result.selected == mapping.selected:
            return False
        changed = mapping.apply_selection(
            result.selected, self._lattice(mapping, result.selected)
        )
        if changed:
            self.selections_changed += 1
        return changed

    def _lattice(self, mapping: DSPreservedMapping, selected: List[int]):
        """The lattice over *selected*, reusing the old engine's.

        Containment between two features both surviving from the old
        selection is answered from the old lattice's transitive closure
        (it is complete over the old patterns); only pairs touching a
        newly entering feature cost VF2.
        """
        from repro.query.engine import FeatureLattice

        space = mapping.space
        old_engine = mapping.peek_engine()
        known = None
        if old_engine is not None:
            old_pos = {r: i for i, r in enumerate(mapping.selected)}
            old_ancestors = [set(a) for a in old_engine.lattice.ancestors]
            known = {}
            for b, rb in enumerate(selected):
                ib = old_pos.get(rb)
                if ib is None:
                    continue
                for a, ra in enumerate(selected):
                    ia = old_pos.get(ra)
                    if ia is None or a == b:
                        continue
                    known[(a, b)] = ia in old_ancestors[ib]
        return FeatureLattice.build(
            [space.features[r].graph for r in selected],
            [space.pattern_profile(r) for r in selected],
            known=known,
        )
