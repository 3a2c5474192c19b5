"""The user-facing DS-preserved mapping.

:class:`DSPreservedMapping` packages the whole pipeline of the paper:

1. mine frequent subgraphs from the database (gSpan, threshold τ),
2. select ``p`` dimension features (DSPM, DSPMap, or any baseline
   selector),
3. map database graphs to binary vectors over the selected features, and
4. map *unseen query graphs* with VF2 feature matching at query time.

Distances in the mapped space are the paper's normalised Euclidean
distance ``d(y_i, y_j) = sqrt((1/p) Σ (y_ir − y_jr)²) ∈ [0, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.core.dspm import DSPM, DSPMResult
from repro.features.binary_matrix import (
    FeatureSpace,
    cross_normalized_euclidean_distances,
    normalized_euclidean_distances,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.gspan import FrequentSubgraph, mine_frequent_subgraphs
from repro.similarity.dissimilarity import DissimilarityCache
from repro.similarity.matrix import pairwise_dissimilarity_matrix
from repro.utils.errors import SelectionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.engine import FeatureLattice, QueryEngine
    from repro.serving.service import QueryService


@dataclass(frozen=True)
class StalenessPolicy:
    """When does a mutated index need feature re-selection?

    Incremental :meth:`DSPreservedMapping.add_graphs` /
    :meth:`~DSPreservedMapping.remove_graphs` keep the *mapped answers*
    exact, but the feature *selection* itself was optimised for the
    database it was built on.  The policy bounds how far the selected
    features' support distribution may drift from that baseline before
    the index is declared stale.

    Attributes
    ----------
    max_drift:
        Threshold on :attr:`DSPreservedMapping.support_drift` — the
        relative L1 change of the selected features' support counts
        since the last (re-)selection.

    A mutation that crosses the threshold is applied and sets
    :attr:`DSPreservedMapping.stale`; it never changes φ — only
    :meth:`DSPreservedMapping.apply_selection` does, which a served
    index reaches through ``QueryService.apply_reselection``.  To
    refuse writes past a drift, read
    :attr:`~DSPreservedMapping.support_drift` before mutating.
    """

    max_drift: float = 0.25

    def __post_init__(self) -> None:
        if not 0 <= self.max_drift:
            raise SelectionError("max_drift must be >= 0")


@dataclass
class DSPreservedMapping:
    """An index: selected features over a feature space.

    φ lives in one place, the feature space's support matrix; the
    database embedding is its selected rows.  The *read* path (queries)
    treats the mapping as frozen; the *write* path — :meth:`add_graphs`
    / :meth:`remove_graphs` — edits the matrix's bits without ever
    re-running mining, selection, or the pattern-vs-pattern lattice
    build.  Every mutation is recorded in :attr:`mutation_log` so the
    index artifact can persist it as a delta instead of a full rewrite.

    Attributes
    ----------
    space:
        The feature universe the selection drew from.
    selected:
        Indices (into ``space.features``) of the chosen dimensions.
    staleness_policy:
        Governs when cumulative support drift triggers re-selection
        (see :class:`StalenessPolicy`).
    """

    space: FeatureSpace
    selected: List[int]
    staleness_policy: StalenessPolicy = field(
        default_factory=StalenessPolicy, compare=False
    )
    # The memoised online engine.  Never assign this directly — every
    # construction (lazy, loader-restored, re-selected) must go through
    # :meth:`_build_engine`, the single construction point, so a reloaded
    # or re-selected mapping can never serve a stale lattice.  Database
    # mutations keep it: it reads the rows live.
    _engine: Optional["QueryEngine"] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Whether support drift has crossed the policy threshold since the
    #: last (re-)selection.
    stale: bool = field(default=False, init=False, compare=False)
    #: Mutation records not yet persisted to an artifact's delta journal.
    mutation_log: List[Dict] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    #: Identity of the v3 artifact this mapping descends from (set by the
    #: artifact loader/writer), enabling delta-journal appends on save.
    artifact_ref: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: How many journal entries of the base artifact are already folded
    #: into this mapping's state.
    journal_seq: int = field(default=0, init=False, repr=False, compare=False)
    #: Lazily built navigable proximity graph (the graph-ANN search
    #: tier).  Maintained incrementally by the mutation appliers and
    #: persisted in the manifest; ``None`` until the first graph-mode
    #: query (or restore) asks for it.
    _proximity_graph: Optional["ProximityGraph"] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: A restored-but-not-yet-attached graph section (neighbor ids from
    #: the artifact).  Kept separate from the built graph so an mmap
    #: load stays O(manifest): attaching needs the rows, so it is
    #: deferred to the first :meth:`proximity_graph` call.  Dropped by
    #: any mutation (it describes pre-mutation row numbering).
    _proximity_payload: Optional[Dict] = field(
        default=None, init=False, repr=False, compare=False
    )
    _support_baseline: np.ndarray = field(
        init=False, repr=False, compare=False, default=None
    )
    #: Mutation observers (:meth:`register_observer`) — e.g. a
    #: :class:`repro.core.reselect.Reselector` keeping its graph list
    #: and dissimilarity cache aligned with the live rows.
    _observers: List = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._support_baseline = self._selected_support_counts()

    @property
    def dimensionality(self) -> int:
        return len(self.selected)

    def selected_features(self) -> List[FrequentSubgraph]:
        """The chosen dimension subgraphs, in selection order."""
        return [self.space.features[r] for r in self.selected]

    # ------------------------------------------------------------------
    # mapping
    # ------------------------------------------------------------------
    def map_query(self, query: LabeledGraph) -> np.ndarray:
        """φ(q): match each selected feature against *query* with VF2."""
        return self.space.embed_query(query, self.selected)

    def map_queries(self, queries: Sequence[LabeledGraph]) -> np.ndarray:
        return self.space.embed_queries(queries, self.selected)

    # ------------------------------------------------------------------
    # float views and distances (DSPM, experiments, the oracle engines)
    # ------------------------------------------------------------------
    @property
    def database_vectors(self) -> np.ndarray:
        """``n × p`` float embedding of the database graphs, built from
        the support matrix on each access and never kept."""
        return self.space.embed_database(self.selected)

    @property
    def database_sq_norms(self) -> np.ndarray:
        """Per-row squared norms of :attr:`database_vectors` (a view)."""
        return self.database_vectors.sum(axis=1)

    def database_bits(self, indices: Optional[Sequence[int]] = None):
        """Database rows *indices* (default all) as a ``(rows, p)`` bool
        block: the embedding without a float."""
        return self.space.rows(indices, self.selected)

    def database_distances(self) -> np.ndarray:
        """All-pairs mapped distance among database graphs."""
        return normalized_euclidean_distances(self.database_vectors)

    def query_distances(self, query_vectors: np.ndarray) -> np.ndarray:
        """Mapped distances of query vectors against the database."""
        return cross_normalized_euclidean_distances(
            query_vectors, self.database_vectors
        )

    # ------------------------------------------------------------------
    # query engine / query service
    # ------------------------------------------------------------------
    def _build_engine(
        self, lattice: Optional["FeatureLattice"] = None
    ) -> "QueryEngine":
        """The single engine construction point.

        The lazy :meth:`query_engine` path, :meth:`apply_selection` and
        the index-artifact loader (which passes the persisted lattice
        for a zero-VF2 cold start) funnel through here, so whatever
        engine the mapping memoises always belongs to *this* mapping's
        current feature selection.  The pattern profiles come from the
        feature space (one per feature, derived, never persisted).
        """
        from repro.query.engine import QueryEngine

        engine = QueryEngine(self, lattice)
        self._engine = engine
        return engine

    def query_engine(self) -> "QueryEngine":
        """The lattice-pruned :class:`~repro.query.engine.QueryEngine`.

        Built lazily on first use (the containment lattice costs a batch
        of pattern-vs-pattern VF2 calls) and cached for the life of the
        mapping.  Mappings reloaded from an index artifact come
        with the engine pre-attached, so this never re-runs VF2 there.
        """
        if self._engine is None:
            return self._build_engine()
        return self._engine

    def peek_engine(self) -> Optional["QueryEngine"]:
        """The memoised engine if one exists — never triggers a build."""
        return self._engine

    def invalidate_caches(self) -> None:
        """Drop the memoised engine and proximity graph.

        Any path that changes ``selected`` must call this so the next
        :meth:`query_engine` rebuild goes through :meth:`_build_engine`
        against the fresh state.  Database mutations need not: their
        appliers maintain the graph in place.
        """
        self._engine = None
        self._proximity_graph = None
        self._proximity_payload = None

    # ------------------------------------------------------------------
    # proximity graph (the graph-ANN tier's cold-start store)
    # ------------------------------------------------------------------
    def peek_proximity_graph(self) -> Optional["ProximityGraph"]:
        """The built graph if one exists — never triggers a build."""
        return self._proximity_graph

    def proximity_graph(self) -> "ProximityGraph":
        """The navigable proximity graph over :meth:`database_bits`.

        Attached from a restored artifact section when one is pending
        (one paired-distance pass, no KNN rebuild), else built lazily —
        which is also how pre-graph artifacts backfill: the first
        graph-mode query builds it, the next save persists it.
        """
        from repro.query.proximity import ProximityGraph

        if self._proximity_graph is not None:
            return self._proximity_graph
        if self._proximity_payload is not None:
            graph = ProximityGraph.from_payload(
                self._proximity_payload, self.database_bits()
            )
            self._proximity_payload = None
        else:
            graph = ProximityGraph.build(self.database_bits())
        self._proximity_graph = graph
        return graph

    def store_proximity_payload(self, payload: Dict) -> None:
        """Stash a restored (validated) graph section for lazy attach."""
        self._proximity_payload = payload

    def proximity_payload(self) -> Optional[Dict]:
        """The persistable neighbor table, or ``None`` if none exists.

        A still-pending restored section round-trips unchanged (no
        mutation happened, or it would have been dropped), so saving a
        loaded-but-never-queried index keeps its graph.
        """
        if self._proximity_graph is not None:
            return self._proximity_graph.to_payload()
        return self._proximity_payload

    # ------------------------------------------------------------------
    # re-selection (the staleness loop's write path for φ itself)
    # ------------------------------------------------------------------
    def apply_selection(
        self,
        selected: Sequence[int],
        lattice: Optional["FeatureLattice"] = None,
    ) -> bool:
        """Install a new feature selection over the current database.

        The only place φ changes (a re-selection hook such as
        :class:`repro.core.reselect.Reselector` ends here): the
        selection swaps (the embedding is its rows), every cache that
        described the old φ is dropped, and the artifact lineage is
        severed — the on-disk base and any pending delta records
        describe the old selection, so the next ``save_index`` must
        write a full base.  Pass a reused *lattice* over the new
        selection's patterns to pre-build the engine so the next query
        pays zero pattern-vs-pattern VF2.  A selection equal to the
        current one (same features, same order) is a no-op.

        Returns True iff the selection actually changed.
        """
        selected = [int(r) for r in selected]
        if not selected:
            raise SelectionError("selection is empty")
        bad = [r for r in selected if not 0 <= r < self.space.m]
        if bad:
            raise SelectionError(
                f"selected feature {bad[0]} outside universe of size "
                f"{self.space.m}"
            )
        if selected == self.selected:
            return False
        self.invalidate_caches()
        self.selected = selected
        if lattice is not None:
            self._build_engine(lattice)
        self.artifact_ref = None
        self.journal_seq = 0
        self.mutation_log.clear()
        self.reset_staleness()
        return True

    # ------------------------------------------------------------------
    # the write path: incremental database mutations
    # ------------------------------------------------------------------
    def register_observer(self, observer) -> None:
        """Subscribe *observer* to database mutations.

        After each applied mutation the observer's
        ``observe_add(appended_graphs)`` / ``observe_remove(indices)``
        method (whichever it defines) is called — so an observer
        doubling as the re-selection hook has seen every mutation
        before a maintenance pass asks it to adjudicate the drift.
        """
        if observer not in self._observers:
            self._observers.append(observer)

    def unregister_observer(self, observer) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    def _notify_observers(self, method: str, payload) -> None:
        for observer in list(self._observers):
            callback = getattr(observer, method, None)
            if callback is not None:
                callback(payload)

    def _selected_support_counts(self) -> np.ndarray:
        return self.space.support_counts[self.selected]

    def _drift_of(self, counts: np.ndarray) -> float:
        base_total = max(int(self._support_baseline.sum()), 1)
        return float(
            np.abs(counts - self._support_baseline).sum() / base_total
        )

    @property
    def support_drift(self) -> float:
        """Relative L1 drift of selected supports since the baseline.

        ``Σ_r |s_r − s_r⁰| / max(Σ_r s_r⁰, 1)`` where ``s_r⁰`` is the
        support count of selected feature ``r`` when the selection was
        last made (construction, load, or :meth:`reset_staleness`).
        """
        return self._drift_of(self._selected_support_counts())

    def reset_staleness(self) -> None:
        """Accept the current supports as the new selection baseline."""
        self._support_baseline = self._selected_support_counts()
        self.stale = False

    def _pre_mutation_gate(self, support_delta: np.ndarray) -> bool:
        """Would a mutation moving supports by *support_delta* cross
        the drift threshold?"""
        prospective = self._selected_support_counts() + support_delta
        return self._drift_of(prospective) > self.staleness_policy.max_drift

    def _apply_add_vectors(self, rows: np.ndarray) -> None:
        """Pure state update for an add: no gate, no observers, no log.

        Shared by :meth:`add_graphs` and the artifact loader's journal
        replay (which already has the embedded rows, so replay costs
        zero VF2 calls).
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dimensionality:
            raise SelectionError(
                f"added vectors must have {self.dimensionality} columns, "
                f"got {rows.shape}"
            )
        full = np.zeros((rows.shape[0], self.space.m), dtype=bool)
        full[:, self.selected] = rows != 0
        self.space.append_rows(full)
        # A restored-but-unattached graph section describes the old row
        # numbering — drop it; a *built* graph is maintained exactly
        # (equal to a scratch rebuild, no O(n^2) pass).
        self._proximity_payload = None
        if self._proximity_graph is not None:
            self._proximity_graph = self._proximity_graph.with_appended(
                self.database_bits()
            )

    def _apply_remove(self, removed: List[int]) -> None:
        """Pure state update for a removal (shared with journal replay)."""
        # space.remove_rows validates before touching anything, so a bad
        # index list leaves the mapping fully unmutated.
        self.space.remove_rows(removed)
        self._proximity_payload = None
        if self._proximity_graph is not None:
            self._proximity_graph = self._proximity_graph.with_removed(
                sorted(set(removed)), self.database_bits()
            )

    def add_graphs(self, graphs: Sequence[LabeledGraph]) -> np.ndarray:
        """Add database graphs without rebuilding the index.

        Each new graph is embedded over the selected features by the
        warm engine's lattice-pruned VF2 walk — the only isomorphism
        work an add costs.  The support matrix gains their bits;
        mining, selection, and the lattice are never re-run, and the
        engine itself is kept (its
        pattern side depends on the selection alone, and it reads the
        rows live).  New graphs take indices ``n..``.

        Supports of *non-selected* universe features are not re-mined
        for the new graphs (queries never read them); the staleness
        policy exists precisely to bound how long that, and the drift of
        the selected supports, may accumulate before re-selection.

        Returns the ``len(graphs) × p`` embedded rows.
        """
        graphs = list(graphs)
        if not graphs:
            return np.zeros((0, self.dimensionality))
        engine = self.query_engine()
        rows = engine.embed_many(graphs)
        crossed = self._pre_mutation_gate(
            rows.sum(axis=0).astype(np.int64)
        )
        self._apply_add_vectors(rows)
        self._notify_observers("observe_add", graphs)
        self.mutation_log.append(
            {"op": "add", "vectors": rows.astype(int).tolist()}
        )
        if crossed:
            self.stale = True
        return rows

    def remove_graphs(self, indices: Sequence[int]) -> None:
        """Remove database graphs *indices* without rebuilding the index.

        Indices refer to the current row numbering; survivors are
        renumbered compactly (row ``i`` drops by the number of removed
        rows below it).  Exact and VF2-free: the support matrix drops
        their bits.
        """
        removed = sorted({int(i) for i in indices})
        if not removed:
            return
        n = self.space.n
        if removed[0] < 0 or removed[-1] >= n:
            raise SelectionError(
                f"remove indices out of range for database of size {n}"
            )
        delta = -self.database_bits(removed).sum(axis=0, dtype=np.int64)
        crossed = self._pre_mutation_gate(delta)
        self._apply_remove(removed)
        self._notify_observers("observe_remove", removed)
        self.mutation_log.append({"op": "remove", "indices": removed})
        if crossed:
            self.stale = True

    def replay_mutation(self, entry: Dict) -> None:
        """Apply one persisted delta-journal *entry* (loader use).

        Replay is pure array work — adds carry their embedded rows, so
        no VF2 runs, and the engine the loader attached stays as it is.
        """
        op = entry.get("op")
        if op == "add":
            self._apply_add_vectors(
                np.asarray(entry["vectors"], dtype=float)
            )
        elif op == "remove":
            self._apply_remove([int(i) for i in entry["indices"]])
        else:
            from repro.utils.errors import JournalError

            raise JournalError(f"unknown journal op {op!r}")

    def query_service(
        self,
        n_shards: int = 4,
        shards: Optional[Sequence[np.ndarray]] = None,
        **kwargs,
    ) -> "QueryService":
        """A sharded :class:`~repro.serving.service.QueryService`.

        Results are bit-identical to :meth:`query_engine`'s
        ``batch_query``; the database rows are split into *n_shards*
        contiguous shards (or the explicit *shards* assignment, e.g.
        DSPMap partition blocks).  A new service is built per call; it
        answers each batch inline on the calling thread.
        """
        from repro.serving.service import QueryService

        return QueryService(
            self.query_engine(),
            n_shards=n_shards,
            shards=shards,
            **kwargs,
        )


def build_mapping(
    graphs: Sequence[LabeledGraph],
    num_features: int,
    min_support: float = 0.05,
    max_pattern_edges: Optional[int] = None,
    dissimilarity: str = "delta2",
    tolerance: float = 1e-5,
    max_iterations: int = 100,
    space: Optional[FeatureSpace] = None,
    delta: Optional[np.ndarray] = None,
) -> DSPreservedMapping:
    """One-call construction of a DSPM-selected DS-preserved mapping.

    Parameters mirror the paper's pipeline defaults: gSpan at τ = 5%,
    δ = Eq. 2.  A pre-built *space* and/or *delta* matrix may be passed
    to share work across experiments.
    """
    if space is None:
        features = mine_frequent_subgraphs(
            graphs, min_support=min_support, max_edges=max_pattern_edges
        )
        if not features:
            raise SelectionError(
                "no frequent subgraphs at this support; lower min_support"
            )
        space = FeatureSpace(features, len(graphs))
    if delta is None:
        cache = DissimilarityCache(dissimilarity)
        delta = pairwise_dissimilarity_matrix(graphs, cache)

    p = min(num_features, space.m)
    result: DSPMResult = DSPM(
        p, tolerance=tolerance, max_iterations=max_iterations
    ).fit(space, delta)
    return mapping_from_selection(space, result.selected)


def variance_selection(space: FeatureSpace, p: int) -> List[int]:
    """Top-p features by binary-column variance s_r(n − s_r).

    Mimics DSPM's preference for discriminative mid-support features
    without the NP-hard δ matrix (``index-build --selection variance``
    and the ``serve`` demo index).  Deterministic (score, index)
    tie-breaking.
    """
    s = space.support_counts.astype(np.int64)
    score = s * (space.n - s)
    order = np.lexsort((np.arange(space.m), -score))
    return [int(r) for r in order[: min(p, space.m)]]


def mapping_from_selection(
    space: FeatureSpace, selected: Sequence[int]
) -> DSPreservedMapping:
    """Freeze a mapping given any selector's chosen feature indices."""
    selected = list(selected)
    if not selected:
        raise SelectionError("selection is empty")
    return DSPreservedMapping(space=space, selected=selected)
