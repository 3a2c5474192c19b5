"""The sharded query service: one process, one core, every batch inline.

The paper makes one query cheap; a deployment has to make *streams* of
queries from many users cheap.  :class:`QueryService` layers its
serving mechanics over :meth:`QueryEngine.batch_query
<repro.query.engine.QueryEngine.batch_query>` without changing a single
result bit:

* **Sharding.**  The database rows are split into ``n_shards``
  contiguous shards (or any explicit assignment, e.g. DSPMap partition
  blocks).  Each shard task computes its local distance block and local
  top-k; a merge step re-ranks the shard candidates with the same
  ``(distance, index)`` tie-breaking as :func:`rank_with_ties`, so the
  merged answer equals the single-shard scan exactly.  A shard is
  exactly its rows: their bits cut from the feature space's support
  matrix (φ's one copy) once at shard build, and the
  :class:`~repro.query.pruning.ShardSummary` derived from the same
  block.  No float row of the database is built or kept.
* **A scan on φ's bits.**  Every served row and query is a 0/1 vector
  (φ of a graph), so the exact and approx tiers score on bits: a batch
  packs its queries once, :func:`repro.kernels.hamming_block` returns
  integer Hamming counts, and top-k selection and merging run on the
  int64 keys ``count << 32 | row`` (:func:`~repro.query.topk.rank_counts`,
  :class:`~repro.query.topk.BlockTopK`).  A count becomes a float
  score — ``sqrt(count / p)``, the float kernel's distance to the bit —
  only in the answers and where a running threshold meets a shard
  bound, so answers and pruning decisions are the float scan's.
* **Embedding cache.**  Real multi-user traffic repeats queries.  An
  LRU cache keyed by the query's exact structure (labels + edge set)
  returns φ(q) without any VF2 — exact, since equal structure implies
  an equal embedding.
* **Live updates.**  :meth:`QueryService.apply_update` mutates the
  underlying index (incremental add/remove — see
  :meth:`DSPreservedMapping.add_graphs
  <repro.core.mapping.DSPreservedMapping.add_graphs>`) and swaps in a
  new shard list atomically, rebuilding only the shards whose rows
  changed; the embedding cache survives because φ(q) depends only on
  the selected patterns, which add/remove never touches.
* **One executor, plans of rounds.**  Every sharded
  :class:`~repro.query.pruning.SearchPolicy` is a *plan of rounds* run
  by one executor (:meth:`QueryService._query_vectors`).  A round is a
  list of ``(block, query ids)`` groups — a block is one shard, or all
  rows at once — decided against the batch's running k-th-best
  thresholds as they stand when the round starts; the executor
  computes a round's blocks, absorbs them in order, then asks for the
  next round.  Fixed ``nprobe`` is one round: each query is routed to
  its nearest shards by centroid, and each routed shard is scored once
  for the queries routed to it; it reads no bound.  The *routed*
  (``nprobe="auto"``) plan is a round per probe and reads the lower
  bounds each shard's :class:`~repro.query.pruning.ShardSummary` gives
  for its stop rule.  Top-k selection under a total order is
  associative, so answers cannot depend on how rounds are grouped;
  every stat and trace count is derived in that one place from the
  groups that ran, so counters cannot drift either.
* **Exact is the scan.**  An exact batch is the paper's sequential
  scan — one round, one group over one block of all rows (every
  shard's planes side by side, which the :class:`ShardSnapshot` carries
  beside the shard list) — and reads no bound.

Every batch runs inline, on the thread that calls it.  A second core is
a second replica (``serve-router --spawn N``, one process per core):
the paper answers each query on its own, so more cores serve more
queries in flight rather than one query faster.

Bit-identity with the engine path is enforced by the serving test suite
and re-checked against an oracle by every ledger run (``bench/verify.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.mapping import DSPreservedMapping
from repro.graph.labeled_graph import LabeledGraph
from repro import kernels
from repro.query.engine import BatchQueryResult, QueryEngine
from repro.query.pruning import (
    EXACT_POLICY,
    PruningTrace,
    SearchPolicy,
    ShardSummary,
    SummaryStack,
    default_ef,
    prunable_mask,
    shard_centroid_distances,
    shard_lower_bounds,
    stack_summaries,
)
from repro.query.topk import BlockTopK, TopKResult, _check_k, rank_counts
from repro.utils.errors import QueryError
from repro.utils.validation import is_count


@dataclass
class Shard:
    """One block of database rows and what is derived from them.

    ``indices`` are ascending global row ids, ``planes`` those rows of
    the mapping's support matrix as :func:`repro.kernels.pack_rows` bit
    planes (``[ceil(p / 64), rows]`` ``uint64``, cut once, at shard
    build) and ``summary`` the geometry (centroid/radius/envelope) the
    approx tier's routing and bounds read — always
    :meth:`ShardSummary.from_vectors` of the same rows, unpacked for it
    alone.  Planes and summary are reused by identity when a live update
    only renumbers this shard's rows.

    The block of *all* rows a :class:`ShardSnapshot` carries is the one
    ``Shard`` without a summary: nothing bounds or routes on it — it is
    what an exact batch scans.
    """

    indices: np.ndarray
    planes: np.ndarray
    summary: Optional[ShardSummary]

    @property
    def num_rows(self) -> int:
        return len(self.indices)


#: The block of a group that scans every shard at once (it indexes the
#: per-shard accounting arrays as "all of them").
ALL_SHARDS = slice(None)

#: One unit of a round: a block — a shard index, or :data:`ALL_SHARDS` —
#: and the ascending ids of the batch's queries scored against it.
Group = Tuple[Union[int, slice], np.ndarray]


@dataclass(frozen=True)
class ShardSnapshot:
    """Everything a batch reads of one shard-list generation.

    Derived once, when the shard list is installed, and swapped as one
    reference under the swap lock — a batch that took a snapshot keeps
    answering from these rows whatever :meth:`QueryService.apply_update`
    installs meanwhile.  ``stack`` is the summaries stacked for the
    bound kernel, ``rows`` the per-shard row counts, ``p`` the width of
    the rows, and ``whole`` every row: the shards' planes side by side,
    joined from the planes already packed — an update packs only the
    rows of the shards it rebuilds.  Its columns are in shard order,
    not database order; the top-k keys carry the global row ids, so
    that order is never read.
    """

    shards: Tuple[Shard, ...]
    stack: SummaryStack
    rows: np.ndarray
    p: int
    whole: Shard

    @classmethod
    def of(cls, shards: Sequence[Shard], p: int) -> "ShardSnapshot":
        return cls(
            shards=tuple(shards),
            stack=stack_summaries([shard.summary for shard in shards]),
            rows=np.array([s.num_rows for s in shards], dtype=np.int64),
            p=p,
            whole=Shard(
                indices=np.concatenate([s.indices for s in shards]),
                planes=np.concatenate([s.planes for s in shards], axis=1),
                summary=None,
            ),
        )


@dataclass
class ServiceStats:
    """Cumulative counters of one :class:`QueryService`.

    ``cache_misses`` counts first-in-batch lookups that had to embed
    (0 with the cache disabled).  ``cache_hits`` counts every embedding
    served without VF2 work — cross-batch cache lookups *and* in-batch
    duplicates, which dedup even when the cache is off.
    """

    batches: int = 0
    queries: int = 0
    embedded_queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    vf2_calls: int = 0
    features_pruned: int = 0
    shard_tasks: int = 0
    updates: int = 0
    shards_rebuilt: int = 0
    #: Re-selections swapped in by :meth:`QueryService.apply_reselection`.
    reselections: int = 0
    #: Shard distance blocks an approx batch skipped outright (no
    #: query was routed to them, or every ``nprobe="auto"`` query
    #: stopped first) and (query, shard) bound evaluations, which only
    #: ``auto``'s stop rule makes.  An exact batch skips nothing.
    shards_skipped: int = 0
    bound_checks: int = 0
    #: Scored (query, row) pairs across every search mode — the
    #: mode-independent work measure operating points are compared on
    #: (the ledger's ``service.*_evals_per_query``, and
    #: ``TestClusteredWorkCounts`` in ``tests/test_pruning.py``).  Full
    #: scans and non-skipped shard blocks count every row they score;
    #: graph mode counts the rows its beams actually evaluated.
    distance_evaluations: int = 0
    #: Batches answered by one block over all rows: every exact batch.
    #: One such batch is one ``shard_task``.
    whole_scans: int = 0


def check_sizes(n_shards: int, cache_size: int = 0) -> None:
    """The shard count and cache size a :class:`QueryService` accepts.

    The serving verbs check them before they load or build an index, so
    a bad size is refused at once instead of after the build.
    """
    if not is_count(n_shards):
        raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
    if cache_size < 0:
        raise ValueError("cache_size must be >= 0 (0 disables the cache)")


class QueryService:
    """Sharded top-k serving, bit-identical to the single-shard engine.

    Parameters
    ----------
    engine_or_mapping:
        A warm :class:`QueryEngine`, or a mapping (its engine is used).
    n_shards:
        Number of contiguous shards (ignored when *shards* is given).
    n_workers:
        ``0`` or ``1``; both mean what every service does — run each
        batch inline.  Any other value is refused.  It survives only
        because ``bench/layers.py`` still passes ``n_workers=0``; it
        goes when the benchmark stops passing it.
    shards:
        Optional explicit shard assignment: index arrays that partition
        ``0..n-1`` (e.g. ``DSPMap.partitions_``).
    cache_size:
        LRU capacity of the exact embedding cache (``0`` disables it).

    Every batch runs inline on the calling thread, so the service holds
    nothing to release; :meth:`close` and the context-manager protocol
    are kept callable for the callers that still use them.
    """

    def __init__(
        self,
        engine_or_mapping: Union[QueryEngine, DSPreservedMapping],
        n_shards: int = 4,
        n_workers: int = 0,
        shards: Optional[Sequence[np.ndarray]] = None,
        cache_size: int = 1024,
    ) -> None:
        if n_workers not in (0, 1):
            raise ValueError(
                "n_workers must be 0 or 1: a batch runs inline, and a "
                "second core is a second replica (serve-router --spawn)"
            )
        check_sizes(n_shards, cache_size)
        self._cache: Optional[OrderedDict] = (
            OrderedDict() if cache_size > 0 else None
        )
        self._cache_size = int(cache_size)
        self._swap_lock = threading.Lock()
        self.stats = ServiceStats()
        #: Monotonic database generation: 0 at construction, +1 per
        #: applied update.  Snapshotted together with the shard list, so
        #: a tagged batch names exactly the database state it ran on.
        self.generation = 0
        #: Graph-mode snapshot: the proximity graph the beam searches.
        #: ``None`` until :meth:`ensure_graph` builds or attaches it;
        #: refreshed under the swap lock by apply_update, so graph
        #: answers track the same generation the shard list serves.
        self._graph = None

        if isinstance(engine_or_mapping, DSPreservedMapping):
            engine = engine_or_mapping.query_engine()
        else:
            engine = engine_or_mapping
        self.engine = engine
        self.mapping = engine.mapping
        self._selection_snapshot = tuple(self.mapping.selected)
        n = self.mapping.space.n

        if shards is None:
            assignment = np.array_split(np.arange(n), min(n_shards, n))
        else:
            assignment = [np.asarray(s, dtype=np.int64) for s in shards]
            flat = sorted(
                int(i) for block in assignment for i in block
            )
            if flat != list(range(n)):
                raise ValueError(
                    "shards must partition the database rows exactly once"
                )
        # One object per shard-list generation: the shards, their
        # stacked summaries and row counts, and the block of all rows.
        self._snapshot = ShardSnapshot.of(
            [self._build_shard(block) for block in assignment if len(block)],
            self.mapping.dimensionality,
        )

    # ------------------------------------------------------------------
    # shard construction
    # ------------------------------------------------------------------
    def _build_shard(self, block: np.ndarray) -> Shard:
        indices = np.sort(np.asarray(block, dtype=np.int64))
        # The one cut from the support matrix: these rows are packed
        # into the shard's scan operand, and its summary is derived
        # from them.
        rows = self.mapping.database_bits(indices)
        return Shard(
            indices=indices,
            planes=kernels.pack_rows(rows),
            summary=ShardSummary.from_vectors(rows),
        )

    @property
    def shards(self) -> Tuple[Shard, ...]:
        """The serving shard list (of the current snapshot)."""
        return self._snapshot.shards

    def _require_in_sync(self) -> None:
        """Refuse to derive a shard list from one the mapping outgrew."""
        if self._snapshot.whole.num_rows != self.mapping.space.n:
            raise ValueError(
                "service shards are out of sync with the mapping — "
                "mutate a served index through apply_update, not the "
                "mapping directly"
            )

    def _install_shards(
        self, new_shards: List[Shard], selection_changed: bool
    ) -> None:
        """Swap *new_shards* in as the next index generation: everything
        a batch snapshots changes together, under the swap lock."""
        engine = self.mapping.query_engine()
        snapshot = ShardSnapshot.of(new_shards, self.mapping.dimensionality)
        selection = tuple(self.mapping.selected)
        with self._swap_lock:
            self._snapshot = snapshot
            self.engine = engine
            self.generation += 1
            # The mutation appliers maintained the mapping's proximity
            # graph incrementally (or dropped it on re-selection);
            # adopt that snapshot so graph-mode answers swap to the new
            # generation atomically with the shard list.  Stays None if
            # no graph-mode query ever forced a build.
            self._graph = self.mapping.peek_proximity_graph()
            if selection_changed:
                self._selection_snapshot = selection
                if self._cache is not None:
                    self._cache.clear()

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    def apply_update(
        self,
        added: Sequence[LabeledGraph] = (),
        removed: Sequence[int] = (),
    ) -> None:
        """Mutate the underlying index and refresh only what changed.

        *removed* are database indices in the **pre-update** numbering;
        removals are applied first, then *added* graphs append at the
        end of the (renumbered) database.  The mapping mutation goes
        through :meth:`DSPreservedMapping.remove_graphs
        <repro.core.mapping.DSPreservedMapping.remove_graphs>` /
        :meth:`~repro.core.mapping.DSPreservedMapping.add_graphs`, so
        the support matrix's bits are edited in place of a rebuild; an update
        past the staleness policy's ``max_drift`` sets
        ``mapping.stale`` and changes nothing else.

        Only the *affected* shards are rebuilt: shards that lost rows
        and the single — currently smallest — shard that absorbs the
        added rows.
        Untouched shards are renumbered without recomputing anything.
        The new shard list is swapped in atomically under the swap
        lock, so concurrent batches see either the old database or the
        new one, never a mix.

        An update never changes φ (only :meth:`apply_reselection`
        does): φ(q) depends on the selected patterns alone, so every
        cached embedding stays exact and the cache survives.  Results
        after an update are bit-identical to a from-scratch engine over
        the mutated database — the serving test suite enforces it, ties
        included.

        If the add half raises after a removal already applied, the
        removal's shard update is still swapped in — service and
        mapping stay in sync — and the add's exception then propagates.
        """
        added = list(added)
        removed_ids = sorted({int(i) for i in removed})
        if not added and not removed_ids:
            return
        mapping = self.mapping
        self._require_in_sync()
        if removed_ids:
            mapping.remove_graphs(removed_ids)
        add_error: Optional[BaseException] = None
        if added:
            try:
                mapping.add_graphs(added)
            except BaseException as exc:
                if not removed_ids:
                    raise  # nothing was mutated; shards are still in sync
                # The removal already applied: finish swapping shards
                # for it so the service stays consistent with the
                # mapping, then re-raise the add's failure.
                add_error = exc
                added = []
        n_after = mapping.space.n
        new_ids = np.arange(n_after - len(added), n_after, dtype=np.int64)

        removed_arr = np.asarray(removed_ids, dtype=np.int64)
        survivors: List[Tuple[Shard, np.ndarray, bool]] = []
        for shard in self.shards:
            old = shard.indices
            if removed_arr.size:
                mask = ~np.isin(old, removed_arr)
                surviving = old[mask]
                shifted = surviving - np.searchsorted(removed_arr, surviving)
                lost = bool((~mask).any())
            else:
                shifted, lost = old, False
            survivors.append((shard, shifted, lost))

        target = -1
        if added:
            sizes = [len(shifted) for _shard, shifted, _lost in survivors]
            target = int(np.argmin(sizes))

        new_shards: List[Shard] = []
        rebuilt = 0
        for si, (shard, shifted, lost) in enumerate(survivors):
            ids = (
                np.concatenate([shifted, new_ids]) if si == target else shifted
            )
            if len(ids) == 0:
                continue  # the removal emptied this shard
            if lost or si == target:
                new_shards.append(self._build_shard(ids))
                rebuilt += 1
            else:
                # Row data unchanged — reuse the planes and the
                # summary (same rows, same geometry), relabel the
                # global ids.  A fresh Shard object keeps in-flight
                # snapshots of the old list self-consistent.
                new_shards.append(replace(shard, indices=shifted))

        self._install_shards(new_shards, selection_changed=False)
        self.stats.updates += 1
        self.stats.shards_rebuilt += rebuilt
        if add_error is not None:
            raise add_error

    # ------------------------------------------------------------------
    # background maintenance
    # ------------------------------------------------------------------
    def apply_reselection(self, hook) -> bool:
        """Run a re-selection *hook* against the mapping, off-path.

        The healing half of the staleness loop: a mutation past
        ``max_drift`` only sets ``mapping.stale``, and background
        maintenance (:meth:`AsyncFrontend.maintain
        <repro.serving.frontend.AsyncFrontend.maintain>`) hands the
        configured selector here.  *hook* is called with the mapping —
        typically a :class:`repro.core.reselect.Reselector` — and
        installs a new selection, if it finds one, through
        :meth:`~repro.core.mapping.DSPreservedMapping.apply_selection`
        (the only place φ changes).

        If the selection changed, every shard is rebuilt over the same
        row partition and swapped in atomically: in-flight batches keep
        the snapshot they took, the embedding cache is cleared (φ
        itself changed), and the index generation advances.  Either way
        the staleness counters reset: the hook has adjudicated the
        drift.  Returns True iff the selection changed.
        """
        mapping = self.mapping
        self._require_in_sync()
        hook(mapping)
        mapping.reset_staleness()
        if tuple(mapping.selected) == self._selection_snapshot:
            return False
        new_shards = [
            self._build_shard(shard.indices) for shard in self.shards
        ]
        self._install_shards(new_shards, selection_changed=True)
        self.stats.reselections += 1
        self.stats.shards_rebuilt += len(new_shards)
        return True

    def close(self) -> None:
        """Release nothing: a service holds no pool, thread or file.

        Kept callable, with the context-manager protocol, because
        ``bench/layers.py`` still calls it; both go when the benchmark
        stops calling them.
        """

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def clear_cache(self) -> None:
        if self._cache is not None:
            self._cache.clear()

    # ------------------------------------------------------------------
    # embedding stage
    # ------------------------------------------------------------------
    def _cache_get(self, key) -> Optional[np.ndarray]:
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
        return hit

    def _cache_put(self, key, vector: np.ndarray) -> None:
        self._cache[key] = vector
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def _embed_unique(
        self, queries: List[LabeledGraph], engine: QueryEngine
    ) -> np.ndarray:
        """Embed distinct queries, counting the engine's VF2 work."""
        calls = engine.stats.vf2_calls
        pruned = engine.stats.features_pruned
        vectors = engine.embed_many(queries)
        self.stats.vf2_calls += engine.stats.vf2_calls - calls
        self.stats.features_pruned += engine.stats.features_pruned - pruned
        return vectors

    def embed_batch(
        self,
        queries: Sequence[LabeledGraph],
        engine: Optional[QueryEngine] = None,
        generation: Optional[Tuple[int, ...]] = None,
    ) -> np.ndarray:
        """φ(q) for a batch: cache hits and in-batch duplicates embed once.

        *engine* / *generation* let :meth:`batch_query` embed with the
        engine it snapshotted under the swap lock; cache inserts are
        skipped when the selection generation moved on, so a concurrent
        re-selection can never leave a stale φ in the cache after
        clearing it.
        """
        if engine is None:
            with self._swap_lock:
                engine = self.engine
                generation = self._selection_snapshot
        queries = list(queries)
        p = engine.num_selected
        vectors = np.zeros((len(queries), p))
        to_embed: List[LabeledGraph] = []
        keys: List[Tuple] = []
        targets: List[List[int]] = []
        seen: Dict[Tuple, int] = {}
        for i, q in enumerate(queries):
            key = q.key()
            if self._cache is not None:
                cached = self._cache_get(key)
                if cached is not None:
                    vectors[i] = cached
                    self.stats.cache_hits += 1
                    continue
            # In-batch duplicates embed once even with the cache disabled.
            pos = seen.get(key)
            if pos is not None:
                targets[pos].append(i)
                self.stats.cache_hits += 1
                continue
            if self._cache is not None:
                self.stats.cache_misses += 1
            seen[key] = len(to_embed)
            to_embed.append(q)
            keys.append(key)
            targets.append([i])
        if to_embed:
            self.stats.embedded_queries += len(to_embed)
            embedded = self._embed_unique(to_embed, engine)
            for row, key, idxs in zip(embedded, keys, targets):
                for i in idxs:
                    vectors[i] = row
                if self._cache is not None:
                    with self._swap_lock:
                        if generation == self._selection_snapshot:
                            self._cache_put(key, row.copy())
        return vectors

    # ------------------------------------------------------------------
    # distance stage
    # ------------------------------------------------------------------
    @staticmethod
    def _shard_topk(shard: Shard, planes: np.ndarray, k: int) -> np.ndarray:
        """Local top-k of packed queries against one block's rows: the
        ``[nq, min(k, rows)]`` keys ``count << 32 | global row``."""
        counts = kernels.hamming_block(planes, shard.planes)
        return rank_counts(counts, shard.indices, k)

    def batch_query_vectors(
        self,
        vectors: np.ndarray,
        k: int,
        policy: Optional[SearchPolicy] = None,
    ) -> List[TopKResult]:
        """Top-k for pre-embedded query vectors (the vector-serving path).

        The shard snapshot is taken under the swap lock, so a
        concurrent :meth:`apply_update` either happens entirely before
        this batch (it sees the mutated database) or entirely after (it
        sees the old one) — never a mix of shard generations.
        """
        return self.batch_query_vectors_traced(vectors, k, policy)[0]

    def batch_query_vectors_traced(
        self,
        vectors: np.ndarray,
        k: int,
        policy: Optional[SearchPolicy] = None,
    ) -> Tuple[List[TopKResult], PruningTrace]:
        """:meth:`batch_query_vectors` plus the pass's pruning trace.

        The trace carries per-query counters (e.g. the adaptive
        tier's ``effective_nprobe``) that the cumulative service stats
        cannot attribute to one batch.  A second name for the same
        search survives because ``bench/layers.py`` reads the trace's
        bound checks, visits and skips through it; it folds into
        :meth:`batch_query_vectors` when the benchmark stops calling it.

        This is the boundary vectors from outside cross (``embed_batch``
        output is trusted): anything but a 2-d block of 0/1 entries of
        the mapping's width is a :class:`QueryError` — every search
        mode scores on bits.
        """
        with self._swap_lock:
            snapshot = self._snapshot
        vectors = np.asarray(vectors, dtype=float)
        p = snapshot.p
        if vectors.ndim != 2 or vectors.shape[1] != p:
            raise QueryError(
                f"query vectors must be a 2-d block of width {p} "
                f"(queries x dimensions), got shape {vectors.shape}"
            )
        finite = np.isfinite(vectors)
        if not finite.all():
            raise QueryError(
                "query vectors must be finite, got "
                f"{int((~finite).sum())} nan/inf entries"
            )
        other = (vectors != 0) & (vectors != 1)
        if other.any():
            raise QueryError(
                "query vectors must be 0/1 (the embedding of a graph), "
                f"got {int(other.sum())} other entries"
            )
        return self._query_vectors(vectors, k, snapshot, policy)

    def _query_vectors(
        self,
        vectors: np.ndarray,
        k: int,
        snapshot: ShardSnapshot,
        policy: Optional[SearchPolicy],
    ) -> Tuple[List[TopKResult], PruningTrace]:
        """The distance stage over an already-taken snapshot: the one
        executor of every plan (see the module docstring) — compute a
        round's groups, absorb them in order, ask for the next round,
        and derive stats and trace from what ran.

        A group's block is a shard index, or :data:`ALL_SHARDS` — the
        snapshot's block of all rows, which is the exact plan's one
        group: one task that visits every shard for its queries.
        """
        policy = EXACT_POLICY if policy is None else policy
        k = _check_k(k, snapshot.whole.num_rows)
        nq, p = vectors.shape
        if nq == 0:
            # Nothing to search: no group runs and no counter moves,
            # whatever was asked (nor is a graph built to search it).
            none = np.zeros(0, dtype=np.int64)
            return [], PruningTrace("exact", None, none, none, none)
        if policy.mode == "graph":
            return self._query_vectors_graph(vectors, k, policy)
        shards, stack, rows = snapshot.shards, snapshot.stack, snapshot.rows
        ns = len(shards)
        # `best.thresholds` is the per-query running k-th-best; +inf
        # until k candidates exist, so auto's vectorised stop test below
        # is exactly `prunable()`: no query stops against an undefined
        # threshold.
        best = BlockTopK(nq, k, p)
        checks = np.zeros(nq, dtype=np.int64)
        everyone = np.arange(nq)
        nprobe = policy.nprobe
        if isinstance(nprobe, int):
            nprobe = min(nprobe, ns)

        def routed_rounds() -> Iterator[List[Group]]:
            """``nprobe="auto"``: round *t* is the *t*-th-nearest shard
            (by centroid, the signal fixed ``nprobe`` routes on) of
            every still-widening query, grouped by shard so one distance
            block serves all queries routed to it; a query stops
            widening at the first shard whose lower bound clears its
            threshold.  Unlike fixed ``nprobe``, which scores every
            routed shard, that stop rule truncates the probe sequence;
            a farther shard with a loose bound is never reconsidered.
            The truncation is the approximation — answers stay
            full-length, only recall is traded."""
            routed = np.argsort(centroid_d, axis=1, kind="stable")
            live = everyone
            for t in range(ns):
                next_shards = routed[live, t]
                if t > 0:
                    checks[live] += 1
                    widening = ~prunable_mask(
                        bounds[live, next_shards], best.thresholds[live]
                    )
                    live, next_shards = live[widening], next_shards[widening]
                    if live.size == 0:
                        return
                yield [
                    (int(si), live[next_shards == si])
                    for si in np.unique(next_shards)
                ]

        if policy.mode == "exact":
            # The paper's scan: one round of one group over every row.
            rounds = [[(ALL_SHARDS, everyone)]]
        elif nprobe == "auto":
            bounds, centroid_d = shard_lower_bounds(vectors, stack, p)
            rounds = routed_rounds()
        else:
            # Fixed nprobe: each query is routed to its nprobe nearest
            # shards (by centroid), and one round scores each routed
            # shard once, for every query routed to it.  No bound is
            # read: top-k is associative, so the answer is the top-k of
            # the routed rows.  nprobe is a floor, not a cap on answer
            # length: routing extends past it (nearest shards first)
            # until the routed shards hold at least k rows, so approx
            # answers are always full-length — only recall degrades.
            centroid_d = shard_centroid_distances(vectors, stack)
            routed = np.argsort(centroid_d, axis=1, kind="stable")
            covered = np.cumsum(rows[routed], axis=1)
            need = np.argmax(covered >= k, axis=1) + 1  # k <= n: exists
            take = np.maximum(nprobe, need)
            eligible = np.zeros((nq, ns), dtype=bool)
            eligible[everyone[:, None], routed] = (
                np.arange(ns)[None, :] < take[:, None]
            )
            rounds = [[
                (si, qs)
                for si, qs in enumerate(map(np.flatnonzero, eligible.T))
                if qs.size
            ]]

        planes = kernels.pack_rows(vectors)  # once per batch
        visited = np.zeros(nq, dtype=np.int64)  # shards per query
        scored = np.zeros(ns, dtype=np.int64)  # queries per shard
        shard_tasks = whole_scans = 0
        for groups in rounds:
            for si, qs in groups:
                # One group's block — a shard task.
                block = snapshot.whole if si is ALL_SHARDS else shards[si]
                # A whole-batch group needs no gather: query ids ascend.
                left = planes if qs.size == nq else planes[:, qs]
                best.absorb(qs, self._shard_topk(block, left, k))
                # One shard's block, or every shard's rows in one.
                visited[qs] += ns if si is ALL_SHARDS else 1
                scored[si] += qs.size
                whole_scans += si is ALL_SHARDS
            shard_tasks += len(groups)
        shards_skipped = ns - int(np.count_nonzero(scored))
        self.stats.shard_tasks += shard_tasks
        self.stats.whole_scans += whole_scans
        self.stats.shards_skipped += shards_skipped
        self.stats.bound_checks += int(checks.sum())
        self.stats.distance_evaluations += int(scored @ rows)
        trace = PruningTrace(
            mode=policy.mode,
            nprobe=nprobe,
            visited=visited,
            skipped=ns - visited,
            bound_checks=checks,
            shard_tasks=shard_tasks,
            shards_skipped=shards_skipped,
            effective_nprobe=visited.copy() if nprobe == "auto" else None,
        )
        return best.results(), trace

    def ensure_graph(self):
        """The graph-mode snapshot, built (or attached) if not there yet.

        The first graph-mode query calls this.  The build (or artifact
        attach) runs outside the swap lock — it can cost an O(n²/chunk)
        kernel pass — and the assignment re-checks under the lock so a
        concurrent first-query race keeps exactly one snapshot.
        """
        with self._swap_lock:
            graph = self._graph
        if graph is not None:
            return graph
        built = self.mapping.proximity_graph()
        with self._swap_lock:
            if self._graph is None:
                self._graph = built
            return self._graph

    def _query_vectors_graph(
        self, vectors: np.ndarray, k: int, policy: SearchPolicy
    ) -> Tuple[List[TopKResult], PruningTrace]:
        """Beam search over the proximity graph — no shards touched.

        Approximate like ``nprobe`` routing, but sublinear: each query
        evaluates only the rows its beam walks past.  Per-query hops
        and distance evaluations go into the trace (the protocol's
        ``pruning`` section) and the cumulative
        ``distance_evaluations`` counter.  The beam's popcount
        distance holds on 0/1 vectors only; the vector boundary
        refuses any other block before a graph is built for it.
        """
        graph = self.ensure_graph()
        nq = vectors.shape[0]
        ef = policy.ef if policy.ef is not None else default_ef(k)
        # The beam clamps its candidate list to at least k entries
        # (``ProximityGraph.search``), so a requested ef < k is widened
        # before any work happens.  Report the width actually used —
        # the trace must describe the search that ran, not the request.
        ef = max(int(ef), k)
        results: List[TopKResult] = []
        hops = np.zeros(nq, dtype=np.int64)
        evals = np.zeros(nq, dtype=np.int64)
        for qi in range(nq):
            ranking, scores, q_hops, q_evals = graph.search(
                vectors[qi], k, ef
            )
            results.append(TopKResult(ranking, scores))
            hops[qi] = q_hops
            evals[qi] = q_evals
        self.stats.distance_evaluations += int(evals.sum())
        return results, PruningTrace.graph_search(ef, hops, evals)

    # ------------------------------------------------------------------
    # the serving entry points
    # ------------------------------------------------------------------
    def batch_query(
        self,
        queries: Sequence[LabeledGraph],
        k: int,
        policy: Optional[SearchPolicy] = None,
    ) -> BatchQueryResult:
        """Top-k for a batch of query graphs — the traffic entry point.

        Engine and shard snapshot are taken *together* under the swap
        lock, so the whole batch — embedding and distances — runs
        against one generation of the index even while
        :meth:`apply_update` swaps in another.
        """
        result, _generation, _trace = self.batch_query_traced(
            queries, k, policy
        )
        return result

    def batch_query_traced(
        self,
        queries: Sequence[LabeledGraph],
        k: int,
        policy: Optional[SearchPolicy] = None,
    ) -> Tuple[BatchQueryResult, int, PruningTrace]:
        """:meth:`batch_query` plus generation plus the pruning trace.

        The generation is part of the same swap-lock snapshot as the
        engine and shard list, so the returned number names *exactly*
        the database state the answers were computed on — the serving
        front-end stamps it on every response, and the soak tests use
        it to check each answer against a fresh index of that
        generation.  The :class:`~repro.query.pruning.PruningTrace`
        carries the per-query shard-visit/skip counters the protocol
        surfaces as each response's ``pruning`` stats.

        The frontend calls this name, not :meth:`batch_query`, and must
        keep doing so: ``bench/layers.py`` times the service by wrapping
        this one method, so a frontend that called another would fold
        the service's time into the frontend's own.  It folds into
        :meth:`batch_query` when the benchmark stops wrapping it.
        """
        queries = list(queries)
        with self._swap_lock:
            engine = self.engine
            snapshot = self._snapshot
            generation = self._selection_snapshot
            index_generation = self.generation
        k = _check_k(k, snapshot.whole.num_rows)
        vectors = self.embed_batch(queries, engine, generation)
        results, trace = self._query_vectors(vectors, k, snapshot, policy)
        self.stats.batches += 1
        self.stats.queries += len(queries)
        return BatchQueryResult(results, vectors), index_generation, trace

    def query(
        self,
        q: LabeledGraph,
        k: int,
        policy: Optional[SearchPolicy] = None,
    ) -> TopKResult:
        """Single-query convenience wrapper over :meth:`batch_query`."""
        return self.batch_query([q], k, policy).results[0]
