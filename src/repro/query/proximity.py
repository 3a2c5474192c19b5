"""Navigable proximity graph — the third (graph-ANN) search tier.

Shard skipping (PR 5) is linear in the number of partitions: exact
bounds still *check* every shard and ``nprobe`` routing visits a fixed
shard count per query.  This module adds the sublinear tier the
graph-ANN literature motivates (Prokhorenkova & Shekhovtsov; Wang et
al., "A Revisit" — see PAPERS.md): a degree-bounded neighbor graph over
the mapped database vectors, searched by a best-first beam that touches
only the vectors it walks past.

Design — *canonical*, not insertion-ordered
-------------------------------------------
Classic HNSW builds its neighbor lists by inserting points one at a
time through a beam search, which makes the final graph depend on the
insertion history.  That is poison for this codebase's core contract:
incrementally-maintained state must answer **bit-identically** to a
scratch rebuild (the mutable-index tier, the shard summaries, and the
churn-soak suites all pin this).  So the graph here is a pure function
of ``(vectors, row numbering)``:

* **Short links** — node ``i``'s neighbor list is its exact
  ``min(max_degree, n-1)`` nearest rows under the same
  ``(distance, index)`` total order the rest of the query tier uses.
* **Long links** — an *implicit* binary-tree backbone: every node is
  additionally adjacent to its tree parent ``(i-1)//2`` and children
  ``2i+1``/``2i+2``.  These are derived from ``n`` at search time, never
  stored, and guarantee the graph is connected (so a beam can always
  produce a full-length answer) while giving the beam long-range hops
  out of a bad entry neighborhood.

Because the structure is canonical, incremental maintenance can be
*exact*: appending rows needs one kernel distance block of the new rows
against everything (an existing list changes only if a new row beats
its current worst, and the true new top-m is contained in the old
top-m plus the new rows); removing rows repairs only the lists that
lost a member.  Maintained and scratch-built graphs are therefore
equal arrays, not merely similar — ``apply_update`` churn keeps
graph-mode answers bit-identical to a rebuild, with no full KNN build
(``tests/test_proximity.py::TestChurnSoak``).

Search
------
:meth:`ProximityGraph.search` seeds a best-first beam with a
deterministic ``~sqrt(n)`` evenly-strided sample of the rows (a
function of ``n`` alone, never stored).  On clustered databases —
exactly the regime the partition tier targets — every KNN list is
intra-cluster and the tree backbone alone forces the beam through
many near-equidistant wrong-cluster hops, so a single entry point
stalls below usable recall; a strided seed lands a handful of entries
in every contiguous cluster for ~sqrt(n) extra evaluations, and the
beam immediately contracts around the right one.

Traversal is **undirected**: expansion follows a node's stored KNN
out-links *and* its in-links (who lists this node), the in-links
derived on demand from the stored tables and capped at the
``2 * max_degree`` smallest in-neighbor ids.  Exact-KNN digraphs
starve: a row that nobody lists (common once a database contains
near-duplicate rows — every duplicate's list is the same few
smallest-id twins) has in-degree zero and is unreachable no matter how
long the beam runs.  The reverse links repair that while remaining a
pure function of the stored lists, so they cost nothing in the
manifest and inherit the maintained-equals-scratch guarantee.

The beam itself does **no candidate-insertion pruning**: every
unvisited neighbor of an expanded node is distance-evaluated (one
kernel call per hop) and pushed.  The beam width ``ef`` enters only
through the termination test — stop when the best unexpanded candidate
can no longer *strictly improve* on the running ``ef``-th-best
(:class:`RunningTopK` threshold; ``dist >=
threshold`` stops, so plateaus of tied candidates — duplicate rows
again — terminate instead of being expanded one by one for nothing).
Since neither the seed set nor the push rule depends on ``ef``, the
expansion sequence is identical for every ``ef`` and a larger ``ef``
only runs it longer (its threshold at any step is no smaller): the
evaluated set grows monotonically with ``ef``, hence recall is
monotonically non-decreasing in ``ef`` (property-tested in tier 1).

All bulk distances go through the active :mod:`repro.kernels` backend.
The few paired (row-vs-its-neighbor) distances use the same
``sqrt((|a|^2 + |b|^2 - 2 a.b) / p)`` formula directly; on the binary
embeddings this codebase produces, every term is an exact small
integer in float64, so the value is a pure function of the pair and
bit-identical no matter which code path computed it (the same argument
behind the kernel-parity tier).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.query.topk import TopKResult, merge_candidates
from repro.utils.errors import QueryError

#: Default bound on stored (short-link) neighbors per node.
DEFAULT_MAX_DEGREE = 8

#: Rows per kernel distance block during builds/repairs (bounds peak
#: memory at ``chunk * n`` floats without changing any distance value).
_BUILD_CHUNK = 256


def _resolve(backend):
    if backend is not None:
        return backend
    from repro.kernels import active_backend

    return active_backend()


def _sq_norms(vectors: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", vectors, vectors)


def _entry_points(n: int) -> np.ndarray:
    """The beam's seed rows: an evenly-strided ``~sqrt(n)`` sample.

    Pure function of ``n`` (like the tree backbone), so the search is
    canonical and the ef-monotonicity argument is untouched.
    """
    count = max(1, int(round(np.sqrt(n))))
    return np.unique(np.linspace(0, n - 1, num=count).astype(np.int64))


def _row_select(
    ids: np.ndarray, dists: np.ndarray, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``m`` of one candidate row under the (distance, id) order."""
    order = np.lexsort((ids, dists))[:m]
    return ids[order], dists[order]


class RunningTopK:
    """One query's best-k candidates, fed a few rows at a time.

    The beam's single-query tracker (the sharded tiers track whole
    batches in :class:`~repro.query.topk.BlockTopK`): candidate lists
    accumulate via :meth:`update`, and once ``k`` candidates exist,
    :attr:`threshold` (the current k-th-best score) is what a
    candidate must beat to matter.  The threshold is tracked with a
    bounded max-heap of the k best *scores* — the k-th value does not
    depend on index tie-breaking, and heap updates are O(log k).  The
    full (score, index) merge of every part runs exactly once, in
    :meth:`result`, via :func:`~repro.query.topk.merge_candidates`.
    """

    __slots__ = ("k", "_parts", "_heap")

    def __init__(self, k: int) -> None:
        self.k = k
        self._parts: List[Tuple[np.ndarray, Sequence[float]]] = []
        self._heap: List[float] = []  # negated: a max-heap of the best k

    def update(self, ids: np.ndarray, scores: Sequence[float]) -> None:
        self._parts.append((np.asarray(ids, dtype=np.int64), scores))
        heap, k = self._heap, self.k
        for value in scores:  # ascending within a part: break early
            if len(heap) < k:
                heapq.heappush(heap, -value)
            elif value < -heap[0]:
                heapq.heapreplace(heap, -value)
            else:
                break

    @property
    def threshold(self) -> Optional[float]:
        """The k-th-best score, or ``None`` while fewer than k exist."""
        if len(self._heap) < self.k:
            return None
        return -self._heap[0]

    def result(self) -> TopKResult:
        ranking, scores = merge_candidates(self._parts, self.k)
        return TopKResult(ranking, scores)


@dataclass
class ProximityGraph:
    """Degree-bounded exact-KNN lists + implicit tree backbone.

    ``knn_ids``/``knn_dists`` are ``(n, m)`` arrays with
    ``m = min(max_degree, n-1)`` — every node stores exactly its m
    nearest rows, nearest first.  The graph holds references to the
    ``vectors``/``sq_norms`` it indexes, so a graph object is a
    self-consistent snapshot: a beam never mixes neighbor lists from
    one database state with vectors from another.
    """

    vectors: np.ndarray
    sq_norms: np.ndarray
    knn_ids: np.ndarray
    knn_dists: np.ndarray
    max_degree: int = DEFAULT_MAX_DEGREE

    #: Lazily-derived capped reverse adjacency (see :meth:`_reverse`).
    #: Never persisted or compared — maintenance returns fresh graph
    #: objects, so a cache can never go stale.
    _rev: Optional[List[np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    #: Full KNN constructions (class-wide) — the cold-start and
    #: incremental-maintenance tests pin "no rebuild" against this.
    builds: ClassVar[int] = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        max_degree: int = DEFAULT_MAX_DEGREE,
        backend=None,
    ) -> "ProximityGraph":
        """Build the canonical graph over ``vectors`` from scratch."""
        if max_degree < 1:
            raise QueryError("max_degree must be >= 1")
        backend = _resolve(backend)
        vectors = np.asarray(vectors, dtype=float)
        n, p = vectors.shape
        sq = _sq_norms(vectors)
        m = min(max_degree, max(n - 1, 0))
        knn_ids = np.empty((n, m), dtype=np.int64)
        knn_dists = np.empty((n, m), dtype=float)
        for lo in range(0, n, _BUILD_CHUNK):
            hi = min(lo + _BUILD_CHUNK, n)
            block = backend.distance_block(vectors[lo:hi], vectors, sq, p)
            for r in range(hi - lo):
                row = np.asarray(block[r], dtype=float).copy()
                row[lo + r] = np.inf  # never self-link
                ids, dists = _row_select(np.arange(n), row, m)
                knn_ids[lo + r] = ids
                knn_dists[lo + r] = dists
        cls.builds += 1
        return cls(vectors, sq, knn_ids, knn_dists, max_degree)

    @property
    def num_rows(self) -> int:
        return self.knn_ids.shape[0]

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def _reverse(self) -> List[np.ndarray]:
        """Capped in-neighbor lists, derived from the stored tables.

        Node ``j``'s entry holds the ``2 * max_degree`` smallest ids
        among the rows that list ``j`` — a pure function of
        ``knn_ids``, so it needs no persistence, no maintenance, and
        cannot disagree between a maintained and a scratch-built graph.
        The cap bounds the per-hop fan-out where many rows share one
        popular neighbor (near-duplicate clumps).
        """
        if self._rev is None:
            n, m = self.knn_ids.shape
            cap = 2 * self.max_degree
            if m == 0:
                self._rev = [
                    np.empty(0, dtype=np.int64) for _ in range(n)
                ]
            else:
                dst = self.knn_ids.ravel()
                src = np.repeat(np.arange(n, dtype=np.int64), m)
                order = np.argsort(dst, kind="stable")
                dst_sorted, src_sorted = dst[order], src[order]
                starts = np.searchsorted(dst_sorted, np.arange(n + 1))
                self._rev = [
                    np.sort(src_sorted[starts[j] : starts[j + 1]])[:cap]
                    for j in range(n)
                ]
        return self._rev

    def neighbors(self, node: int) -> np.ndarray:
        """Undirected adjacency of ``node``: stored KNN out-links, the
        derived (capped) in-links, and the implicit tree backbone."""
        n = self.num_rows
        tree = []
        if node > 0:
            tree.append((node - 1) // 2)
        left, right = 2 * node + 1, 2 * node + 2
        if left < n:
            tree.append(left)
        if right < n:
            tree.append(right)
        return np.unique(
            np.concatenate(
                [
                    self.knn_ids[node],
                    self._reverse()[node],
                    np.asarray(tree, dtype=np.int64),
                ]
            )
        )

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(
        self,
        query: np.ndarray,
        k: int,
        ef: int,
        backend=None,
    ) -> Tuple[List[int], List[float], int, int]:
        """Best-first beam; returns ``(ranking, scores, hops, evals)``.

        ``hops`` counts expanded nodes, ``evals`` distance evaluations —
        the per-response stats the serving trace reports (the ledger's
        ``proximity.hops_per_query`` / ``service.graph_evals_per_query``).
        """
        n = self.num_rows
        if n == 0:
            return [], [], 0, 0
        backend = _resolve(backend)
        k = min(int(k), n)
        ef = max(int(ef), k)
        q = np.asarray(query, dtype=float)[None, :]
        p = self.vectors.shape[1]
        visited = np.zeros(n, dtype=bool)
        tracker = RunningTopK(ef)
        candidates: List[Tuple[float, int]] = []
        evals = 0
        hops = 0

        def evaluate(ids: np.ndarray) -> None:
            nonlocal evals
            dists = np.asarray(
                backend.distance_block(
                    q, self.vectors[ids], self.sq_norms[ids], p
                )[0],
                dtype=float,
            )
            evals += ids.size
            order = np.lexsort((ids, dists))
            ids, dists = ids[order], dists[order]
            tracker.update(ids, [float(d) for d in dists])
            for d, i in zip(dists, ids):
                heapq.heappush(candidates, (float(d), int(i)))

        entries = _entry_points(n)
        visited[entries] = True
        evaluate(entries)
        while candidates:
            dist, node = heapq.heappop(candidates)
            threshold = tracker.threshold
            # Strict-improvement termination: a candidate merely *tied*
            # with the ef-th best cannot improve the tracker, and on
            # the discrete distances binary embeddings produce, whole
            # plateaus of such ties exist (duplicate rows); expanding
            # them would burn evaluations on their tree links for
            # nothing.
            if threshold is not None and dist >= threshold:
                break
            hops += 1
            fresh = self.neighbors(node)
            fresh = fresh[~visited[fresh]]
            if fresh.size:
                visited[fresh] = True
                evaluate(fresh)
        full = tracker.result()
        return full.ranking[:k], full.scores[:k], hops, evals

    # ------------------------------------------------------------------
    # exact incremental maintenance
    # ------------------------------------------------------------------
    def with_appended(
        self, vectors_after: np.ndarray, backend=None
    ) -> "ProximityGraph":
        """Graph over ``vectors_after`` whose first rows are this graph's.

        One kernel block of the new rows against everything links the
        arrivals; an existing list is re-selected from (old list ∪ new
        rows), which provably contains its true new top-m: either the
        old list was full at ``max_degree`` (so any displaced entry is
        displaced by a new row), or it already held *every* old row.
        The result equals :meth:`build` on ``vectors_after``, bit for
        bit, without the O(n²) rebuild.
        """
        backend = _resolve(backend)
        vectors_after = np.asarray(vectors_after, dtype=float)
        n_old = self.num_rows
        n_new, p = vectors_after.shape
        added = n_new - n_old
        if added <= 0:
            raise QueryError("with_appended expects strictly more rows")
        sq = _sq_norms(vectors_after)
        m = min(self.max_degree, n_new - 1)
        new_ids = np.arange(n_old, n_new, dtype=np.int64)
        dmat = np.asarray(
            backend.distance_block(
                vectors_after[n_old:], vectors_after, sq, p
            ),
            dtype=float,
        ).copy()
        dmat[np.arange(added), new_ids] = np.inf

        knn_ids = np.empty((n_new, m), dtype=np.int64)
        knn_dists = np.empty((n_new, m), dtype=float)
        all_ids = np.arange(n_new, dtype=np.int64)
        for r in range(added):
            ids, dists = _row_select(all_ids, dmat[r], m)
            knn_ids[n_old + r] = ids
            knn_dists[n_old + r] = dists

        new_cols = dmat[:, :n_old]  # distances new-row -> old-row
        m_old = self.knn_ids.shape[1]
        if m_old:
            # A full old list changes only if some new row strictly
            # beats its worst member (new ids are larger, so distance
            # ties keep the incumbent under the (distance, id) order).
            affected = np.flatnonzero(
                new_cols.min(axis=0) < self.knn_dists[:, -1]
            )
        else:
            affected = np.arange(n_old)
        if m > m_old:
            # The degree cap was not binding (every old list already
            # held all other old rows), so growing lists just means
            # merging in the arrivals — still exact.
            affected = np.arange(n_old)
            keep = np.empty(0, dtype=np.int64)
        else:
            keep = np.setdiff1d(np.arange(n_old), affected)
        if keep.size:
            knn_ids[keep, :] = self.knn_ids[keep]
            knn_dists[keep, :] = self.knn_dists[keep]
        for j in affected:
            ids = np.concatenate([self.knn_ids[j], new_ids])
            dists = np.concatenate([self.knn_dists[j], new_cols[:, j]])
            knn_ids[j], knn_dists[j] = _row_select(ids, dists, m)
        return ProximityGraph(
            vectors_after, sq, knn_ids, knn_dists, self.max_degree
        )

    def with_removed(
        self,
        removed: np.ndarray,
        vectors_after: np.ndarray,
        backend=None,
    ) -> "ProximityGraph":
        """Graph over the surviving rows after dropping ``removed``.

        Repair is local: only lists that lost a member are recomputed
        (their true top-m may now include a row outside the old list);
        every other list just renumbers its ids and, if the database
        shrank below the degree cap, truncates — its stored nearest-
        first prefix *is* the new top-m.  Equals :meth:`build` on the
        survivors, bit for bit.
        """
        backend = _resolve(backend)
        removed = np.asarray(sorted(int(i) for i in removed), dtype=np.int64)
        vectors_after = np.asarray(vectors_after, dtype=float)
        n_old = self.num_rows
        n_new, p = vectors_after.shape
        if n_new + removed.size != n_old:
            raise QueryError("with_removed: survivor count mismatch")
        sq = _sq_norms(vectors_after)
        m = min(self.max_degree, max(n_new - 1, 0))
        survivors = np.setdiff1d(
            np.arange(n_old, dtype=np.int64), removed
        )
        knn_ids = np.empty((n_new, m), dtype=np.int64)
        knn_dists = np.empty((n_new, m), dtype=float)
        if n_new == 0:
            return ProximityGraph(
                vectors_after, sq, knn_ids, knn_dists, self.max_degree
            )
        lost = (
            np.isin(self.knn_ids[survivors], removed).any(axis=1)
            if self.knn_ids.shape[1]
            else np.ones(n_new, dtype=bool)
        )
        intact = np.flatnonzero(~lost)
        if intact.size:
            old_rows = self.knn_ids[survivors[intact], :m]
            knn_ids[intact] = old_rows - np.searchsorted(removed, old_rows)
            knn_dists[intact] = self.knn_dists[survivors[intact], :m]
        repair = np.flatnonzero(lost)
        all_ids = np.arange(n_new, dtype=np.int64)
        for lo in range(0, repair.size, _BUILD_CHUNK):
            chunk = repair[lo : lo + _BUILD_CHUNK]
            block = np.asarray(
                backend.distance_block(
                    vectors_after[chunk], vectors_after, sq, p
                ),
                dtype=float,
            ).copy()
            block[np.arange(chunk.size), chunk] = np.inf
            for r, j in enumerate(chunk):
                knn_ids[j], knn_dists[j] = _row_select(all_ids, block[r], m)
        return ProximityGraph(
            vectors_after, sq, knn_ids, knn_dists, self.max_degree
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe structure for the v3 manifest section.

        Only the neighbor ids are stored — distances are re-derived
        from the vectors on restore (exact on the binary embedding),
        and the tree backbone is implicit in the row count.
        """
        return {
            "max_degree": int(self.max_degree),
            "neighbors": [[int(i) for i in row] for row in self.knn_ids],
        }

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, Any],
        vectors: np.ndarray,
        backend=None,
    ) -> "ProximityGraph":
        """Re-attach a persisted neighbor table to its vectors.

        Costs one gather + one ``(n, m)`` paired-distance pass — no KNN
        rebuild (``builds`` is not bumped; the cold-start test pins
        this).  Structural problems raise :class:`QueryError`; the
        artifact layer turns them into a loud corruption failure since
        the section is checksummed.
        """
        vectors = np.asarray(vectors, dtype=float)
        n, p = vectors.shape
        max_degree = payload.get("max_degree")
        if not isinstance(max_degree, int) or max_degree < 1:
            raise QueryError("proximity payload: bad max_degree")
        m = min(max_degree, max(n - 1, 0))
        try:
            knn_ids = np.asarray(payload["neighbors"], dtype=np.int64)
        except (KeyError, TypeError, ValueError) as exc:
            raise QueryError(f"proximity payload: bad neighbors: {exc}")
        if knn_ids.shape != (n, m):
            raise QueryError(
                f"proximity payload: neighbor table is "
                f"{knn_ids.shape}, expected {(n, m)}"
            )
        if m:
            if knn_ids.min(initial=0) < 0 or knn_ids.max(initial=-1) >= n:
                raise QueryError("proximity payload: neighbor id out of range")
            if (knn_ids == np.arange(n, dtype=np.int64)[:, None]).any():
                raise QueryError("proximity payload: self-link")
            if m > 1 and any(
                np.unique(row).size != m for row in knn_ids
            ):
                raise QueryError("proximity payload: duplicate neighbor")
        sq = _sq_norms(vectors)
        if m:
            # Paired distances row-vs-each-listed-neighbor: exact
            # integers under the sqrt on binary embeddings, hence
            # bit-identical to the kernel rectangle that built them.
            dots = np.einsum("ij,ikj->ik", vectors, vectors[knn_ids])
            d2 = np.maximum(sq[:, None] + sq[knn_ids] - 2.0 * dots, 0.0)
            knn_dists = np.sqrt(d2 / p) if p else np.zeros_like(d2)
            # Stored order is untrusted: restore the canonical
            # nearest-first (distance, id) order per row.
            for j in range(n):
                knn_ids[j], knn_dists[j] = _row_select(
                    knn_ids[j], knn_dists[j], m
                )
        else:
            knn_dists = np.empty((n, 0), dtype=float)
        return cls(vectors, sq, knn_ids, knn_dists, max_degree)
