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
of ``(vectors, row numbering)``, made of four ingredients:

* **KNN lists** — node ``i``'s neighbor list is its exact
  ``min(max_degree, n-1)`` nearest rows under the same
  ``(distance, index)`` total order the rest of the query tier uses,
  selected for a whole block of rows at once by
  :func:`~repro.query.topk.rank_block`.
* **Capped reverse links** — expansion also follows a node's in-links
  (who lists it), derived on demand from the stored lists and capped at
  the ``2 * max_degree`` smallest ids.  Exact-KNN digraphs starve: a
  row nobody lists (common once a database holds near-duplicates —
  every duplicate's list is the same few smallest-id twins) is
  unreachable however long the beam runs.
* **Strided seeds** — the beam starts from ``~sqrt(n)`` evenly-strided
  rows (a function of ``n`` alone).  On clustered databases every KNN
  list is intra-cluster, so a single entry stalls in its own cluster;
  strided seeds land a few entries in every contiguous cluster and the
  beam contracts around the right one.
* **The reseed rule** — a frontier that runs dry before the beam holds
  ``ef`` candidates restarts from the smallest unvisited row, so an
  answer is always full-length and ``ef >= n`` is an exact scan.

Each is kept because it moves a count.  Ablated one at a time on the
``vector_mix`` ledger rows (4,000 clustered binary rows, its 512-query
pool, ``k = 10``, ``ef = 40``), recall@10 at distance evaluations per
query reads 0.954 at 240 with all four, 0.748 at 116 without the
reverse links and 0.118 at 146 without the strided seeds (one entry,
row 0).  An implicit binary-tree backbone (parent ``(i-1)//2``,
children ``2i+1``/``2i+2``) used to sit beside them: it bought 0.001
recall for 19 % more evaluations (0.955 at 284) — spending that work
on ``ef = 56`` instead reads 0.973 at 288 — and its one structural
job, connectivity, is the reseed rule's, which never fires on
``vector_mix``.

Because the structure is canonical, incremental maintenance can be
*exact*: appending rows needs one Hamming block of the new rows
against everything (an existing list changes only if a new row beats
its current worst, and the true new top-m is contained in the old
top-m plus the new rows); removing rows repairs only the lists that
lost a member.  Maintained and scratch-built graphs are therefore
equal arrays, not merely similar — ``apply_update`` churn keeps
graph-mode answers bit-identical to a rebuild, with no full KNN build
(``tests/test_proximity.py::TestChurnSoak``).  The reverse links, a
pure function of the stored lists, cost nothing in the manifest and
inherit that guarantee.

Search
------
:meth:`ProximityGraph.search` is a best-first beam with **no
candidate-insertion pruning**: every unvisited neighbor of an expanded
node is distance-evaluated.  The beam width ``ef`` enters only through
the two termination tests — stop when the best unexpanded candidate can
no longer *strictly improve* on the running ``ef``-th-best score (one
bounded heap of the ``ef`` best; ``dist >= threshold`` stops, so
plateaus of tied candidates — duplicate rows again — terminate instead
of being expanded one by one for nothing), and stop when the frontier
runs dry once ``ef`` candidates exist (before that, the reseed rule
restarts it).  Since neither the seeds, the expansion order (see
below) nor the reseed row (the smallest unvisited one) depends on
``ef``, the expansion sequence is identical for every ``ef`` and a
larger ``ef`` only runs it longer (its threshold at any step is no
smaller): the evaluated set grows monotonically with ``ef``, hence
recall is monotonically non-decreasing in ``ef`` (property-tested in
tier 1).

A row joins the frontier only if it beats the ``ef``-th-best score as
it stands.  Thresholds only fall, so a row that does not could only
have ended the search when popped, and whenever one is left out ``ef``
candidates exist, so a dry frontier ends the search at the same point:
hops and evaluations are those of pushing every row.

The graph holds its rows packed, never as floats: the
:func:`repro.kernels.pack_rows` bit planes the served scan reads.  On
0/1 rows a pair's squared distance is its Hamming count — the float
kernel's ``|q|^2 + |x|^2 - 2 q.x``, every term an exact integer — and
:func:`~repro.query.topk.score_table` maps a count to the kernel's own
``sqrt(d / p)``: the same bits.  So every distance the graph knows is
a count read through that table: a build's and a repair's blocks come
from :func:`repro.kernels.hamming_block`, an attach's paired
(row-vs-its-neighbor) counts from ``np.bitwise_count``, and a beam
scores each row it meets, seeds included, as ``(q ^ x).bit_count()``
over the row's bits held as one Python int.  That holds for 0/1 entries
only, so ``build``, ``from_payload``, ``with_appended`` and ``search``
refuse anything else rather than answer wrong.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.query.topk import rank_block, score_table
from repro.utils.errors import QueryError

#: Default bound on stored (short-link) neighbors per node.
DEFAULT_MAX_DEGREE = 8

#: Rows per Hamming block during builds/repairs (bounds peak memory at
#: ``chunk * n`` counts without changing any distance value).
_BUILD_CHUNK = 256


def _packed(vectors) -> Tuple[np.ndarray, int]:
    """0/1 rows as (:func:`repro.kernels.pack_rows` planes, p), refused
    unless every entry is 0 or 1: the graph's popcount distance is
    exact there and silently wrong anywhere else."""
    vectors = np.asarray(vectors)
    if not ((vectors == 0) | (vectors == 1)).all():
        raise QueryError("the proximity graph takes 0/1 vectors only")
    return kernels.pack_rows(vectors), vectors.shape[1]


def _row_ints(planes: np.ndarray) -> List[int]:
    """Each packed row as one int: bit ``j`` is dimension ``j``."""
    rows = [0] * planes.shape[1]
    for plane in planes[::-1].tolist():
        rows = [(row << 64) | word for row, word in zip(rows, plane)]
    return rows


def _entry_points(n: int) -> np.ndarray:
    """The beam's seed rows: an evenly-strided ``~sqrt(n)`` sample.

    Pure function of ``n``, so the search is canonical and the
    ef-monotonicity argument is untouched.
    """
    count = max(1, int(round(np.sqrt(n))))
    return np.unique(np.linspace(0, n - 1, num=count).astype(np.int64))


def _top_m(
    dists: np.ndarray, m: int, ids: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's ``m`` nearest candidates, nearest first under the
    (distance, id) order: ``(ids, dists)``, each ``(rows, m)``.

    Column ``c`` is candidate ``c`` itself, or ``ids[row, c]`` when
    *ids* is given (distinct within a row): the columns are then put in
    id order first, so :func:`rank_block`'s column tie-break is the id
    tie-break.
    """
    if ids is None:
        cols, vals = rank_block(dists, m)
        return cols.astype(np.int64), vals
    order = np.argsort(ids, axis=1)
    ids = np.take_along_axis(ids, order, axis=1)
    cols, vals = rank_block(np.take_along_axis(dists, order, axis=1), m)
    return np.take_along_axis(ids, cols, axis=1), vals


def _nearest(
    planes: np.ndarray, p: int, rows: np.ndarray, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The exact KNN lists of *rows* over every packed row: one Hamming
    block and one :func:`_top_m` per ``_BUILD_CHUNK`` rows, self-links
    excluded."""
    root = score_table(p)
    knn_ids = np.empty((rows.size, m), dtype=np.int64)
    knn_dists = np.empty((rows.size, m), dtype=float)
    for lo in range(0, rows.size, _BUILD_CHUNK):
        chunk = rows[lo : lo + _BUILD_CHUNK]
        block = root[kernels.hamming_block(planes[:, chunk], planes)]
        block[np.arange(chunk.size), chunk] = np.inf  # never self-link
        hi = lo + chunk.size
        knn_ids[lo:hi], knn_dists[lo:hi] = _top_m(block, m)
    return knn_ids, knn_dists


def check_payload(payload: Dict[str, Any], n: int) -> None:
    """Validate a persisted neighbor table for an ``n``-row database.

    Needs nothing but ``n`` (no vectors), so a loader can run it
    without touching the database.  Raises :class:`QueryError` on a
    ``max_degree`` that is not a positive JSON integer (``true`` is
    not 1: the :func:`repro.graph.io.is_wire_int` rule), a
    table that is not ``(n, min(max_degree, n-1))``, an id out of
    range, a self-link or a duplicate within a list.
    """
    max_degree = payload.get("max_degree")
    if (
        isinstance(max_degree, bool)
        or not isinstance(max_degree, int)
        or max_degree < 1
    ):
        raise QueryError("bad max_degree")
    m = min(max_degree, max(n - 1, 0))
    try:
        table = np.asarray(payload["neighbors"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise QueryError(f"unreadable neighbors: {exc}")
    if table.shape != (n, m):
        raise QueryError(
            f"neighbor table is {table.shape}, expected {(n, m)}"
        )
    if m:
        if table.min() < 0 or table.max() >= n:
            raise QueryError("neighbor id out of range")
        if (table == np.arange(n, dtype=np.int64)[:, None]).any():
            raise QueryError("self-link")
        ordered = np.sort(table, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise QueryError("duplicate neighbor")


@dataclass
class ProximityGraph:
    """Degree-bounded exact-KNN lists, traversed with their reverse links.

    ``knn_ids``/``knn_dists`` are ``(n, m)`` arrays with
    ``m = min(max_degree, n-1)`` — every node stores exactly its m
    nearest rows, nearest first.  The graph holds the ``planes`` (its
    ``p``-wide rows, packed) it indexes, so a graph object is a
    self-consistent snapshot: a beam never mixes neighbor lists from
    one database state with rows from another.
    """

    planes: np.ndarray
    p: int
    knn_ids: np.ndarray
    knn_dists: np.ndarray
    max_degree: int = DEFAULT_MAX_DEGREE

    #: Lazily-derived capped reverse adjacency (see :meth:`_reverse`).
    #: Never persisted or compared — maintenance returns fresh graph
    #: objects, so a cache can never go stale.
    _rev: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Lazily-derived beam inputs (see :meth:`_walk`); as above.
    _beam: Optional[Tuple[Any, ...]] = field(
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
    ) -> "ProximityGraph":
        """Build the canonical graph over ``vectors`` from scratch."""
        if max_degree < 1:
            raise QueryError("max_degree must be >= 1")
        planes, p = _packed(vectors)
        n = planes.shape[1]
        m = min(max_degree, max(n - 1, 0))
        knn_ids, knn_dists = _nearest(planes, p, np.arange(n), m)
        cls.builds += 1
        return cls(planes, p, knn_ids, knn_dists, max_degree)

    @property
    def num_rows(self) -> int:
        return self.knn_ids.shape[0]

    def _same_width(self, vectors) -> np.ndarray:
        """:func:`_packed` planes of rows as wide as the graph's."""
        planes, p = _packed(vectors)
        if p != self.p:
            raise QueryError(f"rows must have {self.p} dimensions, got {p}")
        return planes

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def _reverse(self) -> Tuple[np.ndarray, np.ndarray]:
        """Capped in-neighbor lists as ``(offsets, ids)``: node ``j``'s
        are ``ids[offsets[j]:offsets[j + 1]]``, ascending.

        Node ``j``'s list holds the ``2 * max_degree`` smallest ids
        among the rows that list ``j`` — a pure function of
        ``knn_ids``, so it needs no persistence, no maintenance, and
        cannot disagree between a maintained and a scratch-built graph.
        The cap bounds the per-hop fan-out where many rows share one
        popular neighbor (near-duplicate clumps).
        """
        if self._rev is None:
            n, m = self.knn_ids.shape
            cap = 2 * self.max_degree
            dst = self.knn_ids.ravel()
            # A stable sort by target keeps each target's sources in
            # ascending row order, so the first `cap` are the smallest.
            order = np.argsort(dst, kind="stable")
            dst = dst[order]
            src = np.repeat(np.arange(n, dtype=np.int64), m)[order]
            counts = np.bincount(dst, minlength=n)
            starts = np.concatenate(([0], np.cumsum(counts)))
            keep = np.arange(dst.size) - starts[dst] < cap
            offsets = np.concatenate(
                ([0], np.cumsum(np.minimum(counts, cap)))
            )
            self._rev = (offsets, src[keep])
        return self._rev

    def _walk(self) -> Tuple[np.ndarray, List[int], List[float], list]:
        """What a beam reads, derived once per graph object: the seed
        rows, every row's :func:`_row_ints`, the :func:`score_table` of
        every Hamming distance ``d`` (the kernel's own formula) and each
        node's adjacency — its out-links, then its capped in-links; a
        node that both lists and is listed by another holds it twice,
        and the beam's visited check drops the second."""
        if self._beam is None:
            root = score_table(self.p)
            offsets, rev = self._reverse()
            # One int object per row, shared by every list that holds
            # it: a list costs its pointers, not fresh ints (~1 MB less
            # at 4,000 rows).
            ids = np.arange(self.num_rows).astype(object)
            offsets, rev = offsets.tolist(), ids[rev].tolist()
            adjacency = [
                out + rev[lo:hi]
                for out, lo, hi in zip(
                    ids[self.knn_ids].tolist(), offsets, offsets[1:]
                )
            ]
            seeds = _entry_points(self.num_rows)
            self._beam = (
                seeds, _row_ints(self.planes), root.tolist(), adjacency
            )
        return self._beam

    def neighbors(self, node: int) -> np.ndarray:
        """Undirected adjacency of ``node``, ascending: its stored KNN
        out-links and the derived (capped) in-links."""
        return np.unique(self._walk()[3][node])

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
        A frontier that runs dry while fewer than ``ef`` candidates
        exist reseeds from the smallest unvisited row, so the answer
        always holds ``min(k, n)`` rows and ``ef >= n`` evaluates every
        row once: an exact scan.  A query that is not 0/1 raises
        :class:`QueryError`.

        ``backend`` is ignored.  It is a hold: ``bench/layers.py`` still
        passes the object :func:`repro.kernels.active_backend` returns,
        and the parameter goes with ROADMAP item 1.
        """
        n = self.num_rows
        if n == 0:
            return [], [], 0, 0
        k = min(int(k), n)
        ef = max(int(ef), k)
        seeds, rows, root, adjacency = self._walk()
        bits = _row_ints(self._same_width(np.asarray(query)[None, :]))[0]
        visited = bytearray(n)
        best: List[float] = []  # negated: a max-heap of the ef best
        frontier: List[Tuple[float, int]] = []
        evaluated: List[Tuple[float, int]] = []

        def admit(dist: float, row: int) -> None:
            visited[row] = 1
            evaluated.append((dist, row))
            if len(best) < ef:
                heapq.heappush(best, -dist)
            elif dist < -best[0]:
                heapq.heapreplace(best, -dist)
            else:
                return  # it could only ever end the search
            heapq.heappush(frontier, (dist, row))

        for row in seeds.tolist():
            admit(root[(bits ^ rows[row]).bit_count()], row)
        hops = 0
        while True:
            if not frontier:
                # The frontier ran dry inside one component: reseed
                # from the smallest unvisited row while fewer than ef
                # candidates exist.
                row = visited.find(0)
                if len(best) == ef or row < 0:
                    break
                admit(root[(bits ^ rows[row]).bit_count()], row)
                continue
            dist, node = heapq.heappop(frontier)
            # Strict-improvement termination: a candidate merely *tied*
            # with the ef-th best cannot improve it, and on the
            # discrete distances binary embeddings produce, whole
            # plateaus of such ties exist (duplicate rows); expanding
            # them would burn evaluations for nothing.
            if len(best) == ef and dist >= -best[0]:
                break
            hops += 1
            for row in adjacency[node]:
                if not visited[row]:
                    admit(root[(bits ^ rows[row]).bit_count()], row)
        scores, ranking = map(list, zip(*heapq.nsmallest(k, evaluated)))
        return ranking, scores, hops, len(evaluated)

    # ------------------------------------------------------------------
    # exact incremental maintenance
    # ------------------------------------------------------------------
    def with_appended(self, vectors_after: np.ndarray) -> "ProximityGraph":
        """Graph over ``vectors_after`` whose first rows are this graph's.

        One Hamming block of the new rows against everything links the
        arrivals; an existing list is re-selected from (old list ∪ new
        rows), which provably contains its true new top-m: either the
        old list was full at ``max_degree`` (so any displaced entry is
        displaced by a new row), or it already held *every* old row.
        The result equals :meth:`build` on ``vectors_after``, bit for
        bit, without the O(n²) rebuild.
        """
        n_old = self.num_rows
        n_new = len(vectors_after)
        added = n_new - n_old
        if added <= 0:
            raise QueryError("with_appended expects strictly more rows")
        arrivals = self._same_width(vectors_after[n_old:])
        planes = np.concatenate([self.planes, arrivals], axis=1)
        m = min(self.max_degree, n_new - 1)
        new_ids = np.arange(n_old, n_new, dtype=np.int64)
        dmat = score_table(self.p)[kernels.hamming_block(arrivals, planes)]
        dmat[np.arange(added), new_ids] = np.inf

        knn_ids = np.empty((n_new, m), dtype=np.int64)
        knn_dists = np.empty((n_new, m), dtype=float)
        knn_ids[n_old:], knn_dists[n_old:] = _top_m(dmat, m)

        new_cols = dmat[:, :n_old]  # distances new-row -> old-row
        m_old = self.knn_ids.shape[1]
        if m > m_old or not m_old:
            # The degree cap was not binding (every old list already
            # held all other old rows), so growing lists just means
            # merging in the arrivals — still exact.
            affected = np.arange(n_old)
        else:
            # A full old list changes only if some new row strictly
            # beats its worst member (new ids are larger, so distance
            # ties keep the incumbent under the (distance, id) order).
            knn_ids[:n_old], knn_dists[:n_old] = self.knn_ids, self.knn_dists
            affected = np.flatnonzero(
                new_cols.min(axis=0) < self.knn_dists[:, -1]
            )
        if affected.size:
            ids = np.hstack([
                self.knn_ids[affected],
                np.broadcast_to(new_ids, (affected.size, added)),
            ])
            dists = np.hstack(
                [self.knn_dists[affected], new_cols[:, affected].T]
            )
            knn_ids[affected], knn_dists[affected] = _top_m(dists, m, ids)
        return ProximityGraph(
            planes, self.p, knn_ids, knn_dists, self.max_degree
        )

    def with_removed(
        self,
        removed: np.ndarray,
        vectors_after: np.ndarray,
    ) -> "ProximityGraph":
        """Graph over the surviving rows after dropping ``removed``.

        Repair is local: only lists that lost a member are recomputed
        (their true top-m may now include a row outside the old list);
        every other list just renumbers its ids and, if the database
        shrank below the degree cap, truncates — its stored nearest-
        first prefix *is* the new top-m.  Equals :meth:`build` on the
        survivors, bit for bit.  Only ``vectors_after``'s row count is
        read: the survivors' rows are this graph's own planes.
        """
        removed = np.asarray(sorted(int(i) for i in removed), dtype=np.int64)
        n_old = self.num_rows
        n_new = len(vectors_after)
        if n_new + removed.size != n_old:
            raise QueryError("with_removed: survivor count mismatch")
        m = min(self.max_degree, max(n_new - 1, 0))
        survivors = np.setdiff1d(
            np.arange(n_old, dtype=np.int64), removed
        )
        planes = self.planes[:, survivors]
        knn_ids = np.empty((n_new, m), dtype=np.int64)
        knn_dists = np.empty((n_new, m), dtype=float)
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
        knn_ids[repair], knn_dists[repair] = _nearest(
            planes, self.p, repair, m
        )
        return ProximityGraph(
            planes, self.p, knn_ids, knn_dists, self.max_degree
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe structure for the manifest section.

        Only the neighbor ids are stored — distances are re-derived
        from the rows on restore (exact on the binary embedding).
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
    ) -> "ProximityGraph":
        """Re-attach a persisted neighbor table to its rows.

        Costs one gather + one ``(n, m)`` paired-popcount pass — no KNN
        rebuild (``builds`` is not bumped; the cold-start test pins
        this).  The table is trusted: the artifact loader has passed it
        through :func:`check_payload`, turning any failure into a loud
        corruption error.
        """
        planes, p = _packed(vectors)
        n = planes.shape[1]
        max_degree = payload["max_degree"]
        m = min(max_degree, max(n - 1, 0))
        knn_ids = np.asarray(payload["neighbors"], dtype=np.int64)
        knn_ids = knn_ids.reshape(n, m)
        # Paired counts row-vs-each-listed-neighbor, through the table
        # the build's blocks read: the same bits.
        counts = np.zeros((n, m), dtype=np.int64)
        for plane in planes:
            counts += np.bitwise_count(plane[:, None] ^ plane[knn_ids])
        # Stored order is untrusted: restore the canonical nearest-first
        # (distance, id) order per row.
        knn_ids, knn_dists = _top_m(score_table(p)[counts], m, knn_ids)
        return cls(planes, p, knn_ids, knn_dists, max_degree)
