"""Top-k similarity query processing.

Two engines, matching the paper's evaluation protocol:

* :class:`ExactTopKEngine` — the ground truth: ranks the database by the
  MCS-based graph dissimilarity δ (NP-hard per candidate, hence the
  paper's "3–5 orders of magnitude" slowdown).
* :class:`MappedTopKEngine` — maps the query into the selected feature
  space (VF2 feature matching) and linearly scans the mapped vectors by
  normalised Euclidean distance, exactly as the paper evaluates all
  selectors ("we sequentially scan all vectors in the mapped
  multidimensional space").

Both produce a :class:`TopKResult` — a ranking and its scores, with
deterministic tie-breaking (by distance, then database index), so
measures are reproducible.  An answer carries no clock: a caller that
wants a duration times the call it makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapping import DSPreservedMapping
from repro.graph.labeled_graph import LabeledGraph
from repro.similarity.dissimilarity import DissimilarityCache
from repro.utils.errors import QueryError


@dataclass
class TopKResult:
    """A ranked answer list.

    Attributes
    ----------
    ranking:
        Database indices, best (smallest distance) first, length k.
    scores:
        The distance/dissimilarity of each ranked entry.
    """

    ranking: List[int]
    scores: List[float]


def _check_k(k: int, n: int) -> int:
    if k < 1:
        raise QueryError("k must be >= 1")
    return min(k, n)


def _pair_keys(scores: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``(score, id)`` pairs as one sortable array, ``score + id·j``:
    numpy orders complex numbers by real part, then imaginary, NaN last
    — the (score, index) total order every ranking here uses — so
    ``sort`` / ``partition`` on these keys need no tie handling at all.
    Ids are exact below 2**53."""
    keys = np.empty(scores.shape, dtype=complex)
    keys.real, keys.imag = scores, ids
    return keys


def rank_block(
    distances: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise smallest-k of a ``[nq, n]`` block: ``(cols, vals)``,
    each ``[nq, min(k, n)]``, best first under the (value, index) order.

    A constant number of numpy calls whatever ``nq`` is, linear in
    ``n``: a float ``partition`` finds each row's k-th value, columns
    above *every* row's k-th value are dropped (they are in nobody's
    answer; a NaN k-th value drops nothing for its row), and only the
    surviving columns are ranked as :func:`_pair_keys`.
    """
    distances = np.asarray(distances)
    n = distances.shape[1]
    k = max(min(k, n), 0)
    cols = np.arange(n)
    if 0 < k < n:
        cut = np.partition(distances, k - 1, axis=1)[:, k - 1 : k]
        cols = np.flatnonzero(~(distances > cut).all(axis=0))
        distances = distances[:, cols]
    keys = _pair_keys(distances, cols)
    if 0 < k < cols.size:
        keys = np.partition(keys, k - 1, axis=1)
    keys = np.sort(keys[:, :k], axis=1)
    return keys.imag.astype(np.intp), keys.real


def rank_with_ties(values: np.ndarray, k: int) -> Tuple[List[int], List[float]]:
    """Smallest-k indices of *values* with (value, index) tie-breaking:
    the one-row view of :func:`rank_block`."""
    cols, vals = rank_block(np.asarray(values)[None, :], k)
    return cols[0].tolist(), vals[0].tolist()


def merge_candidates(
    parts: Sequence[Tuple[np.ndarray, Sequence[float]]], k: int
) -> Tuple[List[int], List[float]]:
    """Re-rank ``(indices, scores)`` candidate lists, k best kept.

    Exactly the tie-breaking of :func:`rank_with_ties` — ascending
    score, then ascending database index — so merging shard-local
    top-k lists (in any grouping or order) equals the single-scan
    answer.  This is what makes the bound-aware running merge exact:
    ``merge(merge(A, B), C) == merge(A, B, C)`` for top-k selection
    under a total order.
    """
    if not parts:
        return [], []
    idx = np.concatenate(
        [np.asarray(ids, dtype=np.int64) for ids, _ in parts]
    )
    vals = np.concatenate(
        [np.asarray(scores, dtype=float) for _, scores in parts]
    )
    order = np.lexsort((idx, vals))[:k]
    return idx[order].tolist(), vals[order].tolist()


def score_table(p: int) -> np.ndarray:
    """``sqrt(d / p)`` for every Hamming count ``d`` in ``0..p``.

    On 0/1 vectors ``d`` bits apart this is
    :func:`repro.kernels.distance_block`'s distance to the bit (the
    same float division, then the same square root), and all zeros at
    ``p == 0`` as there.  It is strictly increasing in ``d``, so the
    (count, row) order is the (score, row) order.
    """
    return np.sqrt(np.arange(p + 1) / p) if p else np.zeros(1)


#: Low bits of a top-k key: the global row id below the Hamming count.
ROW_BITS = 32
_ROW_MASK = (1 << ROW_BITS) - 1


def rank_counts(counts: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Row-wise best-k of a ``[nq, n]`` Hamming block as top-k keys.

    Column ``c`` of *counts* is global row ``ids[c]``; for ``k >= 1``
    the result is ``[nq, min(k, n)]`` int64 keys ``count << 32 | row``,
    ascending.  Keys are distinct, so one integer ``partition`` and one
    sort of the k survivors select under the (distance, row) order with
    no tie handling.
    """
    keys = np.asarray(counts, dtype=np.int64) << ROW_BITS
    keys |= ids
    if 0 < k < keys.shape[1]:
        keys = np.partition(keys, k - 1, axis=1)[:, :k]
    keys.sort(axis=1)
    return keys


class BlockTopK:
    """A whole batch's best-k candidates across visited shards.

    One ``[nq, k]`` array of :func:`rank_counts` keys, rows sorted,
    empty slots last: their key is count ``p + 1``, which no real row
    reaches.  :meth:`absorb` is one row-wise sort of integers; top-k
    selection under a total order is associative, so absorbing shards
    in any visit order equals ranking every visited row at once, ties
    included.  Counts turn into scores through :func:`score_table` only
    in :attr:`thresholds` and :meth:`results`.
    """

    __slots__ = ("k", "_keys", "_scores")

    def __init__(self, nq: int, k: int, p: int) -> None:
        self.k = k
        self._keys = np.full(
            (nq, k), ((p + 1) << ROW_BITS) | _ROW_MASK, dtype=np.int64
        )
        # The empty slot's count p + 1 scores +inf.
        self._scores = np.append(score_table(p), np.inf)

    @property
    def thresholds(self) -> np.ndarray:
        """Every query's running k-th-best score: +inf below k
        candidates, so no finite bound clears it."""
        return self._scores[self._keys[:, -1] >> ROW_BITS]

    def absorb(self, active: np.ndarray, keys: np.ndarray) -> None:
        """Merge ``[len(active), k']`` keys into the *active* rows."""
        merged = np.concatenate((self._keys[active], keys), axis=1)
        merged.sort(axis=1)
        self._keys[active] = merged[:, : self.k]

    def results(self) -> List[TopKResult]:
        counts = self._keys >> ROW_BITS
        held = (counts < len(self._scores) - 1).sum(axis=1).tolist()
        ids = (self._keys & _ROW_MASK).tolist()
        return [
            TopKResult(ranking[:m], row[:m])
            for ranking, row, m in zip(
                ids, self._scores[counts].tolist(), held
            )
        ]


class ExactTopKEngine:
    """Ground-truth top-k by graph dissimilarity (shared MCS cache)."""

    def __init__(
        self,
        database: Sequence[LabeledGraph],
        dissimilarity: Optional[DissimilarityCache] = None,
    ) -> None:
        self.database = list(database)
        self.cache = dissimilarity or DissimilarityCache()

    def query(self, q: LabeledGraph, k: int) -> TopKResult:
        k = _check_k(k, len(self.database))
        values = np.array([self.cache(q, g) for g in self.database])
        return TopKResult(*rank_with_ties(values, k))

    def query_from_row(self, delta_row: np.ndarray, k: int) -> TopKResult:
        """Rank a precomputed dissimilarity row (experiment fast path)."""
        k = _check_k(k, len(delta_row))
        return TopKResult(
            *rank_with_ties(np.asarray(delta_row, dtype=float), k)
        )


class MappedTopKEngine:
    """Top-k in the mapped feature space (the online path of the paper)."""

    def __init__(self, mapping: DSPreservedMapping) -> None:
        self.mapping = mapping

    def query(self, q: LabeledGraph, k: int) -> TopKResult:
        k = _check_k(k, self.mapping.space.n)
        vector = self.mapping.map_query(q)
        distances = self.mapping.query_distances(vector[None, :])[0]
        return TopKResult(*rank_with_ties(distances, k))

    def query_from_vector(self, vector: np.ndarray, k: int) -> TopKResult:
        """Rank a pre-mapped query vector (experiment fast path)."""
        k = _check_k(k, self.mapping.space.n)
        distances = self.mapping.query_distances(
            np.asarray(vector, dtype=float)[None, :]
        )[0]
        return TopKResult(*rank_with_ties(distances, k))
