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

Both produce a :class:`TopKResult` with deterministic tie-breaking
(by distance, then database index), so measures are reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapping import DSPreservedMapping
from repro.graph.labeled_graph import LabeledGraph
from repro.similarity.dissimilarity import DissimilarityCache
from repro.utils.errors import QueryError


@dataclass
class TopKResult:
    """A ranked answer list plus timing breakdown.

    Attributes
    ----------
    ranking:
        Database indices, best (smallest distance) first, length k.
    scores:
        The distance/dissimilarity of each ranked entry.
    mapping_seconds:
        Time spent turning the query into a vector (VF2 feature
        matching); 0 for the exact engine.
    search_seconds:
        Time spent scanning/ranking.
    """

    ranking: List[int]
    scores: List[float]
    mapping_seconds: float = 0.0
    search_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.mapping_seconds + self.search_seconds


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


#: Id of an empty :class:`BlockTopK` slot: sorts after every real row.
_EMPTY_ID = 2.0**62


class BlockTopK:
    """A whole batch's best-k candidates across visited shards.

    One ``[nq, k]`` array of :func:`_pair_keys`, rows sorted, empty
    slots ``(+inf, _EMPTY_ID)`` last — so :attr:`thresholds`, the
    running k-th-best of every query, is its last column (+inf below k
    candidates: no finite bound clears it).  :meth:`absorb` is one
    row-wise sort in :func:`merge_candidates`' order; top-k selection
    under a total order is associative, so absorbing shards in any
    visit order equals merging every visited part at once, ties
    included.  Scores must not be NaN (distances never are).
    """

    __slots__ = ("k", "_keys")

    def __init__(self, nq: int, k: int) -> None:
        self.k = k
        self._keys = np.full((nq, k), complex(np.inf, _EMPTY_ID))

    @property
    def thresholds(self) -> np.ndarray:
        return self._keys.real[:, -1]  # a live view

    def absorb(
        self, active: np.ndarray, ids: np.ndarray, scores: np.ndarray
    ) -> None:
        """Merge ``[len(active), k']`` candidates into the *active* rows."""
        keys = np.concatenate(
            (self._keys[active], _pair_keys(scores, ids)), axis=1
        )
        keys.sort(axis=1)
        self._keys[active] = keys[:, : self.k]

    def results(self) -> List[TopKResult]:
        ids, scores = self._keys.imag, self._keys.real
        held = (ids < _EMPTY_ID).sum(axis=1).tolist()
        return [
            TopKResult(ranking[:m], row[:m])
            for ranking, row, m in zip(
                ids.astype(np.int64).tolist(), scores.tolist(), held
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
        start = time.perf_counter()
        values = np.array([self.cache(q, g) for g in self.database])
        ranking, scores = rank_with_ties(values, k)
        return TopKResult(
            ranking, scores, search_seconds=time.perf_counter() - start
        )

    def query_from_row(self, delta_row: np.ndarray, k: int) -> TopKResult:
        """Rank a precomputed dissimilarity row (experiment fast path)."""
        k = _check_k(k, len(delta_row))
        start = time.perf_counter()
        ranking, scores = rank_with_ties(np.asarray(delta_row, dtype=float), k)
        return TopKResult(
            ranking, scores, search_seconds=time.perf_counter() - start
        )


class MappedTopKEngine:
    """Top-k in the mapped feature space (the online path of the paper)."""

    def __init__(self, mapping: DSPreservedMapping) -> None:
        self.mapping = mapping

    def query(self, q: LabeledGraph, k: int) -> TopKResult:
        k = _check_k(k, self.mapping.database_vectors.shape[0])
        start = time.perf_counter()
        vector = self.mapping.map_query(q)
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

    def query_from_vector(self, vector: np.ndarray, k: int) -> TopKResult:
        """Rank a pre-mapped query vector (experiment fast path)."""
        k = _check_k(k, self.mapping.database_vectors.shape[0])
        start = time.perf_counter()
        distances = self.mapping.query_distances(
            np.asarray(vector, dtype=float)[None, :]
        )[0]
        ranking, scores = rank_with_ties(distances, k)
        return TopKResult(
            ranking, scores, search_seconds=time.perf_counter() - start
        )
