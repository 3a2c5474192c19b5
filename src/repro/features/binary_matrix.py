"""The feature space ``F`` and φ over it.

Section 4.2 / 5.1.2 of the paper work with:

* the binary incidence ``y_ir = 1 iff f_r ⊆ g_i`` (an ``n × m`` matrix),
* the inverted list ``IF_r  = {g_i | f_r ⊆ g_i}`` per feature, and
* the inverted list ``IG_i = {f_r | f_r ⊆ g_i}`` per graph.

All three are one object here: a packed ``[m, ceil(n / 64)]`` ``uint64``
bit matrix whose row ``r`` is ``IF_r`` (graph ``i`` at bit ``i % 64`` of
word ``i // 64``).  A support count is a popcount, and the incidence,
a feature's support set and a mapping's float rows are views built from
it on demand.

For database graphs the matrix comes *for free* from the miner's support
sets — no isomorphism tests are run.  For unseen query graphs,
:meth:`FeatureSpace.embed_query` matches each feature with VF2 exactly as
the paper does (Exp-4 "feature matching time ... by the VF2 algorithm"),
with a cheap label-count pre-filter.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro import kernels
from repro.graph.labeled_graph import LabeledGraph
from repro.isomorphism.vf2 import PatternProfile, TargetProfile, is_subgraph
from repro.mining.gspan import FrequentSubgraph
from repro.utils.errors import SelectionError


def _unpack(matrix: np.ndarray, n: int) -> np.ndarray:
    """Packed rows ``[r, words]`` as their first *n* bits, ``[r, n]`` 0/1."""
    return np.unpackbits(
        np.ascontiguousarray(matrix).view(np.uint8),
        axis=1,
        count=n,
        bitorder="little",
    )


def _popcounts(matrix: np.ndarray) -> np.ndarray:
    return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)


class FeatureSpace:
    """Candidate features mined from a database, and φ over them.

    The one owner of φ: :attr:`supports` is the packed bit matrix the
    module docstring describes, and :attr:`support_counts` its row
    popcounts.  The mutations edit bits.

    Parameters
    ----------
    features:
        The mined :class:`FrequentSubgraph` objects (the universe ``F``).
        Their support sets are read once, into the matrix; the space
        holds its own features, whose ``support`` is a view of it.
    database_size:
        ``n = |DG|``; support indices must lie in ``0..n-1``.
    supports, support_counts:
        The matrix itself, in place of the features' sets (the artifact
        loader's path), and its row popcounts.  *supports* may be a
        zero-argument callable that reads the matrix; it is then called
        by whatever first needs a bit, and *support_counts* must be
        given so that nothing before does.
    """

    def __init__(
        self,
        features: Sequence[FrequentSubgraph],
        database_size: int,
        supports=None,
        support_counts: Optional[Sequence[int]] = None,
    ) -> None:
        if not features:
            raise SelectionError("feature universe is empty — mine with lower support")
        self.n = database_size
        self.m = len(features)
        if supports is None:
            supports = self._pack_supports(features)
        self._supports = supports
        self.support_counts = (
            _popcounts(self.supports)
            if support_counts is None
            else np.asarray(support_counts, dtype=np.int64)
        )
        self.features: List[FrequentSubgraph] = [
            FrequentSubgraph(f.graph, partial(self.support, r), f.dfs_code)
            for r, f in enumerate(features)
        ]
        # Pattern-side VF2 invariants + match plan per feature, built on
        # first use (see :meth:`pattern_profile`).
        self._pattern_profiles: Dict[int, PatternProfile] = {}

    def _pack_supports(self, features: Sequence[FrequentSubgraph]):
        bits = np.zeros((self.m, self.n), dtype=bool)
        for r, feat in enumerate(features):
            support = feat.support
            ids = np.fromiter(support, dtype=np.int64, count=len(support))
            bad = ids[(ids < 0) | (ids >= self.n)]
            if bad.size:
                raise SelectionError(
                    f"feature {r} supported by graph {int(bad[0])} "
                    "outside database"
                )
            bits[r, ids] = True
        return kernels.pack_bits(bits)

    @property
    def supports(self) -> np.ndarray:
        """The packed ``[m, ceil(n / 64)]`` support matrix."""
        if callable(self._supports):
            self._supports = self._supports()
        return self._supports

    def _install(self, supports: np.ndarray, n: int) -> None:
        self._supports = supports
        self.n = n
        self.support_counts = _popcounts(supports)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def rows(
        self,
        indices: Optional[Sequence[int]] = None,
        features: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """φ of database graphs *indices* over *features* (each default
        all), unpacked: a ``(graphs, features)`` bool block."""
        matrix = self.supports
        if features is not None:
            matrix = matrix[np.asarray(features, dtype=np.int64)]
        if indices is None:
            bits = _unpack(matrix, self.n)
        else:
            ids = np.asarray(indices, dtype=np.int64)
            bits = (matrix[:, ids >> 6] >> (ids & 63).astype(np.uint64)) & 1
        return np.ascontiguousarray(bits.T, dtype=bool)

    def support(self, r: int) -> Set[int]:
        """``sup(f_r)`` as a set, built from the matrix on each call."""
        return set(self.inverted_feature_list(r).tolist())

    @property
    def incidence(self) -> np.ndarray:
        """The ``n × m`` int8 incidence, built on each access."""
        return self.rows().view(np.int8)

    # ------------------------------------------------------------------
    # database mutations
    # ------------------------------------------------------------------
    def append_rows(self, rows: np.ndarray) -> None:
        """Append database graphs whose incidence rows are *rows*.

        *rows* is ``(k, m)`` binary; the new graphs take indices
        ``n..n+k-1``.  Only the matrix's last partial word and the new
        ones are packed.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.m:
            raise SelectionError(
                f"appended rows must have {self.m} columns, got {rows.shape}"
            )
        start = self.n
        w0 = start // 64
        tail = _unpack(self.supports[:, w0:], start - 64 * w0)
        block = np.concatenate([tail, (rows != 0).T], axis=1)
        self._install(
            np.concatenate(
                [self.supports[:, :w0], kernels.pack_bits(block)], axis=1
            ),
            start + rows.shape[0],
        )

    def refresh_rows(self, indices: Sequence[int], rows: np.ndarray) -> None:
        """Overwrite the full-universe incidence of existing rows.

        The re-selection repair path: graphs appended through a live
        mapping only carry incidence over the *selected* columns
        (non-selected universe features are never re-mined on the write
        path), so before a re-selection may honestly score the whole
        universe it re-embeds those rows over all ``m`` features and
        installs the exact rows here.
        """
        idx = [int(i) for i in indices]
        if any(i < 0 or i >= self.n for i in idx):
            raise SelectionError(
                f"refresh indices out of range for database of size {self.n}"
            )
        rows = np.asarray(rows)
        if rows.shape != (len(idx), self.m):
            raise SelectionError(
                f"refresh rows must be ({len(idx)}, {self.m}), "
                f"got {rows.shape}"
            )
        bits = _unpack(self.supports, self.n)
        bits[:, idx] = (rows != 0).T
        self._install(kernels.pack_bits(bits), self.n)

    def remove_rows(self, indices: Sequence[int]) -> None:
        """Remove database graphs *indices*, renumbering the survivors.

        Surviving graphs keep their relative order: every support row
        drops the removed bits and closes up.  Exact — no isomorphism
        tests are needed to delete rows.
        """
        removed = sorted({int(i) for i in indices})
        if not removed:
            return
        if removed[0] < 0 or removed[-1] >= self.n:
            raise SelectionError(
                f"remove indices out of range for database of size {self.n}"
            )
        if len(removed) == self.n:
            raise SelectionError("cannot remove every database graph")
        keep = np.ones(self.n, dtype=bool)
        keep[removed] = False
        bits = _unpack(self.supports, self.n)[:, keep]
        self._install(kernels.pack_bits(bits), bits.shape[1])

    # ------------------------------------------------------------------
    # inverted lists
    # ------------------------------------------------------------------
    def inverted_feature_list(self, r: int) -> np.ndarray:
        """``IF_r``: indices of database graphs containing feature *r*."""
        return np.flatnonzero(_unpack(self.supports[r : r + 1], self.n)[0])

    def inverted_graph_list(self, i: int) -> np.ndarray:
        """``IG_i``: indices of features contained in database graph *i*."""
        return np.flatnonzero(self.rows([i])[0])

    # ------------------------------------------------------------------
    # embeddings
    # ------------------------------------------------------------------
    def pattern_profile(self, r: int) -> PatternProfile:
        """Feature *r*'s :class:`PatternProfile`, built once and kept.

        A profile compiles the feature's match plan, so every caller
        that matches features against many graphs shares this one
        instead of letting ``is_subgraph`` build a throw-away profile
        per (feature, graph) pair.
        """
        profile = self._pattern_profiles.get(r)
        if profile is None:
            profile = PatternProfile(self.features[r].graph)
            self._pattern_profiles[r] = profile
        return profile

    def embed_database(self, selected: Optional[Sequence[int]] = None) -> np.ndarray:
        """Binary vectors of all database graphs over *selected* features.

        With ``selected=None`` the full universe is used (the "Original"
        baseline).  Rows are ``float64`` so they can be fed straight into
        the distance kernels: the one builder of float rows, for DSPM,
        the baselines, the experiments and the float oracle engines.
        """
        return self.rows(features=selected).astype(float)

    def embed_query(
        self,
        query: LabeledGraph,
        selected: Optional[Sequence[int]] = None,
        profile: Optional[TargetProfile] = None,
    ) -> np.ndarray:
        """The binary vector of an unseen *query* graph.

        Each selected feature is matched against the query with VF2.  The
        query's invariants (histograms and vertex bitsets) are computed
        once per call and shared across all feature matches; pass
        *profile* to share them across calls too.
        """
        indices = list(range(self.m)) if selected is None else list(selected)
        if profile is None:
            profile = TargetProfile(query)
        vector = np.zeros(len(indices), dtype=float)
        for out_pos, r in enumerate(indices):
            if is_subgraph(
                self.features[r].graph, query, profile, self.pattern_profile(r)
            ):
                vector[out_pos] = 1.0
        return vector

    def embed_queries(
        self,
        queries: Sequence[LabeledGraph],
        selected: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Stack :meth:`embed_query` rows for many queries."""
        return np.vstack([self.embed_query(q, selected) for q in queries])

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.m


def normalized_euclidean_distances(vectors: np.ndarray) -> np.ndarray:
    """All-pairs normalised Euclidean distance (the paper's ``d``).

    ``d(y_i, y_j) = sqrt( (1/p) Σ_r (y_ir − y_jr)² )`` — for binary
    vectors this is ``sqrt(hamming / p)`` and lies in ``[0, 1]``.
    """
    n, p = vectors.shape
    if p == 0:
        return np.zeros((n, n))
    sq = (vectors**2).sum(axis=1)
    gram = vectors @ vectors.T
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2 * gram, 0.0)
    return np.sqrt(d2 / p)


def cross_normalized_euclidean_distances(
    left: np.ndarray,
    right: np.ndarray,
) -> np.ndarray:
    """Normalised Euclidean distances between two vector collections.

    The arithmetic is :func:`repro.kernels.distance_block`; validation
    stays here so the kernel sees clean inputs.
    """
    if left.shape[1] != right.shape[1]:
        raise ValueError("dimension mismatch between embeddings")
    sq_r = (right**2).sum(axis=1)
    return kernels.distance_block(left, right, sq_r, left.shape[1])
