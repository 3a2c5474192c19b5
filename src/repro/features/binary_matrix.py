"""The feature space ``F`` and its incidence structures.

Section 4.2 / 5.1.2 of the paper work with:

* the binary incidence ``y_ir = 1 iff f_r ⊆ g_i`` (an ``n × m`` matrix),
* the inverted list ``IF_r  = {g_i | f_r ⊆ g_i}`` per feature, and
* the inverted list ``IG_i = {f_r | f_r ⊆ g_i}`` per graph.

For database graphs the incidence comes *for free* from the miner's support
sets — no isomorphism tests are run.  For unseen query graphs,
:meth:`FeatureSpace.embed_query` matches each feature with VF2 exactly as
the paper does (Exp-4 "feature matching time ... by the VF2 algorithm"),
with a cheap label-count pre-filter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.graph.labeled_graph import LabeledGraph
from repro.isomorphism.vf2 import PatternProfile, TargetProfile, is_subgraph
from repro.mining.gspan import FrequentSubgraph
from repro.utils.errors import SelectionError


class FeatureSpace:
    """Candidate features mined from a database plus their incidence.

    Parameters
    ----------
    features:
        The mined :class:`FrequentSubgraph` objects (the universe ``F``).
    database_size:
        ``n = |DG|``; support indices must lie in ``0..n-1``.
    """

    def __init__(
        self, features: Sequence[FrequentSubgraph], database_size: int
    ) -> None:
        if not features:
            raise SelectionError("feature universe is empty — mine with lower support")
        self.features: List[FrequentSubgraph] = list(features)
        self.n = database_size
        self.m = len(self.features)

        self.incidence = np.zeros((self.n, self.m), dtype=np.int8)
        for r, feat in enumerate(self.features):
            if not feat.support:
                continue
            ids = np.fromiter(
                feat.support, dtype=np.int64, count=len(feat.support)
            )
            bad = ids[(ids < 0) | (ids >= self.n)]
            if bad.size:
                raise SelectionError(
                    f"feature {r} supported by graph {int(bad[0])} "
                    "outside database"
                )
            self.incidence[ids, r] = 1

        # |sup(f_r)| per feature — the s_r of Theorem 5.1.  Support sets
        # are the source the incidence was just built from, so their
        # sizes ARE the column sums — no need to re-reduce the matrix.
        self.support_counts = np.array(
            [len(f.support) for f in self.features], dtype=np.int64
        )
        # Pattern-side VF2 invariants + match plan per feature, built on
        # first use (see :meth:`pattern_profile`).
        self._pattern_profiles: Dict[int, PatternProfile] = {}

    # ------------------------------------------------------------------
    # database mutations
    # ------------------------------------------------------------------
    def append_rows(self, rows: np.ndarray) -> None:
        """Append database graphs whose incidence rows are *rows*.

        *rows* is ``(k, m)`` binary; the new graphs take indices
        ``n..n+k-1``.  Incidence, per-feature support sets, and support
        counts are all updated in place — the inverted lists stay the
        single source of truth for feature supports.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.m:
            raise SelectionError(
                f"appended rows must have {self.m} columns, got {rows.shape}"
            )
        rows = (rows != 0).astype(np.int8)
        start = self.n
        self.incidence = np.vstack([self.incidence, rows])
        self.n += rows.shape[0]
        for offset, row in enumerate(rows):
            gid = start + offset
            for r in np.flatnonzero(row):
                self.features[int(r)].support.add(gid)
        self.support_counts = self.incidence.sum(axis=0).astype(np.int64)

    def refresh_rows(self, indices: Sequence[int], rows: np.ndarray) -> None:
        """Overwrite the full-universe incidence of existing rows.

        The re-selection repair path: graphs appended through a live
        mapping only carry incidence over the *selected* columns
        (non-selected universe features are never re-mined on the write
        path), so before a re-selection may honestly score the whole
        universe it re-embeds those rows over all ``m`` features and
        installs the exact rows here.  Incidence, support sets, and
        support counts all stay consistent.
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
        rows = (rows != 0).astype(np.int8)
        for i, row in zip(idx, rows):
            old = self.incidence[i]
            for r in np.flatnonzero(old != row):
                support = self.features[int(r)].support
                if row[r]:
                    support.add(i)
                else:
                    support.discard(i)
            self.incidence[i] = row
        self.support_counts = self.incidence.sum(axis=0).astype(np.int64)

    def remove_rows(self, indices: Sequence[int]) -> None:
        """Remove database graphs *indices*, renumbering the survivors.

        Surviving graphs keep their relative order; every support set is
        rewritten through the old→new index map.  Exact — no isomorphism
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
        removed_set = set(removed)
        keep = [i for i in range(self.n) if i not in removed_set]
        new_id = {old: new for new, old in enumerate(keep)}
        self.incidence = self.incidence[keep]
        self.n = len(keep)
        for feat in self.features:
            feat.support = {
                new_id[g] for g in feat.support if g not in removed_set
            }
        self.support_counts = self.incidence.sum(axis=0).astype(np.int64)

    # ------------------------------------------------------------------
    # inverted lists
    # ------------------------------------------------------------------
    def inverted_feature_list(self, r: int) -> np.ndarray:
        """``IF_r``: indices of database graphs containing feature *r*."""
        return np.flatnonzero(self.incidence[:, r])

    def inverted_graph_list(self, i: int) -> np.ndarray:
        """``IG_i``: indices of features contained in database graph *i*."""
        return np.flatnonzero(self.incidence[i, :])

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
        the distance kernels.
        """
        if selected is None:
            return self.incidence.astype(float)
        return self.incidence[:, list(selected)].astype(float)

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
    def feature_sizes(self) -> np.ndarray:
        """Edge count of every feature pattern."""
        return np.array([f.num_edges for f in self.features], dtype=np.int64)

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
    right_sq_norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Normalised Euclidean distances between two vector collections.

    *right_sq_norms* — the precomputed per-row squared norms of *right* —
    lets a caller that queries a fixed database repeatedly (the online
    top-k path) skip recomputing them on every call.

    The arithmetic is :func:`repro.kernels.distance_block`; validation
    stays here so the kernel sees clean inputs.
    """
    if left.shape[1] != right.shape[1]:
        raise ValueError("dimension mismatch between embeddings")
    p = left.shape[1]
    if right_sq_norms is None:
        sq_r = (right**2).sum(axis=1)
    else:
        sq_r = np.asarray(right_sq_norms, dtype=float)
        if sq_r.shape != (right.shape[0],):
            raise ValueError("right_sq_norms shape does not match right")
    return kernels.distance_block(left, right, sq_r, p)
