"""The compute kernels of the online hot path.

Every numeric inner loop of the serving stack runs through the four
functions here, called as ``kernels.<fn>`` so a test can swap one out:

* :func:`distance_block` — normalised-Euclidean distance rectangle, the
  shard scan inner loop;
* :func:`bound_block` — per-(query, shard) lower bounds plus the
  centroid distances the approx router reuses;
* :func:`bound_check` — the elementwise "provably prunable" test;
* :func:`vf2_candidate_filter` — VF2's size/histogram/degree dominance
  pre-check over every pattern at once, one comparison of the pattern
  matrix against the target's row (both prepared by
  :class:`PatternFilterStats`).

Exactness contract: on the binary embedding vectors this project
serves, every distance term is a small integer, exactly representable
in float64, so differently-associated accumulations (loops vs BLAS)
produce **bit-identical** distances.  The kernel-parity test tier holds
these functions to that against a row-at-a-time oracle kept under
``tests/``.  Bound computations involve non-integer centroids; another
association may differ there by ulps, which the pruning slack margin
absorbs (answers stay exact; the parity tier asserts it).
"""

from __future__ import annotations

import sys
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "PatternFilterStats",
    "active_backend",
    "bound_block",
    "bound_check",
    "distance_block",
    "vf2_candidate_filter",
]


def distance_block(
    queries: np.ndarray,
    vectors: np.ndarray,
    sq_norms: np.ndarray,
    dimensionality: int,
) -> np.ndarray:
    """Normalised-Euclidean distance rectangle ``queries × vectors``.

    ``sq_norms`` are the precomputed row norms of *vectors*.
    ``dimensionality`` is the mapping width ``p`` — with ``p == 0``
    every distance is zero by convention.
    """
    # The cross term is one dgemm, and which of its operand layouts is
    # fast is the BLAS's business, so it is decided here: column-major
    # queries against row-major rows (OpenBLAS's TT case) take 18 µs at
    # 16 × 200 against 150 rows where row-major queries (NT) take 42.
    # The copy is nq × p; the distances are the same bits either way.
    queries = np.asfortranarray(queries)
    sq_q = (queries**2).sum(axis=1)
    d2 = np.maximum(
        sq_q[:, None] + sq_norms[None, :] - 2.0 * queries @ vectors.T,
        0.0,
    )
    if dimensionality:
        return np.sqrt(d2 / dimensionality)
    return np.zeros_like(d2)


#: Most elements of the (queries, shards, p) cube `bound_block`'s
#: envelope term materialises at once (2 MiB of float64): batches whose
#: cube is larger are cut into query slabs.
_BOUND_CUBE_ELEMENTS = 1 << 18


def bound_block(
    vectors: np.ndarray,
    centroids: np.ndarray,
    centroid_sq_norms: np.ndarray,
    radii: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    dimensionality: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-(query, shard) lower bounds plus raw centroid distances.

    The triangle term ``max(‖q − c‖ − radius, 0)²`` and the envelope
    term (coordinate gaps below ``lows`` / above ``highs``) are both
    valid lower bounds on the squared distance to any row of the shard;
    the max of the two is returned, normalised like the distances it
    will be compared against.  Peak memory is the envelope term's cube
    of query slab x shards x p, capped at ``_BOUND_CUBE_ELEMENTS``.
    """
    sq = (
        (vectors**2).sum(axis=1)[:, None]
        + centroid_sq_norms[None, :]
        - 2.0 * vectors @ centroids.T
    )
    centroid_d = np.sqrt(np.maximum(sq, 0.0))
    tri_sq = np.maximum(centroid_d - radii[None, :], 0.0) ** 2
    # Envelope term in one pass: a coordinate's gap to [low, high] is
    # its distance to its own clip, so the squared gaps of a slab of
    # queries against every shard are one clip and one contraction over
    # a (slab, ns, p) cube — cut so the cube stays under the budget.
    box_sq = np.empty_like(centroid_d)
    slab = max(_BOUND_CUBE_ELEMENTS // max(centroids.size, 1), 1)
    for lo in range(0, vectors.shape[0], slab):
        block = vectors[lo : lo + slab, None, :]
        gaps = np.clip(block, lows, highs)
        np.subtract(block, gaps, out=gaps)
        box_sq[lo : lo + slab] = np.einsum("qsp,qsp->qs", gaps, gaps)
    best = np.maximum(tri_sq, box_sq)
    if dimensionality:
        bounds = np.sqrt(best / dimensionality)
    else:
        # p == 0: every distance is zero, so no bound may exceed it.
        bounds = np.zeros_like(best)
    return bounds, centroid_d


def bound_check(
    bounds: np.ndarray,
    thresholds: np.ndarray,
    slack_rel: float,
    slack_abs: float,
) -> np.ndarray:
    """Elementwise: does each bound provably clear its k-th-best?"""
    return np.asarray(bounds) > (
        np.asarray(thresholds) * (1.0 + slack_rel) + slack_abs
    )


def vf2_candidate_filter(need: np.ndarray, have: np.ndarray) -> np.ndarray:
    """Which patterns survive the size/histogram/degree dominance check.

    Vectorised form of VF2's global pre-check (``_label_counts_ok``):
    row ``r`` of *need* is pattern ``r``'s sizes, vertex-label counts,
    half-edge triple counts and ``-1``-padded descending degrees, *have*
    the target's row in the same columns, and a pattern can only match
    if the target dominates it in every column.
    """
    return (need <= have[None, :]).all(axis=1)


def active_backend() -> object:
    """This module.

    A hold: ``bench/layers.py`` still calls its kernels through the
    object this returns, and the function goes with ROADMAP item 1.
    """
    return sys.modules[__name__]


class PatternFilterStats:
    """The pattern side of the vectorised VF2 candidate filter.

    One int matrix ``need``, built once per feature selection: a row per
    pattern with columns ``|V|``, ``|E|``, the vertex-label counts and
    the half-edge triple counts ``(label, (edge label, neighbour
    label))`` over the union vocabulary of the pattern set, then the
    descending degree sequence padded with ``-1``.  Per query,
    :meth:`encode_target` builds the target's matching row ``have`` and
    :func:`vf2_candidate_filter` keeps the patterns with
    ``need <= have`` in every column — exactly the conditions of VF2's
    own pre-check, so a ``False`` entry is a proven non-match.
    """

    __slots__ = ("need", "vertex_columns", "triple_columns", "max_nv")

    def __init__(self, profiles: Sequence[object]) -> None:
        vertex_columns: Dict[object, int] = {}
        triple_columns: Dict[object, int] = {}
        for prof in profiles:
            for lab in prof.vertex_label_counts:
                vertex_columns.setdefault(lab, 2 + len(vertex_columns))
        for prof in profiles:
            for key in prof.triple_counts:
                triple_columns.setdefault(
                    key, 2 + len(vertex_columns) + len(triple_columns)
                )
        self.vertex_columns = vertex_columns
        self.triple_columns = triple_columns
        self.max_nv = max((prof.num_vertices for prof in profiles), default=0)
        start = 2 + len(vertex_columns) + len(triple_columns)
        need = np.full((len(profiles), start + self.max_nv), -1, np.int64)
        need[:, :start] = 0
        for r, prof in enumerate(profiles):
            need[r, :2] = prof.num_vertices, prof.num_edges
            for lab, c in prof.vertex_label_counts.items():
                need[r, vertex_columns[lab]] = c
            for key, c in prof.triple_counts.items():
                need[r, triple_columns[key]] = c
            need[r, start : start + len(prof.degrees_desc)] = prof.degrees_desc
        self.need = need

    def encode_target(self, profile: object) -> np.ndarray:
        """A :class:`TargetProfile` as one ``have`` row of ``need``'s width.

        Target labels and triples outside the vocabulary are irrelevant
        (no pattern needs them); target degrees are truncated/padded to
        the longest pattern (positions past the target's own size read
        ``-1``, which only ever compares against pattern padding or
        against patterns that already failed the size check).
        """
        degrees = profile.degrees_desc[: self.max_nv]
        have = (
            [profile.num_vertices, profile.num_edges]
            + [0] * (len(self.vertex_columns) + len(self.triple_columns))
            + degrees
            + [-1] * (self.max_nv - len(degrees))
        )
        for counts, columns in (
            (profile.vertex_label_counts, self.vertex_columns),
            (profile.triple_counts, self.triple_columns),
        ):
            for key, c in counts.items():
                col = columns.get(key)
                if col is not None:
                    have[col] = c
        return np.array(have, dtype=np.int64)

    def candidate_mask(
        self, target_profile: object, backend: object = None
    ) -> np.ndarray:
        """Boolean mask over patterns: ``False`` entries cannot match.

        ``backend`` is ignored.  It is a hold: ``bench/layers.py`` still
        passes the object :func:`active_backend` returns, and the
        parameter goes with ROADMAP item 1.
        """
        have = self.encode_target(target_profile)
        return np.asarray(
            vf2_candidate_filter(self.need, have), dtype=bool
        )
