"""The numpy baseline kernel backend — the reference semantics.

These are the exact vectorised formulas the hot path ran inline before
the kernel interface existed (BLAS matmul for the cross term, clamped at
zero, normalised by the mapping dimensionality).  Every other backend is
tested bit-identical to this one on binary embedding data.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


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
