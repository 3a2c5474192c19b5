"""Row-at-a-time reference backend — a genuinely different accumulation.

Computes every distance as a direct ``Σ (q_j − x_j)²`` per query row
instead of the baseline's expanded ``‖q‖² + ‖x‖² − 2 q·x`` BLAS form.
On the binary embedding vectors this project serves, both accumulations
are exact integer arithmetic in float64, so the results are
**bit-identical** — which makes this backend the always-available second
leg of the kernel-parity tier (this module has no dependencies beyond
numpy).  It is also the shape a JIT/native port takes, so parity here is
parity evidence for those too.

Bound blocks involve non-integer centroids, where the different
association can differ from the baseline by ulps; the pruning slack
absorbs that (answers stay exact — the parity tier asserts it at the
answer level).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels import numpy_backend as _np_backend


def distance_block(
    queries: np.ndarray,
    vectors: np.ndarray,
    sq_norms: np.ndarray,
    dimensionality: int,
) -> np.ndarray:
    queries = np.asarray(queries, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    d2 = np.empty((queries.shape[0], vectors.shape[0]))
    for qi in range(queries.shape[0]):
        d2[qi] = ((queries[qi][None, :] - vectors) ** 2).sum(axis=1)
    if dimensionality:
        return np.sqrt(d2 / dimensionality)
    return np.zeros_like(d2)


def bound_block(
    vectors: np.ndarray,
    centroids: np.ndarray,
    centroid_sq_norms: np.ndarray,
    radii: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    dimensionality: int,
) -> Tuple[np.ndarray, np.ndarray]:
    vectors = np.asarray(vectors, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    n_q, n_s = vectors.shape[0], centroids.shape[0]
    centroid_d = np.empty((n_q, n_s))
    box_sq = np.empty((n_q, n_s))
    for si in range(n_s):
        gaps = vectors - centroids[si][None, :]
        centroid_d[:, si] = np.sqrt((gaps**2).sum(axis=1))
        below = np.maximum(lows[si] - vectors, 0.0)
        above = np.maximum(vectors - highs[si], 0.0)
        box_sq[:, si] = (below**2).sum(axis=1) + (above**2).sum(axis=1)
    tri_sq = np.maximum(centroid_d - radii[None, :], 0.0) ** 2
    best = np.maximum(tri_sq, box_sq)
    if dimensionality:
        bounds = np.sqrt(best / dimensionality)
    else:
        bounds = np.zeros_like(best)
    return bounds, centroid_d


# The skip test and the candidate filter are already pure elementwise
# integer/compare work with a single possible evaluation order — the
# baseline implementations *are* the reference.
bound_check = _np_backend.bound_check
vf2_candidate_filter = _np_backend.vf2_candidate_filter
