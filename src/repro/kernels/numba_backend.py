"""Optional numba (JIT) kernel backend.

Importable everywhere — ``AVAILABLE`` is ``False`` when numba is not
installed and the registry then simply skips registration (install the
``[kernels]`` extra to enable it).  The jitted loops use the same
sequential ``Σ (q_j − x_j)²`` accumulation as the reference backend, so
on binary embedding data they are bit-identical to the numpy baseline
(exact integer arithmetic); compilation is lazy (first call) and cached
per process.

The per-shard Python loop in ``bound_block`` is the concrete win here:
the baseline pays a numpy dispatch per shard per term, the jitted kernel
fuses the whole (query, shard) rectangle into one pass.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels import numpy_backend as _np_backend

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    AVAILABLE = True
except ImportError:  # pragma: no cover - the default environment
    AVAILABLE = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        """Stand-in so the module still imports without numba."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


@njit(cache=True)
def _distance_sq(queries, vectors):  # pragma: no cover - jitted
    n_q, p = queries.shape
    n_r = vectors.shape[0]
    d2 = np.empty((n_q, n_r))
    for qi in range(n_q):
        for ri in range(n_r):
            acc = 0.0
            for j in range(p):
                gap = queries[qi, j] - vectors[ri, j]
                acc += gap * gap
            d2[qi, ri] = acc
    return d2


@njit(cache=True)
def _bound_sq(vectors, centroids, radii, lows, highs):  # pragma: no cover
    n_q, p = vectors.shape
    n_s = centroids.shape[0]
    centroid_d = np.empty((n_q, n_s))
    best = np.empty((n_q, n_s))
    for qi in range(n_q):
        for si in range(n_s):
            c_acc = 0.0
            box = 0.0
            for j in range(p):
                gap = vectors[qi, j] - centroids[si, j]
                c_acc += gap * gap
                below = lows[si, j] - vectors[qi, j]
                if below > 0.0:
                    box += below * below
                above = vectors[qi, j] - highs[si, j]
                if above > 0.0:
                    box += above * above
            cd = np.sqrt(c_acc)
            centroid_d[qi, si] = cd
            tri = cd - radii[si]
            tri_sq = tri * tri if tri > 0.0 else 0.0
            best[qi, si] = tri_sq if tri_sq > box else box
    return best, centroid_d


def distance_block(
    queries: np.ndarray,
    vectors: np.ndarray,
    sq_norms: np.ndarray,
    dimensionality: int,
) -> np.ndarray:
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    d2 = _distance_sq(queries, vectors)
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
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    best, centroid_d = _bound_sq(
        vectors,
        centroids,
        np.ascontiguousarray(radii, dtype=np.float64),
        np.ascontiguousarray(lows, dtype=np.float64),
        np.ascontiguousarray(highs, dtype=np.float64),
    )
    if dimensionality:
        bounds = np.sqrt(best / dimensionality)
    else:
        bounds = np.zeros_like(best)
    return bounds, centroid_d


# Elementwise compares: nothing for a JIT to fuse beyond what numpy
# already does in one pass each.
bound_check = _np_backend.bound_check
vf2_candidate_filter = _np_backend.vf2_candidate_filter
