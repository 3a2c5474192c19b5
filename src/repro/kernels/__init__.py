"""Pluggable compute kernels for the online hot path.

Every numeric inner loop of the serving stack — shard distance blocks,
envelope/triangle bound checks, and the VF2 candidate pre-filter — runs
behind the narrow backend interface defined here, so the same engine /
service / pruning code can execute on the numpy baseline, the pure-loop
reference oracle, or a future JIT / native backend registered through
:func:`register_backend`, selected at run time without touching any
call site.

A backend is any object exposing four functions:

* ``distance_block(queries, vectors, sq_norms, dimensionality)`` —
  normalised-Euclidean distance rectangle, the shard scan inner loop;
* ``bound_block(vectors, centroids, centroid_sq_norms, radii, lows,
  highs, dimensionality)`` — per-(query, shard) lower bounds plus the
  centroid distances the approx router reuses;
* ``bound_check(bounds, thresholds, slack_rel, slack_abs)`` — the
  elementwise "provably prunable" test;
* ``vf2_candidate_filter(need, have)`` — VF2's size/histogram/degree
  dominance pre-check over every pattern at once, one comparison of
  the pattern matrix against the target's row (both prepared by
  :class:`PatternFilterStats`).

Selection order: an explicit name passed to :func:`resolve_backend`, the
:func:`use_backend` context override, the ``REPRO_KERNEL`` environment
variable, then the numpy baseline.  Unknown names warn and fall back to
numpy rather than failing — a stale environment variable must never
take serving down.

Exactness contract: on the binary embedding vectors this project serves,
every distance term is a small integer, exactly representable in
float64, so differently-associated accumulations (loops vs BLAS) produce
**bit-identical** distances — the kernel-parity test tier enforces this
for every registered backend.  Bound computations involve non-integer
centroids; backends may differ there by ulps, which the pruning slack
margin absorbs (answers stay exact; the parity tier asserts it).
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "DEFAULT_BACKEND",
    "KERNEL_ENV_VAR",
    "PatternFilterStats",
    "active_backend",
    "available_backends",
    "register_backend",
    "resolve_backend",
    "use_backend",
]

KERNEL_ENV_VAR = "REPRO_KERNEL"
DEFAULT_BACKEND = "numpy"

_BACKENDS: Dict[str, object] = {}
_OVERRIDE: List[str] = []  # use_backend() stack; innermost wins


def register_backend(name: str, backend: object) -> None:
    """Register *backend* under *name* (import-time, idempotent)."""
    for fn in (
        "distance_block",
        "bound_block",
        "bound_check",
        "vf2_candidate_filter",
    ):
        if not callable(getattr(backend, fn, None)):
            raise TypeError(f"backend {name!r} is missing kernel {fn!r}")
    _BACKENDS[name] = backend


def available_backends() -> List[str]:
    """Registered backend names, numpy baseline first."""
    names = sorted(_BACKENDS)
    if DEFAULT_BACKEND in names:
        names.remove(DEFAULT_BACKEND)
        names.insert(0, DEFAULT_BACKEND)
    return names


def resolve_backend(name: Optional[str] = None) -> object:
    """The backend object for *name* (or the ambient selection).

    ``None`` resolves the ambient selection: the innermost
    :func:`use_backend` override if any, else ``$REPRO_KERNEL``, else
    the numpy baseline.  An unregistered name warns and falls back to
    numpy instead of raising, so a stale environment variable cannot
    take serving down.
    """
    if name is None:
        name = _OVERRIDE[-1] if _OVERRIDE else os.environ.get(
            KERNEL_ENV_VAR, DEFAULT_BACKEND
        )
    backend = _BACKENDS.get(name)
    if backend is None:
        warnings.warn(
            f"unknown or unavailable kernel backend {name!r}; "
            f"falling back to {DEFAULT_BACKEND!r} "
            f"(available: {', '.join(available_backends())})",
            RuntimeWarning,
            stacklevel=2,
        )
        backend = _BACKENDS[DEFAULT_BACKEND]
    return backend


def active_backend() -> object:
    """The currently-selected backend object."""
    return resolve_backend(None)


@contextmanager
def use_backend(name: str) -> Iterator[object]:
    """Scoped backend override (stronger than ``$REPRO_KERNEL``).

    Engines and services resolve their backend at construction, so the
    override must wrap *construction*, not just the query calls.
    """
    _OVERRIDE.append(name)
    try:
        yield resolve_backend(name)
    finally:
        _OVERRIDE.pop()


class PatternFilterStats:
    """The pattern side of the vectorised VF2 candidate filter.

    One int matrix ``need``, built once per feature selection: a row per
    pattern with columns ``|V|``, ``|E|``, the vertex-label counts and
    the half-edge triple counts ``(label, (edge label, neighbour
    label))`` over the union vocabulary of the pattern set, then the
    descending degree sequence padded with ``-1``.  Per query,
    :meth:`encode_target` builds the target's matching row ``have`` and
    the backend's ``vf2_candidate_filter`` keeps the patterns with
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
        self, target_profile: object, backend: Optional[object] = None
    ) -> np.ndarray:
        """Boolean mask over patterns: ``False`` entries cannot match."""
        if backend is None:
            backend = active_backend()
        have = self.encode_target(target_profile)
        return np.asarray(
            backend.vf2_candidate_filter(self.need, have), dtype=bool
        )


# Backend registration: the numpy baseline and the pure-loop reference.
from repro.kernels import numpy_backend as _numpy_backend  # noqa: E402

register_backend("numpy", _numpy_backend)

from repro.kernels import reference_backend as _reference_backend  # noqa: E402

register_backend("reference", _reference_backend)
