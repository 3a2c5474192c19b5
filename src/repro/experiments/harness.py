"""Shared plumbing for the experiment runners.

Responsibilities:

* **Scales** — the "small" (bench-friendly) and "full" (report-grade)
  parameterisations of every dataset, with all the paper's knobs
  (support τ, feature budget p, top-k sweep, ...) in one place.
* **Dataset preparation** — deterministic chemical / synthetic databases
  and query sets.
* **Disk caching** — dissimilarity matrices are the expensive artifact
  (each entry is an NP-hard MCS); they are cached under ``.cache/`` keyed
  by the generating configuration so repeated runs and benchmarks are
  fast.
* **Evaluation** — run any selector, embed queries, and score the mapped
  top-k against the exact top-k with the paper's three measures.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import (
    MCFSSelector,
    MICISelector,
    NDFSSelector,
    OriginalSelector,
    SampleSelector,
    SFSSelector,
    UDFSSelector,
)
from repro.baselines.base import FeatureSelector
from repro.core.dspm import DSPM
from repro.core.mapping import mapping_from_selection
from repro.datasets import (
    chemical_database,
    chemical_query_set,
    synthetic_database,
    synthetic_query_set,
)
from repro.features.binary_matrix import FeatureSpace
from repro.graph.labeled_graph import LabeledGraph
from repro.mining import mine_frequent_subgraphs
from repro.query.measures import (
    inverse_rank_distance,
    kendall_tau_topk,
    precision_at_k,
)
from repro.query.topk import rank_block
from repro.similarity import (
    DissimilarityCache,
    cross_dissimilarity_matrix,
    pairwise_dissimilarity_matrix,
)

CACHE_DIR = Path(__file__).resolve().parents[3] / ".cache"


@dataclass(frozen=True)
class Scale:
    """One experiment scale (the paper's sizes divided by ~10).

    The synthetic generator's label alphabet and density are scaled down
    with the database: pattern frequency is governed by ``τ·n`` and by
    how many graphs share a pattern, so a 10× smaller database needs a
    proportionally smaller label alphabet to mine a universe with the
    same richness the paper's 20-label/1k-graph setup had.
    """

    name: str
    db_size: int
    query_count: int
    num_features: int
    min_support: float
    max_pattern_edges: int
    top_ks: Tuple[int, ...]
    dspm_iterations: int = 60
    synthetic_num_labels: int = 6
    synthetic_density: float = 0.3
    synthetic_avg_edges: float = 20.0
    synthetic_min_support: float = 0.15


SCALES: Dict[str, Scale] = {
    # For pytest-benchmark: runs in seconds.  The universe must be rich
    # (low τ, deep patterns) for the paper's orderings to appear — with a
    # small balanced universe, Original is competitive and nothing
    # separates.
    "small": Scale(
        name="small",
        db_size=60,
        query_count=16,
        num_features=30,
        min_support=0.10,
        max_pattern_edges=6,
        top_ks=(5, 10),
        dspm_iterations=150,
    ),
    # The shapes of the paper at ~1/10 scale.
    "full": Scale(
        name="full",
        db_size=150,
        query_count=25,
        num_features=50,
        min_support=0.06,
        max_pattern_edges=8,
        top_ks=(5, 10, 15, 20, 25),
        dspm_iterations=300,
        synthetic_num_labels=8,
        synthetic_density=0.25,
        synthetic_min_support=0.10,
    ),
}


def get_scale(scale: str) -> Scale:
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; use one of {sorted(SCALES)}") from None


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------
def make_dataset(
    kind: str,
    db_size: int,
    query_count: int,
    seed: int,
    avg_edges: float = 20.0,
    density: float = 0.2,
    num_labels: int = 20,
) -> Tuple[List[LabeledGraph], List[LabeledGraph]]:
    """A deterministic (database, queries) pair of the requested *kind*."""
    if kind == "chemical":
        db = chemical_database(db_size, seed=seed)
        queries = chemical_query_set(query_count, seed=seed + 10_000)
    elif kind == "synthetic":
        db = synthetic_database(
            db_size, avg_edges=avg_edges, density=density,
            num_labels=num_labels, seed=seed,
        )
        queries = synthetic_query_set(
            query_count, avg_edges=avg_edges, density=density,
            num_labels=num_labels, seed=seed + 10_000,
        )
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    return db, queries


# ---------------------------------------------------------------------------
# cached expensive artifacts
# ---------------------------------------------------------------------------
def _cache_path(tag: str, parts: Sequence[object]) -> Path:
    digest = hashlib.blake2b(
        "|".join(repr(p) for p in parts).encode(), digest_size=10
    ).hexdigest()
    CACHE_DIR.mkdir(exist_ok=True)
    return CACHE_DIR / f"{tag}-{digest}.npy"


def cached_matrix(
    tag: str, parts: Sequence[object], builder: Callable[[], np.ndarray]
) -> np.ndarray:
    """Load a matrix from the disk cache or build and store it."""
    path = _cache_path(tag, parts)
    if path.exists():
        return np.load(path)
    matrix = builder()
    np.save(path, matrix)
    return matrix


def database_delta(
    db: List[LabeledGraph], key: Sequence[object]
) -> np.ndarray:
    """Cached all-pairs dissimilarity matrix for a generated database."""
    return cached_matrix(
        "delta-db", key, lambda: pairwise_dissimilarity_matrix(db, DissimilarityCache())
    )


def query_delta(
    queries: List[LabeledGraph], db: List[LabeledGraph], key: Sequence[object]
) -> np.ndarray:
    """Cached queries × database dissimilarity matrix."""
    return cached_matrix(
        "delta-q",
        key,
        lambda: cross_dissimilarity_matrix(queries, db, DissimilarityCache()),
    )


def dataset_delta_keys(
    kind: str,
    db_size: int,
    query_count: int,
    seed: int,
    **generator_params: object,
):
    """Canonical cache keys for a dataset's δ matrices.

    Keys depend only on what determines the generated graphs (kind, size,
    seed, generator parameters) — never on which experiment asks — so the
    expensive matrices are shared across all experiment runners.
    """
    gen = tuple(sorted(generator_params.items()))
    db_key = ("ds", kind, db_size, seed) + gen
    q_key = ("ds-q", kind, db_size, query_count, seed) + gen
    return db_key, q_key


# ---------------------------------------------------------------------------
# feature universe
# ---------------------------------------------------------------------------
def build_space(
    db: List[LabeledGraph],
    scale: Scale,
    min_support: Optional[float] = None,
) -> FeatureSpace:
    """Mine the frequent-subgraph universe at this scale's τ.

    *min_support* overrides the scale default (the synthetic datasets use
    ``scale.synthetic_min_support``).
    """
    features = mine_frequent_subgraphs(
        db,
        min_support=min_support if min_support is not None else scale.min_support,
        max_edges=scale.max_pattern_edges,
    )
    return FeatureSpace(features, len(db))


# ---------------------------------------------------------------------------
# selector registry
# ---------------------------------------------------------------------------
class DSPMSelector(FeatureSelector):
    """Adapter exposing DSPM through the common selector interface."""

    name = "DSPM"

    def __init__(self, num_features: int, max_iterations: int = 60) -> None:
        super().__init__(num_features)
        self.max_iterations = max_iterations

    def select(self, space: FeatureSpace, delta: Optional[np.ndarray] = None):
        if delta is None:
            raise ValueError("DSPM needs delta")
        result = DSPM(
            self._cap(space), max_iterations=self.max_iterations
        ).fit(space, delta)
        return result.selected


ALGORITHM_ORDER = (
    "DSPM",
    "Original",
    "Sample",
    "SFS",
    "MICI",
    "MCFS",
    "UDFS",
    "NDFS",
)


def make_selectors(
    scale: Scale, seed: int, include: Optional[Sequence[str]] = None
) -> List[FeatureSelector]:
    """Instantiate the paper's eight algorithms at this scale."""
    p = scale.num_features
    registry: Dict[str, Callable[[], FeatureSelector]] = {
        "DSPM": lambda: DSPMSelector(p, max_iterations=scale.dspm_iterations),
        "Original": lambda: OriginalSelector(),
        "Sample": lambda: SampleSelector(p, seed=seed),
        "SFS": lambda: SFSSelector(p),
        "MICI": lambda: MICISelector(p),
        "MCFS": lambda: MCFSSelector(p),
        "UDFS": lambda: UDFSSelector(p),
        "NDFS": lambda: NDFSSelector(p),
    }
    names = include if include is not None else ALGORITHM_ORDER
    return [registry[name]() for name in names]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------
@dataclass
class SelectorEvaluation:
    """Quality and cost of one selector on one dataset."""

    name: str
    selected: List[int]
    indexing_seconds: float
    # measure -> {k -> mean over queries}
    precision: Dict[int, float] = field(default_factory=dict)
    kendall_tau: Dict[int, float] = field(default_factory=dict)
    inverse_rank: Dict[int, float] = field(default_factory=dict)


def exact_topk_lists(
    delta_q: np.ndarray, k: int
) -> List[List[int]]:
    """Ground-truth rankings per query from a dissimilarity rectangle."""
    return rank_block(delta_q, k)[0].tolist()


def evaluate_selector(
    selector: FeatureSelector,
    space: FeatureSpace,
    delta_db: np.ndarray,
    queries: Sequence[LabeledGraph],
    delta_q: np.ndarray,
    top_ks: Sequence[int],
    query_vectors_full: Optional[np.ndarray] = None,
) -> SelectorEvaluation:
    """Run one selector end to end and score its mapped top-k lists.

    *query_vectors_full* — the queries embedded over the **whole**
    universe — lets the harness slice per-selector query vectors instead
    of re-running VF2 per selector (the matching outcome is identical).
    """
    start = time.perf_counter()
    selected = list(selector.select(space, delta_db))
    indexing = time.perf_counter() - start

    mapping = mapping_from_selection(space, selected)
    if query_vectors_full is None:
        query_vectors_full = embed_queries_full(space, queries)
    q_vectors = query_vectors_full[:, selected]
    distances = mapping.query_distances(q_vectors)

    evaluation = SelectorEvaluation(
        name=selector.name, selected=selected, indexing_seconds=indexing
    )
    n = delta_q.shape[1]
    for k in top_ks:
        truth = exact_topk_lists(delta_q, k)
        mapped = rank_block(distances, k)[0].tolist()
        precisions, taus, ranks = [], [], []
        for qi, approx in enumerate(mapped):
            precisions.append(precision_at_k(approx, truth[qi]))
            taus.append(kendall_tau_topk(approx, truth[qi], n))
            ranks.append(inverse_rank_distance(approx, truth[qi]))
        evaluation.precision[k] = float(np.mean(precisions))
        evaluation.kendall_tau[k] = float(np.mean(taus))
        evaluation.inverse_rank[k] = float(np.mean(ranks))
    return evaluation


def embed_queries_full(
    space: FeatureSpace, queries: Sequence[LabeledGraph]
) -> np.ndarray:
    """Queries embedded over the **whole** universe, engine-routed.

    Identical vectors to the naive ``space.embed_queries(queries)``, via
    the lattice-pruned engine instead (one containment DAG build, then a
    fraction of the per-query VF2 calls).  Experiments slice per-selector
    query vectors out of this matrix.
    """
    full_mapping = mapping_from_selection(space, list(range(space.m)))
    return full_mapping.query_engine().embed_many(queries)


def estimate_pair_seconds(
    db: Sequence[LabeledGraph], seed: int = 0, samples: int = 60
) -> float:
    """Mean wall-clock of one fresh MCS-based δ evaluation on *db* pairs.

    The experiment disk cache makes repeated δ lookups free, which would
    hide the cost DSPMap's design exists to avoid (Theorem 5.3 counts
    partition-local δ work).  fig8/fig9 therefore report
    ``indexing = solver_time + (#δ evaluations) × estimate_pair_seconds``
    with the estimate measured live on a random pair sample.
    """
    import numpy as _np

    from repro.isomorphism.mcs import mcs_edge_count

    rng = _np.random.default_rng(seed)
    n = len(db)
    start = time.perf_counter()
    count = 0
    for _ in range(samples):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i == j:
            continue
        mcs_edge_count(db[i], db[j])
        count += 1
    elapsed = time.perf_counter() - start
    return elapsed / max(count, 1)


def relative_to_benchmark(
    values: Dict[str, Dict[int, float]], benchmark: Dict[int, float]
) -> Dict[str, Dict[int, float]]:
    """The paper's "relative value": ratio to the benchmark per k."""
    out: Dict[str, Dict[int, float]] = {}
    for name, per_k in values.items():
        out[name] = {
            k: (v / benchmark[k] if benchmark.get(k) else 0.0)
            for k, v in per_k.items()
        }
    return out
