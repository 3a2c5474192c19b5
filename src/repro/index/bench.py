"""Incremental-maintenance benchmark: mutate-in-place vs full rebuild.

Shared by the ``repro-graphdim bench-incremental`` CLI command and the
``benchmarks/test_bench_incremental.py`` perf test, so the number the
perf trajectory tracks is the number an operator can reproduce.

The workload models a live deployment: an index built over ``db_size``
graphs receives a burst of ``remove_count`` deletions and ``add_count``
insertions.  The incremental path applies them through
:meth:`~repro.core.mapping.DSPreservedMapping.remove_graphs` /
:meth:`~repro.core.mapping.DSPreservedMapping.add_graphs` (lattice-pruned
VF2 for the new rows only); the rebuild path re-runs the full offline
pipeline on the mutated database — mining, selection, embedding, and the
pattern-vs-pattern lattice pass.  Before any number is reported, the
incrementally mutated index is asserted **bit-identical** (rankings and
scores, ties included) to a scratch index over the same selected
features with supports recomputed from raw VF2.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.core.mapping import mapping_from_selection
from repro.datasets import synthetic_database, synthetic_query_set
from repro.features.binary_matrix import FeatureSpace
from repro.isomorphism.vf2 import PatternProfile, is_subgraph
from repro.mining.gspan import FrequentSubgraph, mine_frequent_subgraphs
from repro.query.bench import variance_selection
from repro.utils.benchmeta import attach_bench_metadata


def run_incremental_bench(
    db_size: int = 80,
    add_count: int = 8,
    remove_count: int = 8,
    num_features: int = 40,
    query_count: int = 16,
    k: int = 10,
    seed: int = 0,
    num_labels: int = 6,
    density: float = 0.3,
    avg_edges: float = 18.0,
    min_support: float = 0.10,
    max_pattern_edges: int = 5,
    rounds: int = 1,
) -> Dict:
    """Measure incremental update vs full rebuild, in seconds and ×.

    *rounds* repeats the timed mutation burst on a fresh index and
    keeps the minimum of each side (mutations are stateful, so every
    round pays its own offline build, untimed): the incremental window
    is a few milliseconds, and a single descheduled tick inside a busy
    test session would otherwise swing the ratio wildly.
    """
    if db_size < 2 or add_count < 0 or remove_count < 0:
        raise ValueError("db_size must be >= 2; counts must be >= 0")
    if remove_count >= db_size:
        raise ValueError("remove_count must leave at least one graph")
    if add_count == 0 and remove_count == 0:
        raise ValueError("nothing to do: add_count and remove_count are 0")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    db = synthetic_database(
        db_size, avg_edges=avg_edges, density=density,
        num_labels=num_labels, seed=seed,
    )
    additions = synthetic_query_set(
        add_count, avg_edges=avg_edges, density=density,
        num_labels=num_labels, seed=seed + 10_000,
    )
    queries = synthetic_query_set(
        query_count, avg_edges=avg_edges, density=density,
        num_labels=num_labels, seed=seed + 20_000,
    )
    rng = np.random.default_rng(seed + 99)
    removals = sorted(
        int(i) for i in rng.choice(db_size, size=remove_count, replace=False)
    )

    # --- offline build (outside both timers: both paths start from it) --
    features = mine_frequent_subgraphs(
        db, min_support=min_support, max_edges=max_pattern_edges
    )

    # --- incremental passes (min-of-rounds) -----------------------------
    # Mutations are stateful, so each round starts from a fresh mapping
    # over pristine copied supports (untimed).  Adds run first so their
    # lattice-pruned VF2 calls land on the captured engine's counters
    # (removal swaps in a fresh engine).  Removal ids refer to original
    # rows, which adds never renumber, so the final state equals
    # remove-then-add.
    incremental_seconds = float("inf")
    for _ in range(rounds):
        copies = [FrequentSubgraph(f.graph, set(f.support)) for f in features]
        space = FeatureSpace(copies, len(db))
        mapping = mapping_from_selection(
            space, variance_selection(space, num_features)
        )
        engine = mapping.query_engine()  # pay the lattice up front
        vf2_before = engine.stats.vf2_calls
        start = time.perf_counter()
        mapping.add_graphs(additions)
        mapping.remove_graphs(removals)
        incremental_seconds = min(
            incremental_seconds, time.perf_counter() - start
        )
        incremental_vf2 = engine.stats.vf2_calls - vf2_before

    # --- full-rebuild passes (what the operator would run instead) -----
    removed_set = set(removals)
    mutated_db = [
        g for i, g in enumerate(db) if i not in removed_set
    ] + list(additions)
    rebuild_seconds = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        rebuilt_features = mine_frequent_subgraphs(
            mutated_db, min_support=min_support, max_edges=max_pattern_edges
        )
        rebuilt_space = FeatureSpace(rebuilt_features, len(mutated_db))
        rebuilt = mapping_from_selection(
            rebuilt_space, variance_selection(rebuilt_space, num_features)
        )
        rebuilt.query_engine()  # the rebuild pays the lattice again
        rebuild_seconds = min(rebuild_seconds, time.perf_counter() - start)

    # --- exactness gate (untimed): incremental == scratch, bit for bit -
    scratch_features = []
    for f in mapping.selected_features():
        profile = PatternProfile(f.graph)
        scratch_features.append(
            FrequentSubgraph(
                f.graph,
                {
                    i
                    for i, g in enumerate(mutated_db)
                    if is_subgraph(f.graph, g, pattern_profile=profile)
                },
            )
        )
    scratch_space = FeatureSpace(scratch_features, len(mutated_db))
    scratch = mapping_from_selection(
        scratch_space, list(range(len(scratch_features)))
    )
    incremental_answers = mapping.query_engine().batch_query(queries, k)
    scratch_answers = scratch.query_engine().batch_query(queries, k)
    for a, b in zip(incremental_answers, scratch_answers):
        if a.ranking != b.ranking or a.scores != b.scores:
            raise AssertionError(
                "incremental index diverged from the scratch rebuild"
            )

    result = {
        "db_size": db_size,
        "add_count": add_count,
        "remove_count": remove_count,
        "final_size": mapping.space.n,
        "num_candidate_features": space.m,
        "dimensionality": mapping.dimensionality,
        "k": k,
        "query_count": query_count,
        "rounds": rounds,
        "incremental_seconds": incremental_seconds,
        "rebuild_seconds": rebuild_seconds,
        "speedup": rebuild_seconds / incremental_seconds,
        "incremental_vf2_calls": incremental_vf2,
        "support_drift": mapping.support_drift,
        "stale": mapping.stale,
    }
    attach_bench_metadata(result)
    lines = [
        f"incremental index maintenance — synthetic database "
        f"(n={db_size}, +{add_count}/-{remove_count}, "
        f"p={mapping.dimensionality} of {space.m} mined)",
        "",
        f"{'path':<28}{'seconds':>12}",
        f"{'incremental add/remove':<28}{incremental_seconds:>12.4f}",
        f"{'full rebuild':<28}{rebuild_seconds:>12.4f}",
        "",
        f"speedup: {result['speedup']:.1f}x  "
        f"({incremental_vf2} lattice-pruned VF2 calls for "
        f"{add_count} added graphs; removals are VF2-free)",
        f"support drift after the burst: {result['support_drift']:.3f}"
        + ("  [STALE — re-selection recommended]" if result["stale"] else ""),
    ]
    result["report"] = "\n".join(lines) + "\n"
    return result
