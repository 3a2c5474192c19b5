"""Fig. 7 — online query efficiency vs query-graph size.

Queries are bucketed by vertex count.  Two comparisons:

(a) DSPM vs Original — per-query wall-clock and VF2 calls of the mapped
    engine (VF2 feature matching + linear scan).  Expected: Original runs
    several times DSPM's VF2 calls, and is slower, because it matches
    the whole feature universe (|F| features) instead of DSPM's p; both
    grow mildly with |V(q)|.
(b) DSPM vs Exact — the exact engine computes an MCS per database graph.
    Expected: orders of magnitude slower than the mapped engine.

Both mapped paths run through the lattice-pruned
:class:`~repro.query.engine.QueryEngine` (results identical to the naive
per-feature scan; the relative shapes of the figure are preserved —
Original still pays for its |F|-feature frontier).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.dspm import DSPM
from repro.core.mapping import mapping_from_selection
from repro.experiments import reporting
from repro.experiments.harness import (
    dataset_delta_keys,
    build_space,
    database_delta,
    get_scale,
    make_dataset,
)
from repro.query.topk import ExactTopKEngine
from repro.similarity import DissimilarityCache

FIGURE = "fig7"


def _bucket_queries(queries, num_buckets: int = 5):
    """Group queries into vertex-count buckets (paper: 10-12 .. 18-20)."""
    sizes = np.array([q.num_vertices for q in queries])
    lo, hi = sizes.min(), sizes.max()
    edges = np.linspace(lo, hi + 1, num_buckets + 1)
    buckets: List[List[int]] = [[] for _ in range(num_buckets)]
    for i, s in enumerate(sizes):
        b = min(int(np.searchsorted(edges, s, side="right")) - 1, num_buckets - 1)
        buckets[b].append(i)
    labels = [
        f"{int(edges[b])}-{int(edges[b + 1])}" for b in range(num_buckets)
    ]
    return buckets, labels


def run(scale: str = "small", seed: int = 0, out_dir: Optional[str] = None) -> Dict:
    cfg = get_scale(scale)
    db, queries = make_dataset("chemical", cfg.db_size, cfg.query_count, seed)
    db_key, _ = dataset_delta_keys("chemical", cfg.db_size, cfg.query_count, seed)
    delta_db = database_delta(db, db_key)
    space = build_space(db, cfg)

    dspm = DSPM(min(cfg.num_features, space.m),
                max_iterations=cfg.dspm_iterations).fit(space, delta_db)
    mapping_dspm = mapping_from_selection(space, dspm.selected)
    mapping_orig = mapping_from_selection(space, list(range(space.m)))
    engine_dspm = mapping_dspm.query_engine()
    engine_orig = mapping_orig.query_engine()
    engine_exact = ExactTopKEngine(db, DissimilarityCache())

    k = cfg.top_ks[0]
    buckets, labels = _bucket_queries(queries)

    times: Dict[str, List[float]] = {"DSPM": [], "Original": [], "Exact": []}
    for bucket in buckets:
        if not bucket:
            for series in times.values():
                series.append(float("nan"))
            continue
        t_dspm = t_orig = t_exact = 0.0
        for qi in bucket:
            q = queries[qi]
            start = time.perf_counter()
            engine_dspm.query(q, k)
            t_dspm += time.perf_counter() - start
            start = time.perf_counter()
            engine_orig.query(q, k)
            t_orig += time.perf_counter() - start
            start = time.perf_counter()
            engine_exact.query(q, k)
            t_exact += time.perf_counter() - start
        times["DSPM"].append(t_dspm / len(bucket))
        times["Original"].append(t_orig / len(bucket))
        times["Exact"].append(t_exact / len(bucket))

    # Headline ratios over all buckets with data.
    valid = [i for i in range(len(buckets)) if buckets[i]]
    ratio_orig = float(np.mean([times["Original"][i] / times["DSPM"][i] for i in valid]))
    ratio_exact = float(np.mean([times["Exact"][i] / times["DSPM"][i] for i in valid]))
    calls = {  # the work behind the seconds: VF2 calls per query
        "DSPM": engine_dspm.stats.vf2_calls / engine_dspm.stats.queries,
        "Original": engine_orig.stats.vf2_calls / engine_orig.stats.queries,
    }

    result = {
        "bucket_labels": labels,
        "k": k,
        "num_features_dspm": mapping_dspm.dimensionality,
        "num_features_original": space.m,
        "query_seconds": times,
        "orig_over_dspm": ratio_orig,
        "exact_over_dspm": ratio_exact,
        "vf2_calls_per_query": calls,
    }
    text = reporting.series_table(
        f"Fig 7(a): mean query time (s), k={k} — DSPM (p="
        f"{mapping_dspm.dimensionality}) vs Original (|F|={space.m})",
        "|V(q)|", labels,
        {"DSPM": times["DSPM"], "Original": times["Original"]},
        float_format="{:.5f}",
    )
    text += "\n" + reporting.series_table(
        "Fig 7(b): mean query time (s) — DSPM vs Exact (MCS per candidate)",
        "|V(q)|", labels,
        {"DSPM": times["DSPM"], "Exact": times["Exact"]},
        float_format="{:.5f}",
    )
    text += (
        f"\nmean slowdown: Original/DSPM = {ratio_orig:.1f}x, "
        f"Exact/DSPM = {ratio_exact:.0f}x\n"
        f"VF2 calls per query: Original {calls['Original']:.1f}, "
        f"DSPM {calls['DSPM']:.1f}\n"
    )
    result["report"] = text
    reporting.write_report(text, out_dir, f"{FIGURE}_{scale}.txt")
    return result
