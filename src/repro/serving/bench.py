"""Serving-throughput benchmark: QueryService vs the single-thread engine.

Shared by the ``repro-graphdim serve-bench`` CLI command and the
``benchmarks/test_bench_serving.py`` perf test, so the number the perf
trajectory tracks is the number an operator can reproduce.

The workload models multi-user traffic: a stream of ``stream_length``
queries drawn (with repetition, seeded) from a ``pool_size``-query pool,
served in batches.  The single-threaded engine re-embeds every
occurrence; the service answers repeats from its exact embedding cache
and fans the remaining VF2 work out to forked workers — so it wins on a
single core (fewer embeddings) *and* scales with cores.  Every stream
answer is asserted bit-identical to the engine's before any number is
reported.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.mapping import mapping_from_selection
from repro.datasets import synthetic_database, synthetic_query_set
from repro.features.binary_matrix import FeatureSpace
from repro.mining import mine_frequent_subgraphs
from repro.query.bench import variance_selection
from repro.query.pruning import SearchPolicy, default_nprobe, topk_recall
from repro.serving.service import ServiceStats
from repro.utils.benchmeta import attach_bench_metadata
from repro.utils.latency import latency_summary


def run_serving_bench(
    db_size: int = 100,
    pool_size: int = 48,
    stream_length: int = 192,
    num_features: int = 100,
    k: int = 10,
    seed: int = 0,
    batch_size: int = 16,
    n_shards: int = 4,
    n_workers: int = 4,
    cache_size: int = 1024,
    num_labels: int = 6,
    density: float = 0.3,
    avg_edges: float = 20.0,
    min_support: float = 0.10,
    max_pattern_edges: int = 6,
    search_mode: str = "exact",
    nprobe: Optional[int] = None,
    ef: Optional[int] = None,
) -> Dict:
    """Measure engine vs service queries/sec on a repeat-heavy stream.

    *search_mode*/*nprobe*/*ef* pick the service pass's
    :class:`~repro.query.pruning.SearchPolicy`.  Exact mode (the
    default) keeps the bit-identity gate; approx and graph modes
    report the mean top-k recall against the engine instead of
    asserting identity.
    """
    if db_size < 1 or pool_size < 1 or stream_length < 1:
        raise ValueError("db_size, pool_size and stream_length must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if search_mode == "approx" and nprobe is None:
        nprobe = default_nprobe(n_shards)
    policy = SearchPolicy(
        mode=search_mode,
        nprobe=nprobe if search_mode == "approx" else None,
        ef=ef if search_mode == "graph" else None,
    )
    db = synthetic_database(
        db_size, avg_edges=avg_edges, density=density,
        num_labels=num_labels, seed=seed,
    )
    pool = synthetic_query_set(
        pool_size, avg_edges=avg_edges, density=density,
        num_labels=num_labels, seed=seed + 10_000,
    )
    features = mine_frequent_subgraphs(
        db, min_support=min_support, max_edges=max_pattern_edges
    )
    space = FeatureSpace(features, len(db))
    mapping = mapping_from_selection(
        space, variance_selection(space, num_features)
    )
    engine = mapping.query_engine()

    rng = np.random.default_rng(seed + 99)
    stream = [pool[int(i)] for i in rng.integers(0, len(pool), stream_length)]
    batches = [
        stream[lo : lo + batch_size]
        for lo in range(0, len(stream), batch_size)
    ]

    # --- single-threaded engine pass (re-embeds every occurrence) -----
    engine_vf2_before = engine.stats.vf2_calls
    start = time.perf_counter()
    engine_answers: List = []
    engine_batch_seconds: List[float] = []
    for batch in batches:
        batch_start = time.perf_counter()
        engine_answers.extend(engine.batch_query(batch, k))
        engine_batch_seconds.append(time.perf_counter() - batch_start)
    engine_seconds = time.perf_counter() - start
    engine_vf2_calls = engine.stats.vf2_calls - engine_vf2_before

    # --- sharded service pass ----------------------------------------
    service = mapping.query_service(
        n_shards=n_shards, n_workers=n_workers, cache_size=cache_size
    )
    try:
        # Spin up worker pools on off-stream queries, then start cold.
        warmup = synthetic_query_set(
            2, avg_edges=avg_edges, density=density,
            num_labels=num_labels, seed=seed + 55_555,
        )
        service.batch_query(warmup, k)
        service.clear_cache()
        load_seconds = service.stats.index_load_seconds
        load_mode = service.stats.index_load_mode
        service.stats = ServiceStats()
        # The reset wipes the run counters, not the load provenance —
        # cold start happened once, before any warmup.
        service.stats.index_load_seconds = load_seconds
        service.stats.index_load_mode = load_mode

        start = time.perf_counter()
        service_answers: List = []
        service_batch_seconds: List[float] = []
        for batch in batches:
            batch_start = time.perf_counter()
            service_answers.extend(service.batch_query(batch, k, policy))
            service_batch_seconds.append(time.perf_counter() - batch_start)
        service_seconds = time.perf_counter() - start

        overlaps = []
        for a, b in zip(engine_answers, service_answers):
            if search_mode == "exact" and (
                a.ranking != b.ranking or a.scores != b.scores
            ):
                raise AssertionError(
                    "service results diverged from the engine path"
                )
            overlaps.append(topk_recall(a, b))
        stats = service.stats
        result = {
            "search_mode": search_mode,
            "nprobe": nprobe if search_mode == "approx" else None,
            "ef": ef if search_mode == "graph" else None,
            "recall": float(np.mean(overlaps)) if overlaps else 1.0,
            "shards_skipped": stats.shards_skipped,
            "bound_checks": stats.bound_checks,
            "distance_evaluations": stats.distance_evaluations,
            "db_size": db_size,
            "pool_size": pool_size,
            "stream_length": stream_length,
            "batch_size": batch_size,
            "k": k,
            "num_candidate_features": space.m,
            "dimensionality": mapping.dimensionality,
            "n_shards": len(service.shards),
            "n_workers": service.n_workers,
            "embed_mode": service.embed_mode,
            "engine_qps": stream_length / engine_seconds,
            "service_qps": stream_length / service_seconds,
            "speedup": engine_seconds / service_seconds,
            "engine_vf2_calls": engine_vf2_calls,
            "service_vf2_calls": stats.vf2_calls,
            "engine_latency": latency_summary(engine_batch_seconds),
            "service_latency": latency_summary(service_batch_seconds),
            "index_load_seconds": stats.index_load_seconds,
            "index_load_mode": stats.index_load_mode,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "embedded_queries": stats.embedded_queries,
            "cache_hit_rate": stats.cache_hits / max(stats.queries, 1),
            "shard_seconds": stats.shard_seconds,
            "shard_tasks": stats.shard_tasks,
            "embed_seconds": stats.embed_seconds,
            "search_seconds": stats.search_seconds,
            "shard_sizes": [s.num_rows for s in service.shards],
            "varying_columns": [len(s.varying) for s in service.shards],
        }
    finally:
        service.close()
    result["cold_start"] = _cold_start_roundtrip(mapping)
    attach_bench_metadata(result)

    lines = [
        f"query service throughput — synthetic stream "
        f"({stream_length} queries from a {pool_size}-query pool, "
        f"batch {batch_size}, k={k}, n={db_size}, "
        f"p={mapping.dimensionality})",
        "",
        f"{'path':<28}{'q/s':>10}",
        f"{'engine (single-thread)':<28}{result['engine_qps']:>10.0f}",
        f"{'service':<28}{result['service_qps']:>10.0f}",
        "",
        f"speedup: {result['speedup']:.2f}x  "
        f"(shards={result['n_shards']}, workers={result['n_workers']}, "
        f"embed={result['embed_mode']})",
        f"embedding cache: {result['cache_hits']} hits / "
        f"{result['cache_misses']} misses "
        f"({result['embedded_queries']} embedded, "
        f"{100 * result['cache_hit_rate']:.0f}% hit rate)",
        f"VF2 calls: engine {result['engine_vf2_calls']}, "
        f"service {result['service_vf2_calls']}",
        f"stage timings: embed {result['embed_seconds'] * 1e3:.1f} ms, "
        f"search {result['search_seconds'] * 1e3:.1f} ms "
        f"({result['shard_tasks']} shard tasks totalling "
        f"{result['shard_seconds'] * 1e3:.1f} ms; "
        f"{result['shards_skipped']} blocks skipped, "
        f"{result['bound_checks']} bound checks)",
        f"search policy: {search_mode}"
        + (f" (nprobe={nprobe})" if search_mode == "approx" else "")
        + (f" (ef={ef if ef is not None else 'default'})"
           if search_mode == "graph" else "")
        + (
            " (bit-identical, asserted)"
            if search_mode == "exact"
            else f", recall {result['recall']:.3f}"
        ),
        f"shard sizes: {result['shard_sizes']}, varying columns per shard: "
        f"{result['varying_columns']}",
        f"batch latency: engine p50 "
        f"{result['engine_latency']['p50_ms']:.2f} ms / p99 "
        f"{result['engine_latency']['p99_ms']:.2f} ms, service p50 "
        f"{result['service_latency']['p50_ms']:.2f} ms / p99 "
        f"{result['service_latency']['p99_ms']:.2f} ms",
        f"cold start (paged artifact, "
        f"{result['cold_start']['payload_bytes'] / 1024:.0f} KiB payload): "
        f"eager {result['cold_start']['eager_seconds'] * 1e3:.1f} ms, "
        f"mmap {result['cold_start']['mmap_seconds'] * 1e3:.1f} ms",
    ]
    result["report"] = "\n".join(lines) + "\n"
    return result


def _cold_start_roundtrip(mapping) -> Dict:
    """Save the bench index as a paged artifact; time eager vs mmap load.

    At bench-smoke scale both numbers are dominated by manifest parsing,
    so they land close together — the ≥ 100 MB assertion lives in
    ``benchmarks/test_bench_kernels.py`` where payload I/O dominates.
    This section exists so every ``serve-bench --json`` artifact carries
    the cold-start split for the index size it actually measured.
    """
    import tempfile
    from pathlib import Path

    from repro.index import load_index, paged_payload_path, save_index

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench-index"
        save_index(mapping, path, layout="paged")
        eager = load_index(path)
        lazy = load_index(path, mmap=True)
        return {
            "layout": "paged",
            "payload_bytes": paged_payload_path(path).stat().st_size,
            "eager_seconds": eager.load_seconds,
            "mmap_seconds": lazy.load_seconds,
            "speedup": eager.load_seconds / lazy.load_seconds,
        }
