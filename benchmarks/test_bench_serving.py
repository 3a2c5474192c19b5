"""Bench: the sharded QueryService vs the single-threaded engine.

Shapes asserted:

* every stream answer is bit-identical to the engine path (checked
  inside the bench runner before any throughput number is reported);
* on the repeat-heavy synthetic stream (the multi-user traffic model),
  the service pays at most half the engine's VF2 calls: the engine
  re-embeds every occurrence, the service's exact embedding cache only
  the first (76 % of the stream are repeats).  A count, deterministic
  for the seed — the q/s ratio this used to assert was the wall-clock
  of exactly that skipped VF2, and stopped measuring the cache once the
  matcher got fast enough for pool start-up and shard dispatch at n=100
  to show (the report still prints it);
* the cache actually fires (repeats served without VF2), and the number
  of embedded queries stays bounded by the pool size.
"""

from pathlib import Path

from repro.serving.bench import run_serving_bench

REPORT_NAME = "serving_small.txt"


def test_query_service_throughput(benchmark, out_dir):
    result = benchmark.pedantic(
        lambda: run_serving_bench(
            db_size=100, pool_size=48, stream_length=192, num_features=100,
            k=10, seed=0, batch_size=16, n_shards=4, n_workers=4,
        ),
        rounds=1,
        iterations=1,
    )
    (Path(out_dir) / REPORT_NAME).write_text(result["report"])

    assert result["service_vf2_calls"] <= 0.5 * result["engine_vf2_calls"], (
        f"the cache should spare the service at least half the engine's "
        f"VF2 calls, got {result['service_vf2_calls']} of "
        f"{result['engine_vf2_calls']}"
    )
    # The cache must do real work on a repeat-heavy stream ...
    assert result["cache_hits"] > 0
    # ... and unique embeddings cannot exceed the distinct query pool.
    assert result["embedded_queries"] <= result["pool_size"]
    assert result["n_shards"] == 4
