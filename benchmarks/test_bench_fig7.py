"""Bench: Fig. 7 — online query efficiency.

Shapes asserted (Exp-4): the Original mapping (all |F| features) is
slower per query than DSPM's p features and runs at least twice its VF2
calls — the headline ratio counts work, since wall-clock at this scale
is mostly fixed per-query costs once a VF2 call is cheap; the exact
engine is orders of magnitude slower than both.
"""

import math

from repro.experiments.exp_fig7 import run


def test_fig7_query_efficiency(benchmark, out_dir):
    result = benchmark.pedantic(
        lambda: run(scale="small", seed=0, out_dir=out_dir),
        rounds=1,
        iterations=1,
    )
    times = result["query_seconds"]
    for i, label in enumerate(result["bucket_labels"]):
        if math.isnan(times["DSPM"][i]):
            continue
        assert times["Original"][i] > times["DSPM"][i], (
            f"bucket {label}: Original should be slower than DSPM"
        )
        assert times["Exact"][i] > 10 * times["DSPM"][i], (
            f"bucket {label}: Exact should be orders of magnitude slower"
        )
    calls = result["vf2_calls_per_query"]
    assert calls["Original"] >= 2 * calls["DSPM"]
    assert result["exact_over_dspm"] > 50.0
    assert result["num_features_original"] > result["num_features_dspm"]
