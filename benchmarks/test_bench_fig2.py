"""Bench: Fig. 2 — total correlation of selected features vs p.

Regenerates the sweep on both datasets.  At this reduced scale the
paper's DSPM<Sample direction does NOT reproduce (the deviation and its
untested explanation are in ``repro.experiments.exp_fig2``'s docstring),
so the assertions cover the structural properties only: totals grow with
p, and both selectors return valid selections at every p.
"""

from repro.experiments.exp_fig2 import run


def test_fig2_correlation_sweep(benchmark, out_dir):
    result = benchmark.pedantic(
        lambda: run(scale="small", seed=0, out_dir=out_dir),
        rounds=1,
        iterations=1,
    )
    for kind in ("chemical", "synthetic"):
        sweep = result[kind]
        p_values = sweep["p_values"]
        assert p_values == sorted(p_values)
        for algo in ("DSPM", "Sample"):
            scores = sweep[algo]
            assert len(scores) == len(p_values)
            assert all(s >= 0 for s in scores)
            # More features => more correlated pairs: totals must grow.
            assert all(
                scores[i] < scores[i + 1] for i in range(len(scores) - 1)
            ), f"{kind}/{algo}: correlation total should grow with p"
