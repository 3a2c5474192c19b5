"""Bench: Fig. 6 — synthetic sweeps over graph size and density.

Shapes asserted (Exp-3): DSPM holds the best precision at every sweep
point, and the indexing work grows as graphs get larger and denser.
That work is the number of candidate features every selector picks
from; the indexing seconds stay in the report, but a timing of a few
milliseconds whose first point pays the process's start-up cost cannot
carry a growth assertion.
"""

from repro.experiments.exp_fig6 import run


def test_fig6_size_density_sweeps(benchmark, out_dir):
    result = benchmark.pedantic(
        lambda: run(scale="small", seed=0, out_dir=out_dir),
        rounds=1,
        iterations=1,
    )
    for sweep in ("precision_vs_size", "precision_vs_density"):
        series = result[sweep]
        for i in range(len(series["DSPM"])):
            dspm = series["DSPM"][i]
            for name, values in series.items():
                assert dspm >= values[i] - 1e-9, (
                    f"{sweep}[{i}]: DSPM {dspm:.3f} vs {name} {values[i]:.3f}"
                )
    # Indexing work grows with graph size and density (first vs last point)
    for sweep in ("candidate_features_vs_size", "candidate_features_vs_density"):
        values = result[sweep]
        assert values[-1] > values[0], f"{sweep}: expected growth, got {values}"
