"""Bench: ablations of this implementation's design choices (not in the
paper; listed in ``repro.experiments.exp_ablation``'s docstring).

Shapes asserted:

* the three DSPM kernel implementations agree numerically, and the
  vectorised kernel beats the literal inverted-list kernel, which beats
  the naive O(m·n²) kernel (the paper's optimisation claim);
* the binary final mapping (the paper's choice) is competitive with the
  weighted variant;
* DSPMap's partition balancing does not hurt quality.
"""

from repro.experiments.exp_ablation import run


def test_ablation_suite(benchmark, out_dir):
    result = benchmark.pedantic(
        lambda: run(scale="small", seed=0, out_dir=out_dir),
        rounds=1,
        iterations=1,
    )
    assert result["kernel_agreement"]["inverted"]
    assert result["kernel_agreement"]["naive"]
    times = result["kernel_seconds"]
    assert times["numpy"] < times["inverted"] < times["naive"], (
        f"expected numpy < inverted < naive, got {times}"
    )
    # Binary mapping within 20% of the weighted variant (usually better).
    assert result["precision_binary_mapping"] >= (
        0.8 * result["precision_weighted_mapping"]
    )
    balance = result["partition_balance"]
    assert balance["balanced"]["precision"] >= (
        balance["unbalanced"]["precision"] - 0.1
    )
