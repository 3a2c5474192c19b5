"""Experiment runners — one module per figure of the paper's evaluation.

Every runner exposes ``run(scale="small"|"full", seed=..., out_dir=...)``
returning a structured result dict and writing a formatted text report.
``scale="small"`` targets the pytest-benchmark suite (seconds per
experiment) and is what the committed ``results/*_small.txt`` tables were
generated at; ``scale="full"`` is the paper's shapes at ~1/10 scale
(minutes per experiment).
"""

from repro.experiments import harness, reporting
from repro.experiments.exp_fig1 import run as run_fig1
from repro.experiments.exp_fig2 import run as run_fig2
from repro.experiments.exp_fig4 import run as run_fig4
from repro.experiments.exp_fig5 import run as run_fig5
from repro.experiments.exp_fig6 import run as run_fig6
from repro.experiments.exp_fig7 import run as run_fig7
from repro.experiments.exp_fig8 import run as run_fig8
from repro.experiments.exp_fig9 import run as run_fig9
from repro.experiments.exp_ablation import run as run_ablation
from repro.experiments.exp_prototype import run as run_prototype
from repro.experiments.exp_applications import run as run_applications

RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "ablation": run_ablation,
    "prototype": run_prototype,
    "applications": run_applications,
}

__all__ = ["harness", "reporting", "RUNNERS"] + [f"run_{k}" for k in RUNNERS]
