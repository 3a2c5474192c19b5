"""Fig. 6 — synthetic sweeps over graph size and density.

(a) precision vs average edge count 12..20 (density fixed at 0.2);
(b) precision vs density 0.1..0.3 (edges fixed at 20);
(c)/(d) indexing time for the same sweeps.

Expected shapes: DSPM stays on top across both sweeps; other selectors'
precision sags as graphs get larger/denser (more frequent subgraphs make
selection harder); everyone's indexing time grows with size and density;
DSPM/MCFS grow slowest (complexity linear in the feature count where
MICI/UDFS/NDFS are at least quadratic).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments import reporting
from repro.experiments.effectiveness import run_effectiveness
from repro.experiments.harness import (
    dataset_delta_keys,
    build_space,
    database_delta,
    get_scale,
    make_dataset,
    query_delta,
)

FIGURE = "fig6"
# The evaluation measure sweeps use one representative k.
ALGORITHMS = ("DSPM", "Original", "Sample", "SFS", "MICI", "MCFS", "UDFS", "NDFS")


def _one_setting(
    cfg, seed: int, avg_edges: float, density: float, tag: str
) -> Dict:
    db, queries = make_dataset(
        "synthetic",
        cfg.db_size,
        cfg.query_count,
        seed,
        avg_edges=avg_edges,
        density=density,
        num_labels=cfg.synthetic_num_labels,
    )
    db_key, q_key = dataset_delta_keys(
        "synthetic", cfg.db_size, cfg.query_count, seed,
        avg_edges=avg_edges, density=density,
        num_labels=cfg.synthetic_num_labels,
    )
    delta_db = database_delta(db, db_key)
    delta_q = query_delta(queries, db, q_key)
    space = build_space(db, cfg, min_support=cfg.synthetic_min_support)
    return run_effectiveness(
        db, queries, space, delta_db, delta_q, cfg, seed,
        benchmark="best", algorithms=ALGORITHMS,
    )


def run(scale: str = "small", seed: int = 0, out_dir: Optional[str] = None) -> Dict:
    cfg = get_scale(scale)
    k_eval = cfg.top_ks[-1]

    if scale == "small":
        edge_values: Sequence[float] = (12, 16, 20)
        density_values: Sequence[float] = (0.1, 0.2, 0.3)
    else:
        edge_values = (12, 14, 16, 18, 20)
        density_values = (0.1, 0.15, 0.2, 0.25, 0.3)

    size_precisions: Dict[str, List[float]] = {name: [] for name in ALGORITHMS}
    size_indexing: Dict[str, List[float]] = {name: [] for name in ALGORITHMS}
    # Candidate features every selector picks from: the work behind the
    # indexing seconds, counted rather than timed.
    size_candidates: List[int] = []
    for avg_edges in edge_values:
        res = _one_setting(cfg, seed, avg_edges, 0.2, f"size{avg_edges}")
        size_candidates.append(res["num_candidate_features"])
        for name in ALGORITHMS:
            size_precisions[name].append(res["relative"]["precision"][name][k_eval])
            size_indexing[name].append(res["indexing_seconds"][name])

    dens_precisions: Dict[str, List[float]] = {name: [] for name in ALGORITHMS}
    dens_indexing: Dict[str, List[float]] = {name: [] for name in ALGORITHMS}
    dens_candidates: List[int] = []
    for density in density_values:
        res = _one_setting(cfg, seed, 20, density, f"dens{density}")
        dens_candidates.append(res["num_candidate_features"])
        for name in ALGORITHMS:
            dens_precisions[name].append(res["relative"]["precision"][name][k_eval])
            dens_indexing[name].append(res["indexing_seconds"][name])

    result = {
        "edge_values": list(edge_values),
        "density_values": list(density_values),
        "k": k_eval,
        "precision_vs_size": size_precisions,
        "precision_vs_density": dens_precisions,
        "indexing_vs_size": size_indexing,
        "indexing_vs_density": dens_indexing,
        "candidate_features_vs_size": size_candidates,
        "candidate_features_vs_density": dens_candidates,
    }

    text = reporting.series_table(
        f"Fig 6(a): relative precision (k={k_eval}) vs avg graph size",
        "avg_edges", edge_values, size_precisions,
    )
    text += "\n" + reporting.series_table(
        f"Fig 6(b): relative precision (k={k_eval}) vs density",
        "density", density_values, dens_precisions,
    )
    text += "\n" + reporting.series_table(
        "Fig 6(c): indexing time (s) vs avg graph size",
        "avg_edges", edge_values,
        {n: size_indexing[n] for n in ALGORITHMS if n not in ("Original", "Sample")},
        float_format="{:.4f}",
    )
    text += "\n" + reporting.series_table(
        "Fig 6(d): indexing time (s) vs density",
        "density", density_values,
        {n: dens_indexing[n] for n in ALGORITHMS if n not in ("Original", "Sample")},
        float_format="{:.4f}",
    )
    result["report"] = text
    reporting.write_report(text, out_dir, f"{FIGURE}_{scale}.txt")
    return result
