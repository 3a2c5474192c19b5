"""Fig. 2 — total correlation score of selected features, DSPM vs Sample.

The paper varies the dimension count p (100..500 against a mined universe
of thousands) on the chemical dataset and plots the sum of pairwise
Jaccard correlations among the selected features, finding DSPM's total
far below Sample's.

We run the same sweep on both datasets at reproduction scale.  **Known
deviation**: at 10× reduced database size the direction does not
reproduce — DSPM's totals sit at or slightly above Sample's.  The
explanation below is a hypothesis nobody has run: with only 60–150
graphs, support sets collide heavily (Jaccard between any two
mid-support features is large by counting alone) and the stress-optimal
features concentrate around cluster boundaries.  The paper's universe
(thousands of features over 1k graphs) gives random sampling far more
redundant lattice features to stumble into.  The bench
therefore asserts only structural properties (scores grow with p, valid
selections), not the DSPM<Sample direction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines import SampleSelector
from repro.core.dspm import DSPM
from repro.experiments import reporting
from repro.experiments.harness import (
    dataset_delta_keys,
    build_space,
    database_delta,
    get_scale,
    make_dataset,
)
from repro.features.correlation import total_correlation_score


def _sweep(kind: str, cfg, seed: int) -> Dict:
    if kind == "synthetic":
        db, _queries = make_dataset(
            kind, cfg.db_size, 1, seed,
            avg_edges=cfg.synthetic_avg_edges,
            density=cfg.synthetic_density,
            num_labels=cfg.synthetic_num_labels,
        )
        support = cfg.synthetic_min_support
    else:
        db, _queries = make_dataset(kind, cfg.db_size, 1, seed)
        support = None
    if kind == "synthetic":
        db_key, _ = dataset_delta_keys(
            kind, cfg.db_size, 1, seed,
            avg_edges=cfg.synthetic_avg_edges,
            density=cfg.synthetic_density,
            num_labels=cfg.synthetic_num_labels,
        )
    else:
        db_key, _ = dataset_delta_keys(kind, cfg.db_size, 1, seed)
    delta_db = database_delta(db, db_key)
    space = build_space(db, cfg, min_support=support)

    max_p = max(4, space.m // 2)
    p_values: List[int] = sorted(
        {max(2, round(max_p * frac)) for frac in (0.2, 0.4, 0.6, 0.8, 1.0)}
    )
    dspm_scores, sample_scores = [], []
    for p in p_values:
        dspm = DSPM(p, max_iterations=cfg.dspm_iterations).fit(space, delta_db)
        sample = SampleSelector(p, seed=seed).select(space)
        dspm_scores.append(total_correlation_score(space, dspm.selected))
        sample_scores.append(total_correlation_score(space, sample))
    return {
        "p_values": p_values,
        "DSPM": dspm_scores,
        "Sample": sample_scores,
        "universe_size": space.m,
    }


def run(scale: str = "small", seed: int = 0, out_dir: Optional[str] = None) -> Dict:
    cfg = get_scale(scale)
    result = {
        "chemical": _sweep("chemical", cfg, seed),
        "synthetic": _sweep("synthetic", cfg, seed),
    }
    text = ""
    for kind in ("chemical", "synthetic"):
        sweep = result[kind]
        text += reporting.series_table(
            f"Fig 2 ({kind}, |F|={sweep['universe_size']}): total Jaccard "
            "correlation among selected features",
            "p",
            sweep["p_values"],
            {"DSPM": sweep["DSPM"], "Sample": sweep["Sample"]},
        )
        text += "\n"
    result["report"] = text
    reporting.write_report(text, out_dir, f"fig2_{scale}.txt")
    return result
