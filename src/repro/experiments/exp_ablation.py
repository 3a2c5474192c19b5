"""Ablations of this implementation's design choices (not in the paper).

1. **Kernel ablation** — the naive Eq. 6/7 kernels vs the paper's
   inverted-list Algorithms 2–4 vs our vectorised kernels, same math:
   wall-clock per iteration and agreement of the final weights.
2. **Binary vs weighted final mapping** — the paper maps queries with
   binary vectors over the selected features; keeping the learned
   weights is the obvious variant.  We compare top-k precision.
3. **Partition balancing** — DSPMap with and without Algorithm 7's
   re-balancing step.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from repro.core.dspm import DSPM
from repro.core.dspmap import DSPMap
from repro.core.mapping import mapping_from_selection
from repro.experiments import reporting
from repro.experiments.harness import (
    dataset_delta_keys,
    build_space,
    database_delta,
    embed_queries_full,
    exact_topk_lists,
    get_scale,
    make_dataset,
    query_delta,
)
from repro.features.binary_matrix import cross_normalized_euclidean_distances
from repro.query.measures import precision_at_k
from repro.query.topk import rank_with_ties

FIGURE = "ablation"


def run(scale: str = "small", seed: int = 0, out_dir: Optional[str] = None) -> Dict:
    cfg = get_scale(scale)
    db, queries = make_dataset("chemical", cfg.db_size, cfg.query_count, seed)
    db_key, q_key = dataset_delta_keys(
        "chemical", cfg.db_size, cfg.query_count, seed
    )
    delta_db = database_delta(db, db_key)
    delta_q = query_delta(queries, db, q_key)
    space = build_space(db, cfg)
    p = min(cfg.num_features, space.m)
    k = cfg.top_ks[-1]

    # ------------------------------------------------------------------
    # 1. kernel ablation (few iterations; the naive kernels are O(m n²)).
    # ------------------------------------------------------------------
    iters = 3
    kernel_times: Dict[str, float] = {}
    kernel_weights: Dict[str, np.ndarray] = {}
    # Restrict to a subsample so the naive kernel finishes promptly.
    sub = min(len(db), 40)
    sub_Y = space.rows(range(sub)).astype(float)
    sub_delta = delta_db[:sub, :sub]
    for kernel in ("numpy", "inverted", "naive"):
        solver = DSPM(p, max_iterations=iters, tolerance=0.0, kernel=kernel)
        start = time.perf_counter()
        res = solver.fit_matrix(sub_Y, sub_delta)
        kernel_times[kernel] = time.perf_counter() - start
        kernel_weights[kernel] = res.weights
    agree_inverted = bool(
        np.allclose(kernel_weights["numpy"], kernel_weights["inverted"], atol=1e-8)
    )
    agree_naive = bool(
        np.allclose(kernel_weights["numpy"], kernel_weights["naive"], atol=1e-8)
    )

    # ------------------------------------------------------------------
    # 2. binary vs weighted final mapping.
    # ------------------------------------------------------------------
    dspm = DSPM(p, max_iterations=cfg.dspm_iterations).fit(space, delta_db)
    mapping = mapping_from_selection(space, dspm.selected)
    queries_vec_full = embed_queries_full(space, queries)
    truth = exact_topk_lists(delta_q, k)

    q_bin = queries_vec_full[:, dspm.selected]
    dist_bin = mapping.query_distances(q_bin)

    w = dspm.weights[dspm.selected]
    db_weighted = mapping.database_vectors * w
    q_weighted = q_bin * w
    dist_wgt = cross_normalized_euclidean_distances(q_weighted, db_weighted)

    def _precision(distances: np.ndarray) -> float:
        return float(
            np.mean(
                [
                    precision_at_k(rank_with_ties(distances[qi], k)[0], truth[qi])
                    for qi in range(distances.shape[0])
                ]
            )
        )

    precision_binary = _precision(dist_bin)
    precision_weighted = _precision(dist_wgt)

    # ------------------------------------------------------------------
    # 3. DSPMap partition balancing on/off.
    # ------------------------------------------------------------------
    b = max(5, cfg.db_size // 6)
    results_balance = {}
    for balance in (True, False):
        solver = DSPMap(p, partition_size=b, seed=seed, balance=balance,
                        max_iterations=cfg.dspm_iterations)
        res = solver.fit(space, db, delta_fn=lambda i, j: float(delta_db[i, j]))
        distances = mapping_from_selection(space, res.selected).query_distances(
            queries_vec_full[:, res.selected]
        )
        block_sizes = [len(block) for block in solver.partitions_]
        results_balance["balanced" if balance else "unbalanced"] = {
            "precision": _precision(distances),
            "block_sizes": block_sizes,
            "delta_evaluations": solver.delta_evaluations_,
        }

    result = {
        "kernel_seconds": kernel_times,
        "kernel_agreement": {"inverted": agree_inverted, "naive": agree_naive},
        "precision_binary_mapping": precision_binary,
        "precision_weighted_mapping": precision_weighted,
        "partition_balance": results_balance,
        "k": k,
    }

    text = reporting.format_table(
        f"Ablation 1: DSPM kernels, {iters} iterations on n={sub} "
        f"(same math — weights agree: inverted={agree_inverted}, naive={agree_naive})",
        ["kernel", "seconds"],
        [(name, secs) for name, secs in kernel_times.items()],
        float_format="{:.4f}",
    )
    text += "\n" + reporting.format_table(
        f"Ablation 2: final mapping, precision@{k}",
        ["mapping", "precision"],
        [("binary (paper)", precision_binary), ("weighted", precision_weighted)],
    )
    text += "\n" + reporting.format_table(
        f"Ablation 3: DSPMap partition balancing (b={b}), precision@{k}",
        ["variant", "precision", "delta_evals", "block sizes"],
        [
            (
                name,
                info["precision"],
                info["delta_evaluations"],
                ",".join(map(str, info["block_sizes"])),
            )
            for name, info in results_balance.items()
        ],
    )
    result["report"] = text
    reporting.write_report(text, out_dir, f"{FIGURE}_{scale}.txt")
    return result
