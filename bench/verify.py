"""The oracle, run off the clock.

The sampled reads and the final probes are checked against a local
mirror: the same artifact loaded through :func:`repro.load_index`, with
the acknowledged updates applied in order.  A response computed at
generation ``g`` is compared with the mirror after ``g`` updates.
Exact answers must equal :meth:`QueryEngine.batch_query` bit for bit
(ranking and scores); approximate and graph answers feed the recall.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import load_index
from repro.query.pruning import topk_recall
from repro.query.topk import TopKResult

from harness import Drive
from workloads import K, Traffic, Workload


def _is_exact(policy: Optional[Dict]) -> bool:
    return policy is None or policy.get("mode", "exact") == "exact"


def check(
    index: Path, workload: Workload, traffic: Traffic, drive: Drive
) -> Tuple[float, int]:
    """Count wrong answers into ``drive.failed``; return the recall.

    Returns ``(recall_at_k, approximate answers it is the mean of)``;
    the recall is 1.0 by construction when all sampled traffic was
    exact.
    """
    mirror = load_index(index)
    final = drive.updates_acked
    by_generation: Dict[int, List[Tuple[int, int, Dict]]] = {}
    for pool_index, policy_index, response in drive.samples:
        by_generation.setdefault(response["generation"], []).append(
            (pool_index, policy_index, response)
        )
    for pool_index, response in drive.probes:
        if response.get("ok") and response["generation"] != final:
            drive.fail(
                f"probe at generation {response['generation']}, "
                f"expected {final}"
            )
        elif response.get("ok"):
            by_generation.setdefault(final, []).append(
                (pool_index, 0, response)
            )
    recalls: List[float] = []
    for generation in range(final + 1):
        if generation:
            added, removed = traffic.plan[generation - 1]
            mirror.remove_graphs(removed)
            mirror.add_graphs(added)
        group = by_generation.pop(generation, [])
        wanted = sorted({pool_index for pool_index, _p, _r in group})
        if not wanted:
            continue
        answers = mirror.query_engine().batch_query(
            [traffic.pool[i] for i in wanted], K
        )
        truth = dict(zip(wanted, answers.results))
        for pool_index, policy_index, response in group:
            expected = truth[pool_index]
            if _is_exact(workload.policies[policy_index]):
                if (
                    response["ranking"] != expected.ranking
                    or response["scores"] != expected.scores
                ):
                    drive.fail(
                        f"pool query {pool_index} at generation "
                        f"{generation}: got {response['ranking']}, "
                        f"oracle {expected.ranking}"
                    )
            else:
                recalls.append(topk_recall(
                    expected,
                    TopKResult(response["ranking"], response["scores"]),
                ))
    for generation, group in by_generation.items():
        for _sample in group:
            drive.fail(f"answer from unknown generation {generation}")
    if not recalls:
        return 1.0, 0
    return sum(recalls) / len(recalls), len(recalls)
