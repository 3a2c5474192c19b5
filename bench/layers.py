"""The per-layer report of a traced run.

Three sources, all recorded from the benchmark's own files:

* the spans around the offline pipeline of the traced set-up
  (``mining``, ``similarity``, ``dspmap``, ``engine.lattice_build``,
  ``proximity.build``, ``artifact.save``);
* the served run's ``stats`` op and CPU clocks (``frontend.batch_mean``,
  ``service.cache_hit_share``, ``server.cpu_share``,
  ``client.cpu_share``);
* an in-process **replay**: a fixed number of the workload's own
  requests pushed through each layer's public functions, one layer at a
  time, single-threaded — so its counts repeat exactly for a seed.

Times are medians over the replay's batches of 16 (per request) unless
the name says otherwise; a layer the workload's pipeline never enters
reports 0.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import StalenessPolicy, load_index, save_index
from repro.isomorphism import TargetProfile
from repro.kernels import PatternFilterStats, active_backend
from repro.query import SearchPolicy
from repro.query.pruning import default_ef, stack_summaries
from repro.query.topk import TopKResult, merge_candidates, rank_with_ties
from repro.serving import (
    AsyncFrontend,
    ContentPlacer,
    FrontendConfig,
    InprocReplica,
    QueryService,
    Router,
    RouterConfig,
    protocol,
)

import harness
import workloads
from harness import Drive
from spans import Tracer
from workloads import K, Traffic, Workload

BATCH = 16
#: Requests per replay stage (the time cap allows 1024, not 2048).
REPLAY_REQUESTS = 1024
SMOKE_REQUESTS = 64
#: Search tiers timed on every workload's index.
TIERS = (
    ("exact", SearchPolicy()),
    ("auto", SearchPolicy(mode="approx", nprobe="auto")),
    ("nprobe", SearchPolicy(mode="approx", nprobe=2)),
    ("graph", SearchPolicy(mode="graph")),
)
#: Rounds of add 4 / remove 4 in the write-path stages.
UPDATE_ROUNDS = 8


class _TimedService:
    """A :class:`QueryService` whose batch call leaves a span.

    Stands where ``serve`` puts the service, so the frontend's own time
    is its ``handle`` span minus this child.
    """

    def __init__(self, service: QueryService, tracer: Tracer) -> None:
        self._service = service
        self._tracer = tracer
        #: The ``handle`` span the next batch belongs to.
        self.parent = None

    def batch_query_traced(self, graphs, k, policy=None):
        start = time.perf_counter()
        out = self._service.batch_query_traced(graphs, k, policy)
        self._tracer.record(
            "service.batch_query", start, time.perf_counter(), self.parent
        )
        return out

    def __getattr__(self, name):
        return getattr(self._service, name)


def _batches(items: Sequence, size: int = BATCH) -> List[Sequence]:
    return [items[lo : lo + size] for lo in range(0, len(items), size)]


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


async def _handle_stages(
    service: QueryService,
    lines: Sequence[str],
    reset: Callable[[], None],
    tracer: Tracer,
) -> List[Dict]:
    """Frontend and router over the replay's lines; returns responses."""
    proxy = _TimedService(service, tracer)
    # Exactly what `serve` builds: default queue, batch size and linger.
    frontend = AsyncFrontend(proxy, FrontendConfig(), own_service=False)
    await frontend.start()
    replica = InprocReplica("replay", frontend)
    router = Router(
        [replica],
        RouterConfig(health_interval=0),
        placer=ContentPlacer(service.mapping, 1),
        own_replicas=False,
    )
    await router.start()
    responses: List[Dict] = []
    try:
        for target, name in ((frontend, "frontend"), (router, "router")):
            reset()
            for b, batch in enumerate(_batches(lines)):
                with tracer.span(f"{name}.handle", request_id=b) as span:
                    proxy.parent = span
                    answers = await asyncio.gather(
                        *(target.handle_line(line) for line in batch)
                    )
                if target is frontend:
                    responses.extend(answers)
        reset()
        for i, line in enumerate(lines[: len(lines) // 4]):
            with tracer.span("frontend.serial_handle", request_id=i) as span:
                proxy.parent = span
                await frontend.handle_line(line)
    finally:
        await router.aclose()
        await frontend.aclose()
    return responses


def _protocol_stages(
    lines: Sequence[str], responses: Sequence[Dict], tracer: Tracer
) -> None:
    clock = time.perf_counter
    for i, line in enumerate(lines):
        t0 = clock()
        request = protocol.parse_request(line)
        t1 = clock()
        protocol.graph_from_wire(request["graph"])
        t2 = clock()
        tracer.record("protocol.parse", t0, t1, None, i)
        tracer.record("protocol.decode_graph", t1, t2, None, i)
    for i, response in enumerate(responses):
        result = TopKResult(response["ranking"], response["scores"])
        t0 = clock()
        protocol.encode_response(
            protocol.ok_response(
                response["id"],
                generation=response["generation"],
                pruning=response["pruning"],
                **protocol.result_to_wire(result),
            )
        )
        tracer.record("protocol.encode", t0, clock(), None, i)


def _service_stages(
    service: QueryService, graphs: Sequence, tracer: Tracer
) -> Tuple[Dict[str, float], np.ndarray]:
    """Embedding and the four search tiers, by direct service calls.

    Returns the work counts and φ of *graphs* (for the kernel stages).
    """
    out: Dict[str, float] = {}
    service.clear_cache()
    vectors = []
    for b, batch in enumerate(_batches(graphs)):
        with tracer.span("service.embed_miss", request_id=b):
            vectors.append(service.embed_batch(batch))
    # The cache holds 1024 entries and the stage embeds at most as
    # many distinct graphs, so the second pass hits every time.
    for b, batch in enumerate(_batches(graphs)):
        with tracer.span("service.embed_hit", request_id=b):
            service.embed_batch(batch)
    if service.mapping.proximity_payload() is None:
        # Nothing persisted: the first graph-mode query would build it.
        with tracer.span("proximity.build"):
            service.mapping.proximity_graph()
    for tier, policy in TIERS:
        queries = evaluations = checks = visited = skipped = 0
        for b, block in enumerate(vectors):
            before = service.stats.distance_evaluations
            with tracer.span(f"service.search_{tier}", request_id=b):
                _results, trace = service.batch_query_vectors_traced(
                    block, K, policy
                )
            queries += len(block)
            evaluations += service.stats.distance_evaluations - before
            checks += int(trace.bound_checks.sum())
            visited += int(trace.visited.sum())
            skipped += int(trace.skipped.sum())
        out[f"service.{tier}_evals_per_query"] = evaluations / queries
        if tier == "exact":
            out["service.bound_checks_per_query"] = checks / queries
            out["service.shards_skipped_share"] = skipped / max(
                visited + skipped, 1
            )
    return out, np.vstack(vectors)


def _engine_stage(engine, graphs: Sequence, tracer: Tracer) -> Dict[str, float]:
    stats = engine.stats
    before = (stats.vf2_calls, stats.features_pruned, stats.filter_rejected)
    for i, g in enumerate(graphs):
        with tracer.span("engine.embed", request_id=i):
            engine.embed(g)
    n = len(graphs)
    return {
        "engine.vf2_calls_per_query": (stats.vf2_calls - before[0]) / n,
        "engine.lattice_pruned_per_query":
            (stats.features_pruned - before[1]) / n,
        "engine.filter_rejected_per_query":
            (stats.filter_rejected - before[2]) / n,
    }


def _kernel_stages(
    service: QueryService,
    graphs: Sequence,
    vectors: np.ndarray,
    tracer: Tracer,
) -> Dict[str, float]:
    """kernels, topk and proximity on this workload's own index."""
    backend = active_backend()
    mapping = service.mapping
    p = mapping.dimensionality
    shard = service.shards[0]
    rows = np.ascontiguousarray(mapping.database_vectors[shard.indices])
    sq_norms = (rows**2).sum(axis=1)
    stack = stack_summaries([s.summary for s in service.shards])
    pattern_filter = PatternFilterStats(
        service.engine.selected_offline_products()[1]
    )
    graph = mapping.proximity_graph()
    hops = 0
    blocks = _batches(vectors)[:64]
    for b, block in enumerate(blocks):
        with tracer.span("kernels.distance_block", request_id=b):
            distances = backend.distance_block(block, rows, sq_norms, p)
        with tracer.span("kernels.bound_block", request_id=b):
            backend.bound_block(
                block, stack.centroids, stack.centroid_sq_norms,
                stack.radii, stack.lows, stack.highs, p,
            )
        with tracer.span("topk.rank", request_id=b):
            local = rank_with_ties(distances[0], K)
        parts = [
            (shard.indices[local[0]] + s, local[1])
            for s in range(len(service.shards))
        ]
        with tracer.span("topk.merge", request_id=b):
            merge_candidates(parts, K)
        with tracer.span("proximity.search", request_id=b):
            hops += graph.search(block[0], K, default_ef(K), backend)[2]
    for i, g in enumerate(graphs[:256]):
        profile = TargetProfile(g)
        with tracer.span("kernels.vf2_filter", request_id=i):
            pattern_filter.candidate_mask(profile, backend)
    return {"proximity.hops_per_query": hops / len(blocks)}


def _write_stages(
    service: QueryService,
    index: Path,
    plan: Sequence,
    graphs: Sequence,
    tracer: Tracer,
) -> None:
    """mapping, artifact and service write paths; router placement."""
    placer = ContentPlacer(service.mapping, 2)
    for i, g in enumerate(graphs[:256]):
        with tracer.span("router.place", request_id=i):
            placer.block_for(g)
    mirror = load_index(index)
    for i, (added, removed) in enumerate(plan[:UPDATE_ROUNDS]):
        with tracer.span("mapping.remove_graphs", request_id=i):
            mirror.remove_graphs(removed)
        with tracer.span("mapping.add_graphs", request_id=i):
            mirror.add_graphs(added)
        # `serve` never passes index_path, so persistence is reachable
        # only through the library: one journal append per update.
        with tracer.span("artifact.save_delta", request_id=i):
            save_index(mirror, index)
        with tracer.span("service.apply_update", request_id=i):
            service.apply_update(added, removed)


def report(
    workload: Workload,
    index: Path,
    info: Dict,
    traffic: Traffic,
    drive: Drive,
    tracer: Tracer,
    scratch: Path,
    requests: int,
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` for one traced run."""
    order, tails = traffic.order, traffic.tails
    picks = [int(order[i % len(order)]) for i in range(requests)]
    lines = [
        workloads.request_line(i, tails[i % len(tails)][pick]).decode()
        for i, pick in enumerate(picks)
    ]
    distinct = [traffic.pool[i] for i in dict.fromkeys(picks)]

    # The replay works on a copy: the served artifact stays as verified.
    replay_dir = scratch / "replay"
    shutil.copytree(
        index.parent, replay_dir, ignore=shutil.ignore_patterns("*.log")
    )
    copy = replay_dir / index.name
    artifact_bytes = sum(f.stat().st_size for f in replay_dir.iterdir())
    with tracer.span("artifact.load_mmap"):
        load_index(copy, mmap=True)
    with tracer.span("artifact.load"):
        mapping = load_index(copy)
    # As `serve` builds it: flag-only staleness, no workers, 1024 cache.
    mapping.staleness_policy = StalenessPolicy(max_drift=0.25)
    engine = mapping.query_engine()
    service = QueryService(
        engine, n_shards=workload.shards, n_workers=0, cache_size=1024
    )

    def reset() -> None:
        # An uncached workload's requests must miss in every stage.
        if not workload.cached:
            service.clear_cache()

    values: Dict[str, float] = {}
    try:
        if workload.cached:
            service.embed_batch(distinct)
        responses = asyncio.run(
            _handle_stages(service, lines, reset, tracer)
        )
        refused = [r for r in responses if not r.get("ok")]
        if refused:
            raise RuntimeError(f"replay request refused: {refused[0]}")
        _protocol_stages(lines, responses, tracer)
        counts, vectors = _service_stages(service, distinct, tracer)
        values.update(counts)
        values.update(_engine_stage(engine, distinct[:512], tracer))
        values.update(_kernel_stages(service, distinct, vectors, tracer))
        _write_stages(service, copy, traffic.plan, distinct, tracer)
    finally:
        service.close()

    def micros(name: str, per: int = 1) -> float:
        return _median(tracer.durations(name)) / per * 1e6

    def millis(name: str) -> float:
        return _median(tracer.durations(name)) * 1e3

    handle_self = [
        own / BATCH
        for span, own in zip(tracer.spans, tracer.self_durations())
        if span[0] == "frontend.handle"
    ]
    wire = sum(
        micros(f"protocol.{step}")
        for step in ("parse", "decode_graph", "encode")
    )
    loaded = drive.phases["loaded"]
    front = {
        key: loaded.stats_after["frontend"][key]
        - loaded.stats_before["frontend"][key]
        for key in ("completed", "batches_dispatched")
    }
    cache = {
        key: loaded.stats_after["service"][key]
        - loaded.stats_before["service"][key]
        for key in ("cache_hits", "cache_misses")
    }
    deltas = tracer.durations("similarity.delta")
    values.update({
        "protocol.parse_us": micros("protocol.parse"),
        "protocol.decode_graph_us": micros("protocol.decode_graph"),
        "protocol.encode_us": micros("protocol.encode"),
        "frontend.handle_us": micros("frontend.handle", BATCH),
        "frontend.serial_handle_us": micros("frontend.serial_handle"),
        "frontend.overhead_us": _median(handle_self) * 1e6 - wire,
        "frontend.batch_mean":
            front["completed"] / max(front["batches_dispatched"], 1),
        "service.embed_miss_us": micros("service.embed_miss", BATCH),
        "service.embed_hit_us": micros("service.embed_hit", BATCH),
        "service.cache_hit_share":
            cache["cache_hits"] / max(sum(cache.values()), 1),
        "service.apply_update_ms": millis("service.apply_update"),
        "engine.embed_us": micros("engine.embed"),
        "engine.lattice_build_s": tracer.total("engine.lattice_build"),
        "kernels.distance_block_us": micros("kernels.distance_block"),
        "kernels.bound_block_us": micros("kernels.bound_block"),
        "kernels.vf2_filter_us": micros("kernels.vf2_filter"),
        "topk.rank_us": micros("topk.rank"),
        "topk.merge_us": micros("topk.merge"),
        "proximity.build_s": tracer.total("proximity.build"),
        "proximity.search_us": micros("proximity.search"),
        "mapping.add_graphs_ms": millis("mapping.add_graphs"),
        "mapping.remove_graphs_ms": millis("mapping.remove_graphs"),
        "artifact.save_s": tracer.total("artifact.save"),
        "artifact.load_s": tracer.total("artifact.load"),
        "artifact.load_mmap_s": tracer.total("artifact.load_mmap"),
        "artifact.save_delta_ms": millis("artifact.save_delta"),
        "artifact.bytes": artifact_bytes,
        "mining.mine_s": tracer.total("mining.mine"),
        "mining.patterns": info["patterns"],
        "similarity.delta_ms":
            sum(deltas) / len(deltas) * 1e3 if deltas else 0.0,
        "similarity.delta_evals": info["delta_evals"],
        "dspmap.fit_s": tracer.total("dspmap.fit"),
        "dspmap.dspm_runs": info["dspm_runs"],
        "router.handle_us": micros("router.handle", BATCH),
        "router.overhead_us":
            micros("router.handle", BATCH) - micros("frontend.handle", BATCH),
        "router.place_us": micros("router.place"),
        "server.cpu_share": loaded.server_cpu / loaded.wall,
        "server.peak_rss_mb": drive.peak_rss_mib,
        "client.cpu_share": loaded.client_cpu / loaded.wall,
        # Latency under load carries no bound: with 16 outstanding the
        # mean is 16 / throughput, and the tail moves by 20 % with the
        # neighbours' mood even at a quiet host's speed.  The mean rate
        # and the p99 are whole-phase figures as the clock read them,
        # probes and the neighbours' noise included.
        "client.loaded_mean_qps": loaded.ok / loaded.wall,
        "client.loaded_p50_ms": harness.latency(loaded, np.median) * 1e3,
        "client.loaded_p95_ms": harness.latency(
            loaded, lambda x: np.percentile(x, 95)
        ) * 1e3,
        "client.loaded_p99_ms": float(np.percentile(loaded.latencies, 99))
        * 1e3,
    })
    for tier, _policy in TIERS:
        values[f"service.search_{tier}_us"] = micros(
            f"service.search_{tier}", BATCH
        )
    return values
