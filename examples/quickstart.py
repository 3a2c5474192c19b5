"""Quickstart: build, serve, mutate, compact — then open the front door.

This walks the full deployment lifecycle on a generated molecule-like
database:

1.  **build** — gSpan mining + DSPM feature selection over the initial
    database, with an exactness check against the NP-hard ground truth,
2.  **serve** — persist the index artifact (manifest + page-checksummed
    binary payload), reload it cold-start-free, and answer batches
    through the sharded query service — then load the same artifact
    with ``mmap=True`` (O(manifest) cold start, page checksums verified
    on first touch, answers bit-identical), and answer the same batch
    in *graph* mode: a best-first beam over the navigable proximity
    graph that touches a fraction of the database rows (hops and
    distance evaluations reported per batch),
3.  **mutate** — add and remove database graphs *without rebuilding*:
    the service swaps updated shards in live, and ``save_index`` appends
    the mutations to the artifact's delta journal instead of rewriting
    the base,
4.  **compact** — fold the journal back into a fresh binary base once
    enough deltas accumulate,
5.  **serve loop** — put the asyncio front-end in front: NDJSON
    requests from two tenants, per-tenant quota rejections, coalesced
    batches, stats, and a graceful drain (the same loop
    ``repro-graphdim serve`` runs over stdio/TCP),
6.  **self-heal** — keep mutating until selected-support drift crosses
    the staleness threshold, then let a maintenance pass re-run the
    paper's feature selection over the mutated database (reusing the
    cached offline products) and swap the healed selection in — the
    loop ``repro-graphdim serve --reselect`` runs in the background on
    a timer.

Run with::

    python examples/quickstart.py
"""

import asyncio
import json
import tempfile
import time
from pathlib import Path

from repro.core.mapping import build_mapping
from repro.core.reselect import Reselector
from repro.datasets import chemical_database, chemical_query_set
from repro.index import compact_index, journal_path, load_index, save_index
from repro.query.measures import precision_at_k
from repro.query.pruning import SearchPolicy
from repro.query.topk import ExactTopKEngine
from repro.serving.frontend import AsyncFrontend, FrontendConfig
from repro.serving.protocol import graph_to_wire


def main() -> None:
    # ------------------------------------------------------------------
    # 1. build
    # ------------------------------------------------------------------
    database = chemical_database(60, seed=0)
    query = chemical_query_set(1, seed=1)[0]
    print(f"database: {len(database)} graphs; "
          f"query {query.graph_id}: |V|={query.num_vertices}, |E|={query.num_edges}")

    start = time.perf_counter()
    mapping = build_mapping(
        database,
        num_features=20,
        min_support=0.10,
        max_pattern_edges=5,
    )
    print(f"index built in {time.perf_counter() - start:.1f}s: "
          f"{mapping.dimensionality} dimensions selected from "
          f"{mapping.space.m} mined frequent subgraphs")

    engine = mapping.query_engine()
    start = time.perf_counter()
    answer = engine.query(query, k=10)
    mapped = time.perf_counter() - start
    start = time.perf_counter()
    truth = ExactTopKEngine(database).query(query, k=10)
    exact = time.perf_counter() - start
    print(f"mapped top-10 in {mapped * 1e3:.2f} ms vs exact "
          f"MCS ranking in {exact * 1e3:.0f} ms: "
          f"precision@10 = {precision_at_k(answer.ranking, truth.ranking):.2f}, "
          f"speedup = {exact / mapped:.0f}x")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.json"

        # --------------------------------------------------------------
        # 2. serve
        # --------------------------------------------------------------
        save_index(mapping, path)  # manifest + page-checksummed payload
        start = time.perf_counter()
        served = load_index(path)  # engine pre-attached: zero VF2 calls
        print(f"\nartifact reloaded in "
              f"{(time.perf_counter() - start) * 1e3:.1f} ms "
              f"({path.stat().st_size / 1024:.0f} KiB manifest)")

        service = served.query_service(n_shards=4)
        queries = chemical_query_set(8, seed=2)
        start = time.perf_counter()
        batch = service.batch_query(queries, k=10)
        print(f"served a batch of {len(batch)} queries in "
              f"{(time.perf_counter() - start) * 1e3:.1f} ms "
              f"({service.stats.embedded_queries} embedded, "
              f"{service.stats.cache_hits} cache hits)")

        # The same artifact, loaded the other way: mmap=True maps the
        # payload instead of reading it — start-up cost is the manifest,
        # and each page is verified on first touch.
        start = time.perf_counter()
        lazy = load_index(path, mmap=True)
        print(f"same artifact mmap-loaded in "
              f"{(time.perf_counter() - start) * 1e3:.1f} ms "
              f"(load_mode={lazy.load_mode}); on multi-hundred-MB indexes "
              f"this is the >=10x cold-start path")
        a = served.query_engine().batch_query(queries, k=10)
        b = lazy.query_engine().batch_query(queries, k=10)
        for x, y in zip(a, b):
            assert x.ranking == y.ranking and x.scores == y.scores
        print("mmap-loaded index answers bit-identically to the eager load")

        # Graph mode: the same batch through a best-first beam over the
        # navigable proximity graph (built lazily on first use, then
        # persisted as a checksummed manifest section on save).  The
        # beam evaluates a fraction of the database rows; the trace
        # reports exactly how many.
        graph_batch, _gen, trace = service.batch_query_traced(
            queries, k=10, policy=SearchPolicy(mode="graph", ef=16)
        )
        (stats,) = trace.payloads([len(queries)])
        agree = sum(
            len(set(g.ranking) & set(e.ranking)) / len(e.ranking)
            for g, e in zip(graph_batch, batch)
        ) / len(batch)
        print(f"graph mode (ef=16): recall {agree:.2f} vs exact, "
              f"{stats['distance_evaluations']} distance evaluations vs "
              f"{len(queries) * served.space.n} for a full scan "
              f"({stats['hops']} beam hops)")

        # --------------------------------------------------------------
        # 3. mutate — live, no rebuild
        # --------------------------------------------------------------
        arrivals = chemical_query_set(5, seed=3)
        start = time.perf_counter()
        service.apply_update(added=arrivals, removed=[3, 17])
        print(f"\napplied +{len(arrivals)}/-2 graphs live in "
              f"{(time.perf_counter() - start) * 1e3:.1f} ms "
              f"({service.stats.shards_rebuilt} shards rebuilt, "
              f"support drift {served.support_drift:.3f})")
        batch = service.batch_query(queries, k=10)
        print(f"re-served the same batch: {service.stats.cache_hits} cache "
              f"hits (the embedding cache survives database mutations)")

        save_index(served, path)  # appends deltas, base untouched
        print(f"saved as {len(journal_path(path).read_text().splitlines())} "
              f"delta-journal entries — the binary base was not rewritten")

        # --------------------------------------------------------------
        # 4. compact
        # --------------------------------------------------------------
        compacted = compact_index(path)
        print(f"compacted: journal folded into a fresh base "
              f"({compacted.space.n} graphs); journal exists: "
              f"{journal_path(path).exists()}")
        # The manifest and the one generation it names: a save that
        # leaked an older generation's files would list them here.
        print("artifact files: "
              + " ".join(sorted(f.name for f in Path(tmp).iterdir())))

        # The reloaded, mutated index answers exactly like the live one.
        a = served.query_engine().batch_query(queries, k=10)
        b = compacted.query_engine().batch_query(queries, k=10)
        for x, y in zip(a, b):
            assert x.ranking == y.ranking and x.scores == y.scores
        print("round-trip check: compacted index answers bit-identically")

        # --------------------------------------------------------------
        # 5. serve loop — the asyncio NDJSON front door
        # --------------------------------------------------------------
        asyncio.run(serve_loop(compacted, queries))

        # --------------------------------------------------------------
        # 6. self-heal — drift past the threshold, re-select in place
        # --------------------------------------------------------------
        asyncio.run(heal_loop(compacted))


async def serve_loop(mapping, queries) -> None:
    """Drive the NDJSON front-end in-process: two tenants, a quota
    rejection, stats, and a graceful drain.  ``repro-graphdim serve``
    runs this exact loop over stdin/stdout and TCP."""
    frontend = AsyncFrontend(
        mapping.query_service(n_shards=4),
        FrontendConfig(batch_size=4, quota_rate=2.0, quota_burst=3.0),
    )
    await frontend.start()
    print("\nserve loop: NDJSON session (per-tenant quota: 2 q/s, burst 3)")
    session = [
        {"op": "query", "id": i + 1, "tenant": tenant, "k": 3,
         "graph": graph_to_wire(q)}
        for i, (tenant, q) in enumerate(
            [("alice", queries[0]), ("alice", queries[1]),
             ("alice", queries[2]), ("alice", queries[3]),  # 4th: over quota
             ("bob", queries[3])]                           # bob unaffected
        )
    ]
    for request in session:
        response = await frontend.handle_request(request)
        summary = {k: response[k] for k in ("id", "ok") if k in response}
        if response["ok"]:
            summary["ranking"] = response["ranking"]
            summary["generation"] = response["generation"]
        else:
            summary["error"] = response["error"]
            summary["retry_after"] = response.get("retry_after")
        print(f"  <- {json.dumps(summary)}")
    stats = await frontend.handle_request({"op": "stats", "id": 99})
    front, served = stats["frontend"], stats["service"]
    # One caller at a time has no company to wait for: lingers stays 0.
    # Exact search is the scan: every batch is one block of all rows,
    # so whole_scans == shard_tasks.
    print(f"  stats: {front['completed']} answered in "
          f"{front['batches_dispatched']} coalesced batches "
          f"(lingers {front['lingers']}, expired "
          f"{front['lingers_expired']}, concurrency "
          f"{front['concurrency']}; whole_scans "
          f"{served['whole_scans']}, shard_tasks "
          f"{served['shard_tasks']}); "
          f"per-tenant {json.dumps(front['per_tenant'])}")
    shutdown = await frontend.handle_request({"op": "shutdown", "id": 100})
    assert shutdown["draining"]
    await frontend.aclose()  # graceful drain: everything admitted answered
    assert frontend.stats.admitted == frontend.stats.completed
    print("  drained: every admitted request was answered before exit")


async def heal_loop(mapping) -> None:
    """Close the staleness loop: churn until selected-support drift
    crosses ``max_drift``, then run one maintenance pass — the same
    pass the front-end schedules every ``maintenance_interval`` seconds
    (and the ``maintain`` wire op triggers on demand)."""
    reselector = Reselector(num_features=mapping.dimensionality).attach(
        mapping, max_drift=0.05
    )
    frontend = AsyncFrontend(
        mapping.query_service(n_shards=4),
        FrontendConfig(reselector=reselector),
    )
    await frontend.start()
    try:
        churn = chemical_query_set(12, seed=7)
        await frontend.apply_update(added=churn, removed=[2, 5])
        print(f"\nself-heal: churn drove selected-support drift to "
              f"{mapping.support_drift:.3f} (threshold 0.05) — "
              f"stale={mapping.stale}")
        report = await frontend.maintain()
        print(f"  maintenance pass: reselected={report['reselected']} "
              f"(generation {report['generation']}); "
              f"{reselector.rows_repaired} add-path rows re-embedded over "
              f"the full mined universe; stale={mapping.stale}")
    finally:
        await frontend.aclose()


if __name__ == "__main__":
    main()
