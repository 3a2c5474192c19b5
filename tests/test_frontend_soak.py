"""Concurrency soak: clients stream while live updates churn the index.

The strongest serving claim in the repo is that mutation is invisible to
correctness: a batch snapshotted at generation *g* answers **exactly**
like a from-scratch index over the generation-*g* database — same
patterns, supports recomputed by brute-force VF2 — ties, scores and all.

This test hammers that claim from the front-end: N async clients stream
seeded queries through the coalescing dispatcher while an updater task
interleaves ``apply_update`` add/remove churn.  Every response carries
the generation it was computed at; afterwards each one is checked
bit-identical against the scratch rebuild of that exact generation.  No
request may be dropped, fail, or see a torn shard list (a torn list
would surface as a wrong ranking or score for its generation).
"""

import asyncio

import numpy as np
import pytest

from repro.core.mapping import mapping_from_selection, variance_selection
from repro.datasets import synthetic_database, synthetic_query_set
from repro.features.binary_matrix import FeatureSpace
from repro.isomorphism.vf2 import is_subgraph
from repro.mining import mine_frequent_subgraphs
from repro.mining.gspan import FrequentSubgraph
from repro.serving.frontend import AsyncFrontend, FrontendConfig
from repro.serving.service import QueryService

SEED = 7
CLIENTS = 6
QUERIES_PER_CLIENT = 20
K = 7
P = 12


@pytest.fixture(scope="module")
def materials():
    db = synthetic_database(
        30, avg_edges=16, density=0.3, num_labels=5, seed=SEED
    )
    extra = synthetic_query_set(
        6, avg_edges=16, density=0.3, num_labels=5, seed=SEED + 1
    )
    pool = synthetic_query_set(
        12, avg_edges=16, density=0.3, num_labels=5, seed=SEED + 2
    )
    features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=5)
    return db, extra, pool, features


def _fresh_mapping(materials):
    """Pristine supports per test: mutations are in-place."""
    db, _extra, _pool, features = materials
    copies = [FrequentSubgraph(f.graph, set(f.support)) for f in features]
    space = FeatureSpace(copies, len(db))
    return mapping_from_selection(space, variance_selection(space, P))


def _scratch_answers(mapping, generation_db, pool, k):
    """The from-scratch reference for one generation's database: same
    selected patterns, supports recomputed by brute-force VF2."""
    features = [
        FrequentSubgraph(
            f.graph,
            {i for i, g in enumerate(generation_db) if is_subgraph(f.graph, g)},
        )
        for f in mapping.selected_features()
    ]
    space = FeatureSpace(features, len(generation_db))
    scratch = mapping_from_selection(space, list(range(len(features))))
    return scratch.query_engine().batch_query(pool, k)


def _apply_plan(db_state, added, removed):
    """Track the database contents through one update, mirroring
    ``apply_update`` semantics (removals first, pre-update numbering)."""
    survivors = [g for i, g in enumerate(db_state) if i not in set(removed)]
    return survivors + list(added)


def _scratch_answers_for(feature_graphs, generation_db, pool, k):
    """Like :func:`_scratch_answers`, but for an explicit pattern set —
    needed once a background re-selection means different generations
    were served with different selections."""
    features = [
        FrequentSubgraph(
            graph,
            {i for i, g in enumerate(generation_db) if is_subgraph(graph, g)},
        )
        for graph in feature_graphs
    ]
    space = FeatureSpace(features, len(generation_db))
    scratch = mapping_from_selection(space, list(range(len(features))))
    return scratch.query_engine().batch_query(pool, k)


@pytest.mark.timeout(30)
@pytest.mark.asyncio
async def test_soak_streaming_clients_under_update_churn(materials):
    db, extra, pool, _features = materials
    mapping = _fresh_mapping(materials)
    service = QueryService(
        mapping.query_engine(), n_shards=3, cache_size=256
    )
    frontend = AsyncFrontend(
        service,
        FrontendConfig(batch_size=CLIENTS, batch_window=0.002, max_queue=512),
    )

    # The churn plan is fixed up front so each generation's database
    # contents are known exactly.
    plan = [
        ([extra[0], extra[1]], []),
        ([], [3, 7]),
        ([extra[2]], [1]),
        ([extra[3], extra[4]], [0, 5]),
    ]
    db_states = [list(db)]
    for added, removed in plan:
        db_states.append(_apply_plan(db_states[-1], added, removed))

    rng = np.random.default_rng(SEED + 99)
    picks = [
        [int(i) for i in rng.integers(0, len(pool), QUERIES_PER_CLIENT)]
        for _ in range(CLIENTS)
    ]
    observed = []  # (pool_idx, generation, ranking, scores)
    dropped = []
    last_applied = asyncio.Event()

    async def client(ci: int) -> None:
        for qi, pi in enumerate(picks[ci]):
            if qi == QUERIES_PER_CLIENT - 1:
                # Only the final query waits: the stream must see the
                # last generation, while every update races the rest.
                await last_applied.wait()
            try:
                results, generation, _pruning = await frontend.submit(
                    [pool[pi]], K, tenant=f"client-{ci}"
                )
            except Exception as exc:  # no rejection is acceptable here
                dropped.append((ci, pi, repr(exc)))
                continue
            observed.append(
                (pi, generation, results[0].ranking, results[0].scores)
            )

    async def updater() -> None:
        total = CLIENTS * QUERIES_PER_CLIENT
        for gi, (added, removed) in enumerate(plan, start=1):
            # Interleave: let the stream make progress between updates.
            target = min(gi * total // (len(plan) + 1), total - 1)
            while frontend.stats.completed < target:
                await asyncio.sleep(0.001)
            new_generation = await frontend.apply_update(added, removed)
            assert new_generation == gi
        last_applied.set()

    try:
        await frontend.start()
        await asyncio.wait_for(
            asyncio.gather(updater(), *(client(ci) for ci in range(CLIENTS))),
            timeout=25,
        )
        await frontend.drain()
    finally:
        await frontend.aclose()

    # -- nothing dropped, everything admitted was answered -------------
    assert dropped == []
    assert len(observed) == CLIENTS * QUERIES_PER_CLIENT
    assert frontend.stats.admitted == frontend.stats.completed
    assert frontend.stats.failed == 0
    assert frontend.stats.updates_applied == len(plan)

    # -- the stream really raced the churn ------------------------------
    generations = {generation for _pi, generation, _r, _s in observed}
    assert generations >= {0, len(plan)}, (
        f"stream did not span the churn: saw generations {generations}"
    )

    # -- every answer is bit-identical to a fresh index of its
    #    generation — a torn shard list could not pass this ------------
    for generation in sorted(generations):
        reference = _scratch_answers(
            mapping, db_states[generation], pool, K
        )
        for pi, got_generation, ranking, scores in observed:
            if got_generation != generation:
                continue
            truth = reference[pi]
            assert ranking == truth.ranking, (
                f"generation {generation}, pool query {pi}: ranking "
                f"{ranking} != fresh-built {truth.ranking}"
            )
            assert scores == truth.scores, (
                f"generation {generation}, pool query {pi}: scores diverged"
            )


@pytest.mark.timeout(40)
@pytest.mark.asyncio
async def test_soak_pruning_routed_to_every_shard_under_update_churn():
    """The routed tier under mutation: still bit-exact.

    Clustered database (label-disjoint clusters → block-structured
    embeddings), cluster-sharded service, clients streaming their own
    cluster's queries routed to every shard (``nprobe`` = the shard
    count: one round over the routed shards, whose answers must be the
    scan's) while ``apply_update`` churns rows in and out.
    Every response must be bit-identical to a fresh-built index of its
    generation (summaries maintained through the mutation, never
    stale), and the pruning counters must show every shard scored and
    no bound read while the churn ran.
    """
    from test_pruning import NUM_LABELS, make_clustered, offset_graph

    from repro.query.pruning import SearchPolicy

    db, per_cluster_queries, mapping, blocks = make_clustered(
        queries_per_cluster=6
    )
    extra = [
        offset_graph(g, (i % 3) * NUM_LABELS)
        for i, g in enumerate(
            synthetic_query_set(
                6, avg_edges=14, density=0.3, num_labels=NUM_LABELS,
                seed=777,
            )
        )
    ]
    service = QueryService(
        mapping.query_engine(), shards=blocks, cache_size=256
    )
    frontend = AsyncFrontend(
        service,
        FrontendConfig(batch_size=6, batch_window=0.002, max_queue=512),
    )
    # The churn below never empties a shard: the count stays len(blocks).
    everywhere = SearchPolicy(mode="approx", nprobe=len(blocks))
    plan = [
        ([extra[0], extra[1]], []),
        ([], [3, 17]),
        ([extra[2], extra[3]], [1, 20]),
    ]
    db_states = [list(db)]
    for added, removed in plan:
        db_states.append(_apply_plan(db_states[-1], added, removed))

    queries_per_client = 15
    clients = len(per_cluster_queries)
    rng = np.random.default_rng(4242)
    picks = [
        [int(i) for i in rng.integers(0, len(qs), queries_per_client)]
        for qs in per_cluster_queries
    ]
    observed = []  # (cluster, pool idx, generation, ranking, scores)
    pruning_totals = {"shards_visited": 0, "bound_checks": 0}
    dropped = []
    last_applied = asyncio.Event()

    async def client(ci: int) -> None:
        for qi, pi in enumerate(picks[ci]):
            if qi == queries_per_client - 1:
                await last_applied.wait()
            try:
                results, generation, pruning = await frontend.submit(
                    [per_cluster_queries[ci][pi]], K,
                    tenant=f"client-{ci}", policy=everywhere,
                )
            except Exception as exc:
                dropped.append((ci, pi, repr(exc)))
                continue
            pruning_totals["shards_visited"] += pruning["shards_visited"]
            pruning_totals["bound_checks"] += pruning["bound_checks"]
            observed.append(
                (ci, pi, generation, results[0].ranking, results[0].scores)
            )

    async def updater() -> None:
        total = clients * queries_per_client
        for gi, (added, removed) in enumerate(plan, start=1):
            target = min(gi * total // (len(plan) + 1), total - 1)
            while frontend.stats.completed < target:
                await asyncio.sleep(0.001)
            assert await frontend.apply_update(added, removed) == gi
        last_applied.set()

    try:
        await frontend.start()
        await asyncio.wait_for(
            asyncio.gather(updater(), *(client(ci) for ci in range(clients))),
            timeout=35,
        )
        await frontend.drain()
    finally:
        await frontend.aclose()

    assert dropped == []
    assert len(observed) == clients * queries_per_client
    assert frontend.stats.failed == 0
    generations = {gen for _c, _p, gen, _r, _s in observed}
    assert generations >= {0, len(plan)}, (
        f"stream did not span the churn: saw generations {generations}"
    )
    # Routed to every shard, every response scored every shard and
    # read no bound while the index mutated.
    assert pruning_totals == {
        "shards_visited": len(observed) * len(blocks),
        "bound_checks": 0,
    }

    for generation in sorted(generations):
        for ci, qs in enumerate(per_cluster_queries):
            reference = _scratch_answers(
                mapping, db_states[generation], qs, K
            )
            for c2, pi, got_generation, ranking, scores in observed:
                if c2 != ci or got_generation != generation:
                    continue
                truth = reference[pi]
                assert ranking == truth.ranking, (
                    f"generation {generation}, cluster {ci}, query {pi}: "
                    f"pruned ranking {ranking} != fresh {truth.ranking}"
                )
                assert scores == truth.scores, (
                    f"generation {generation}, cluster {ci}, query {pi}: "
                    "scores diverged under pruning"
                )


@pytest.mark.timeout(60)
@pytest.mark.asyncio
async def test_soak_drift_then_background_heal():
    """The closed staleness loop under live traffic.

    Clients stream while churn pushes selected-support drift past
    ``max_drift``; the front-end's background maintenance loop must
    re-select *off the request path* — no request rejected, dropped, or
    failed — and every answer must stay bit-identical to a fresh-built
    index of its generation, with the pre-heal selection before the
    swap and the post-heal selection after it.
    """
    from test_frontend import _drifting_materials

    mapping, reselector, initial_db, churn = _drifting_materials(
        per_cluster=8
    )
    old_feature_graphs = [f.graph for f in mapping.selected_features()]
    chunks = [churn[: len(churn) // 2], churn[len(churn) // 2:]]
    pool = (initial_db[::4] + churn[::3])[:8]

    service = QueryService(mapping, n_shards=2, cache_size=256)
    frontend = AsyncFrontend(
        service,
        FrontendConfig(
            batch_size=4,
            batch_window=0.002,
            max_queue=1024,
            maintenance_interval=0.01,
            reselector=reselector,
        ),
    )

    stop = asyncio.Event()
    observed = []  # (pool idx, generation, ranking, scores)
    dropped = []
    update_gens = []

    async def client(ci: int) -> None:
        i = 0
        while not stop.is_set():
            pi = (ci + i) % len(pool)
            i += 1
            try:
                results, generation, _pruning = await frontend.submit(
                    [pool[pi]], 5, tenant=f"client-{ci}"
                )
            except Exception as exc:
                dropped.append((ci, pi, repr(exc)))
                return
            observed.append(
                (pi, generation, results[0].ranking, results[0].scores)
            )

    async def controller() -> None:
        loop = asyncio.get_running_loop()
        while frontend.stats.completed < 20:  # warm stream first
            await asyncio.sleep(0.002)
        for chunk in chunks:
            update_gens.append(await frontend.apply_update(chunk, []))
        assert mapping.stale or service.stats.reselections >= 1
        deadline = loop.time() + 30
        while not (service.stats.reselections >= 1 and not mapping.stale):
            assert loop.time() < deadline, "background heal never landed"
            await asyncio.sleep(0.005)
        # Keep streaming past the heal so post-swap generations are
        # actually observed before the clients stand down.
        settled = frontend.stats.completed
        while frontend.stats.completed < settled + 12:
            await asyncio.sleep(0.002)
        stop.set()

    try:
        await frontend.start()
        await asyncio.wait_for(
            asyncio.gather(controller(), *(client(ci) for ci in range(4))),
            timeout=55,
        )
        await frontend.drain()
    finally:
        await frontend.aclose()

    # -- the loop closed, invisibly to the stream ----------------------
    assert dropped == []
    assert frontend.stats.failed == 0
    assert frontend.stats.rejected_quota == 0
    assert frontend.stats.rejected_overload == 0
    assert frontend.stats.admitted == frontend.stats.completed
    assert frontend.stats.maintenance_runs >= 1
    assert frontend.stats.maintenance_failures == 0
    assert service.stats.reselections == 1
    assert reselector.selections_changed == 1
    assert not mapping.stale

    # -- generation bookkeeping: updates and the heal each own one -----
    final_generation = service.generation
    assert final_generation == len(chunks) + 1
    heal_gens = set(range(1, final_generation + 1)) - set(update_gens)
    assert len(heal_gens) == 1  # exactly the re-selection's bump
    heal_gen = heal_gens.pop()
    generations = {generation for _pi, generation, _r, _s in observed}
    assert min(generations) < heal_gen <= max(generations), (
        f"stream did not span the heal: saw {generations}, "
        f"heal at {heal_gen}"
    )

    # -- bit-identity per generation, selection-aware ------------------
    new_feature_graphs = [f.graph for f in mapping.selected_features()]
    assert [g.graph_id for g in new_feature_graphs] != [
        g.graph_id for g in old_feature_graphs
    ]
    db_states = {0: initial_db}
    state = initial_db
    for gen, chunk in zip(update_gens, chunks):
        state = _apply_plan(state, chunk, [])
        db_states[gen] = state
    for generation in sorted(generations):
        db_gens = [g for g in db_states if g <= generation]
        generation_db = db_states[max(db_gens)]
        feature_graphs = (
            new_feature_graphs if generation >= heal_gen
            else old_feature_graphs
        )
        reference = _scratch_answers_for(
            feature_graphs, generation_db, pool, 5
        )
        for pi, got_generation, ranking, scores in observed:
            if got_generation != generation:
                continue
            truth = reference[pi]
            assert ranking == truth.ranking, (
                f"generation {generation} (heal at {heal_gen}), pool "
                f"query {pi}: {ranking} != fresh-built {truth.ranking}"
            )
            assert scores == truth.scores, (
                f"generation {generation}, pool query {pi}: scores diverged"
            )


@pytest.mark.timeout(30)
@pytest.mark.asyncio
async def test_soak_final_state_matches_scratch_rebuild(materials):
    """After the churn settles, the served index *is* the final database."""
    db, extra, pool, _features = materials
    mapping = _fresh_mapping(materials)
    service = QueryService(mapping.query_engine(), n_shards=2)
    frontend = AsyncFrontend(service)
    plan = [([extra[5]], [2, 4]), ([extra[0]], [])]
    final_db = list(db)
    for added, removed in plan:
        final_db = _apply_plan(final_db, added, removed)
    try:
        await frontend.start()
        for added, removed in plan:
            await frontend.apply_update(added, removed)
        answers = [
            await frontend.submit([q], K) for q in pool
        ]
    finally:
        await frontend.aclose()
    reference = _scratch_answers(mapping, final_db, pool, K)
    for (results, generation, _pruning), truth in zip(answers, reference):
        assert generation == len(plan)
        assert results[0].ranking == truth.ranking
        assert results[0].scores == truth.scores
