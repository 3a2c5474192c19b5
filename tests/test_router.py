"""Behaviour tests for the router tier over N serving replicas.

The router's contract extends the frontend's: everything admitted is
answered bit-identically to the engine *regardless of which replica
answers or dies*, no session reads below the cluster generation its
query started at — a restarted replica serves nothing until it is
replayed — and quotas bound a tenant's rate across the whole cluster,
not per replica.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.mapping import mapping_from_selection, variance_selection
from repro.datasets import synthetic_database, synthetic_query_set
from repro.features.binary_matrix import FeatureSpace
from repro.index import load_index, save_index
from repro.mining import mine_frequent_subgraphs
from repro.serving import protocol
from repro.serving.frontend import AsyncFrontend, FrontendConfig
from repro.serving.router import (
    ContentPlacer,
    InprocReplica,
    Router,
    RouterConfig,
    TcpReplica,
)
from repro.serving.service import QueryService
from repro.utils.errors import ReplicaError


@pytest.fixture(scope="module")
def materials(tmp_path_factory):
    db = synthetic_database(28, avg_edges=14, density=0.3, num_labels=5,
                            seed=7)
    queries = synthetic_query_set(
        8, avg_edges=14, density=0.3, num_labels=5, seed=77
    )
    features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=5)
    space = FeatureSpace(features, len(db))
    mapping = mapping_from_selection(space, variance_selection(space, 12))
    path = tmp_path_factory.mktemp("cluster") / "index.json"
    save_index(mapping, path)
    return queries, mapping, str(path)


def _replica(name, artifact, **config_kwargs):
    """A replica over its *own* copy of the index — updates mutate the
    mapping in place, so sharing one would entangle replica states."""
    service = QueryService(
        load_index(artifact).query_engine(), n_shards=2
    )
    frontend = AsyncFrontend(
        service, FrontendConfig(**config_kwargs)
    )
    return InprocReplica(name, frontend)


async def _started(replicas):
    for replica in replicas:
        await replica.frontend.start()
    return replicas


async def _tcp_frontend(artifact, port=0):
    """A ``serve``-like replica process: a frontend over its own copy of
    the artifact, listening on *port* (``0`` binds an ephemeral one)."""
    frontend = AsyncFrontend(
        QueryService(load_index(artifact).query_engine(), n_shards=2),
        FrontendConfig(),
    )
    await frontend.start()
    server = await protocol.serve_tcp(frontend, "127.0.0.1", port)
    return frontend, server


async def _stop_tcp_frontend(frontend, server):
    server.close()
    frontend.begin_drain()
    await server.wait_closed()
    await frontend.aclose()


def _wire_query(q, k, request_id=0, tenant=None):
    request = {
        "op": "query", "id": request_id, "k": k,
        "graph": protocol.graph_to_wire(q),
    }
    if tenant is not None:
        request["tenant"] = tenant
    return request


class TestContentPlacer:
    def test_blocks_deterministic_and_in_range(self, materials):
        queries, mapping, _path = materials
        placer = ContentPlacer(mapping, n_blocks=3)
        blocks = [placer.block_for(q) for q in queries]
        assert all(0 <= b < placer.n_blocks for b in blocks)
        assert blocks == [placer.block_for(q) for q in queries]

    def test_repeat_queries_hit_the_cache(self, materials):
        queries, mapping, _path = materials
        placer = ContentPlacer(mapping, n_blocks=2, cache_size=4)
        placer.block_for(queries[0])
        placer.block_for(queries[0])
        assert len(placer._cache) == 1  # one signature, one entry

    def test_more_blocks_than_rows_collapses(self, materials):
        _queries, mapping, _path = materials
        placer = ContentPlacer(mapping, n_blocks=10_000)
        assert placer.n_blocks == mapping.database_vectors.shape[0]


class TestPlacementRouting:
    @pytest.mark.asyncio
    async def test_content_placed_answers_are_bit_identical(self, materials):
        queries, mapping, path = materials
        oracle = mapping.query_engine()
        # A placer of its own, so the router's placement cache cannot
        # answer for the expectation.
        expected = ContentPlacer(mapping, n_blocks=2)
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        placer = ContentPlacer(mapping, n_blocks=2)
        async with Router(
            replicas, RouterConfig(health_interval=0), placer=placer
        ) as router:
            for i, q in enumerate(queries):
                response = await router.handle_request(
                    _wire_query(q, 5, request_id=i)
                )
                truth = oracle.query(q, 5)
                assert response["ok"] and response["id"] == i
                assert response["ranking"] == truth.ranking
                assert response["scores"] == truth.scores
                # The router decodes the wire graph with the index's
                # label types, so it places the native graph.
                assert response["replica"] == (
                    f"r{expected.block_for(q) % 2}"
                )
            assert router.stats.placed_content == len(queries)
            assert router.stats.placed_round_robin == 0
            assert all(r.routed > 0 for r in replicas)

    @pytest.mark.asyncio
    async def test_place_decodes_with_the_index_label_types(self, materials):
        """Off the wire, an int-labelled index's labels arrive as
        strings.  Decoded with the placer's engine codec they place
        each query on the block its native graph gets."""
        queries, mapping, path = materials
        expected = ContentPlacer(mapping, n_blocks=2)
        placer = ContentPlacer(mapping, n_blocks=2)
        assert "int" in placer.engine.label_codec.table.values()
        blocks = [expected.block_for(q) for q in queries]
        assert sorted(set(blocks)) == [0, 1]
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        async with Router(
            replicas, RouterConfig(health_interval=0), placer=placer
        ) as router:
            for q, block in zip(queries, blocks):
                chosen = router._place(_wire_query(q, 3), replicas)
                assert chosen is replicas[block]
            assert router.stats.placed_content == len(queries)

    @pytest.mark.asyncio
    async def test_no_placer_round_robins_over_replicas(self, materials):
        queries, _mapping, path = materials
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        async with Router(
            replicas, RouterConfig(health_interval=0)
        ) as router:
            for q in queries:
                assert (await router.handle_request(_wire_query(q, 3)))["ok"]
            assert router.stats.placed_round_robin == len(queries)
            assert all(r.routed == len(queries) // 2 for r in replicas)


class TestFailover:
    @pytest.mark.asyncio
    async def test_dead_replica_fails_over_bit_identically(self, materials):
        queries, mapping, path = materials
        oracle = mapping.query_engine()
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        async with Router(
            replicas, RouterConfig(health_interval=0)
        ) as router:
            replicas[0].fail()
            for q in queries:
                response = await router.handle_request(_wire_query(q, 4))
                assert response["ok"]
                assert response["replica"] == "r1"
                assert response["ranking"] == oracle.query(q, 4).ranking
            assert router.stats.failovers >= 1
            assert router.stats.replicas_lost == 1
            assert router.stats.completed == len(queries)

    @pytest.mark.asyncio
    async def test_all_replicas_down_is_structured_overload(self, materials):
        queries, _mapping, path = materials
        replicas = await _started([_replica("only", path)])
        async with Router(
            replicas, RouterConfig(health_interval=0)
        ) as router:
            replicas[0].fail()
            response = await router.handle_request(_wire_query(queries[0], 3))
            assert not response["ok"]
            assert response["error"] == "overloaded"
            assert "no healthy replica" in response["message"]


class TestReadYourWrites:
    @pytest.mark.asyncio
    async def test_update_fans_out_and_every_session_reads_it(
        self, materials
    ):
        """Once an update is acknowledged, every replica in rotation has
        applied it: the writer and a tenant that never wrote both read
        its generation."""
        queries, _mapping, path = materials
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        # The gen-1 oracle: a private copy mutated the same way a
        # replica's apply_update would (removes first, then adds).
        shadow = load_index(path)
        shadow.remove_graphs([0, 1])
        shadow.add_graphs([queries[0]])
        shadow_engine = shadow.query_engine()
        async with Router(
            replicas, RouterConfig(health_interval=0)
        ) as router:
            response = await router.handle_request(
                {
                    "op": "update", "id": 1, "remove": [0, 1],
                    "add": [protocol.graph_to_wire(queries[0])],
                    "tenant": "writer",
                }
            )
            assert response["ok"]
            assert response["generation"] == 1
            assert response["replicas_updated"] == 2
            for tenant in ("writer", "reader"):
                for q in queries:
                    answer = await router.handle_request(
                        _wire_query(q, 4, tenant=tenant)
                    )
                    truth = shadow_engine.query(q, 4)
                    assert answer["ok"] and answer["generation"] == 1
                    assert answer["ranking"] == truth.ranking
                    assert answer["scores"] == truth.scores

    @pytest.mark.asyncio
    async def test_unnoticed_restart_is_never_read(self, materials):
        """r0 restarts from the artifact (generation 0) behind the
        router's back: its in-process frontend is swapped for a fresh
        one, and nothing admits it again.  Its first answer is below the
        cluster generation, so it is marked down and the query retried
        on r1; no session — writer or reader — reads generation 0."""
        queries, _mapping, path = materials
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        async with Router(
            replicas, RouterConfig(health_interval=0)
        ) as router:
            await router.handle_request(
                {"op": "update", "id": 1, "remove": [0], "tenant": "writer"}
            )
            (restarted,) = await _started([_replica("r0", path)])
            crashed, replicas[0].frontend = (
                replicas[0].frontend, restarted.frontend
            )
            await crashed.aclose()
            for tenant in ("writer", "reader"):
                for q in queries:
                    answer = await router.handle_request(
                        _wire_query(q, 3, tenant=tenant)
                    )
                    assert answer["ok"]
                    assert answer["replica"] == "r1"
                    assert answer["generation"] == 1
            assert not replicas[0].healthy
            assert router.stats.stale_rerouted >= 1

    @pytest.mark.asyncio
    async def test_update_on_an_unnoticed_restart_is_never_readmitted(
        self, materials
    ):
        """r0 restarts from the artifact behind the router's back and
        the next update reaches it before any query or ping does: it
        applies ``remove [5]`` on generation 0 and answers generation 1,
        a database no build of the log's generation 2 matches.  It is
        not counted as updated and is refused by admission for good (a
        replay from its own count would put it back as "generation 2");
        a fresh handle for the slot is replayed from scratch."""
        queries, _mapping, path = materials
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        shadow = load_index(path)
        shadow.remove_graphs([0])
        shadow.remove_graphs([5])
        shadow_engine = shadow.query_engine()
        async with Router(
            replicas, RouterConfig(health_interval=0)
        ) as router:
            await router.handle_request({"op": "update", "id": 1, "remove": [0]})
            (restarted,) = await _started([_replica("r0", path)])
            crashed, replicas[0].frontend = (
                replicas[0].frontend, restarted.frontend
            )
            await crashed.aclose()
            response = await router.handle_request(
                {"op": "update", "id": 2, "remove": [5]}
            )
            assert response["ok"] and response["generation"] == 2
            assert response["replicas_updated"] == 1
            assert replicas[0].frontend.service.generation == 1
            assert not replicas[0].healthy
            with pytest.raises(ReplicaError, match="does not describe"):
                await router.admit_replica(replicas[0])
            assert not replicas[0].healthy
            assert router.stats.replayed_entries == 0
            (fresh,) = await _started([_replica("r0b", path)])
            await router.admit_replica(fresh, replace="r0")
            assert router.stats.replayed_entries == 2
            router._mark_down(replicas[1])
            for q in queries:
                answer = await router.handle_request(_wire_query(q, 4))
                truth = shadow_engine.query(q, 4)
                assert answer["replica"] == "r0b"
                assert answer["ok"] and answer["generation"] == 2
                assert answer["ranking"] == truth.ranking
            await replicas[0].close()  # the fenced handle is ours to reap

    @pytest.mark.asyncio
    async def test_restart_mid_replay_is_never_admitted(self, materials):
        """The replica restarts after applying the first replayed entry:
        it applies the second on generation 0 and answers generation 1.
        Admission stops there and refuses the handle from then on,
        instead of replaying entry 1 again on the wrong database."""
        _queries, _mapping, path = materials

        class RestartsMidReplay(InprocReplica):
            async def request(self, payload):
                if payload["id"] == "replay-1":
                    self.old, self.frontend = self.frontend, self.fresh
                return await super().request(payload)

        (r0,) = await _started([_replica("r0", path)])
        async with Router([r0], RouterConfig(health_interval=0)) as router:
            for i, rows in enumerate(([0], [5]), 1):
                await router.handle_request(
                    {"op": "update", "id": i, "remove": rows}
                )
            (late,) = await _started([_replica("late", path)])
            (fresh,) = await _started([_replica("late", path)])
            late = RestartsMidReplay("late", late.frontend)
            late.fresh = fresh.frontend
            with pytest.raises(ReplicaError, match="did not apply"):
                await router.admit_replica(late)
            assert late.frontend.service.generation == 1
            assert router.stats.replayed_entries == 1
            with pytest.raises(ReplicaError, match="does not describe"):
                await router.admit_replica(late)
            assert not late.healthy and late not in router.replicas
            await late.old.aclose()
            await late.close()

    @pytest.mark.asyncio
    async def test_replica_ahead_of_the_log_is_refused(self, materials):
        """An update sent to a replica directly, not through the router,
        puts it at a generation the log never had: admission refuses it
        rather than serve a database no acknowledged update describes."""
        _queries, _mapping, path = materials
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        async with Router(
            replicas, RouterConfig(health_interval=0)
        ) as router:
            direct = await replicas[0].frontend.handle_request(
                {"op": "update", "id": 1, "remove": [0]}
            )
            assert direct["ok"] and direct["generation"] == 1
            router._mark_down(replicas[0])
            with pytest.raises(ReplicaError, match="does not describe"):
                await router.admit_replica(replicas[0])
            assert not replicas[0].healthy and router.generation == 0

    @pytest.mark.asyncio
    @pytest.mark.parametrize(
        "fields, seen",
        [({}, 0), ({"add": []}, 0), ({"remove": []}, 0),
         ({"remove": [999]}, 1), ({"remove": [-1]}, 1),
         ({"remove": list(range(28))}, 1)],
        ids=["neither", "empty-add", "empty-remove", "out-of-range",
             "negative", "everything"],  # the fixture holds 28 graphs
    )
    async def test_refused_update_is_not_a_cluster_generation(
        self, materials, fields, seen
    ):
        """An update that changes nothing used to be answered ``ok`` by
        every replica without advancing their generation, while the
        router counted one: the writer's floor then sat one above every
        replica for good.  It is refused at the shared parse boundary;
        one the replicas refuse unanimously (*seen* by each) comes back
        verbatim under the caller's id.  Either way the cluster
        generation stays put — an accepted update is exactly one
        generation on every tier."""
        queries, _mapping, path = materials
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        async with Router(
            replicas, RouterConfig(health_interval=0)
        ) as router:
            refused = await router.handle_line(
                json.dumps({"op": "update", "id": 2, "tenant": "w", **fields})
            )
            assert not refused["ok"] and refused["error"] == "bad_request"
            assert refused["id"] == 2
            assert router.generation == 0 and router._update_log == []
            assert router.stats.bad_requests == 1 - seen
            for replica in replicas:
                assert replica.healthy
                assert replica.frontend.service.generation == 0
                assert replica.frontend.stats.bad_requests == seen
            answer = await router.handle_line(
                json.dumps(_wire_query(queries[0], 3, 3, tenant="w"))
            )
            assert answer["ok"] and answer["generation"] == 0
            # ... and a real update is one generation, everywhere.
            applied = await router.handle_line(
                json.dumps(
                    {"op": "update", "id": 4, "tenant": "w", "remove": [0, 0]}
                )
            )
            assert applied["ok"] and applied["removed"] == 1
            assert applied["generation"] == 1
            assert [r.frontend.service.generation for r in replicas] == [1, 1]
            assert len(router._update_log) == 1
            answer = await router.handle_line(
                json.dumps(_wire_query(queries[0], 3, 5, tenant="w"))
            )
            assert answer["ok"] and answer["generation"] == 1

    @pytest.mark.asyncio
    async def test_restarted_replica_catches_up_via_replay(self, materials):
        queries, _mapping, path = materials
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        async with Router(
            replicas, RouterConfig(health_interval=0)
        ) as router:
            await router.handle_request(
                {"op": "update", "id": 1, "remove": [0, 2],
                 "tenant": "writer"}
            )
            replicas[1].fail()
            router._mark_down(replicas[1])
            # "Restart from the artifact": generation 0 again.
            (replacement,) = await _started([_replica("r1b", path)])
            await router.admit_replica(replacement, replace="r1")
            assert replacement.generation == 1  # caught up before serving
            assert router.stats.replayed_entries == 1
            assert router.replicas[1] is replacement  # slot preserved
            answer = await router.handle_request(
                _wire_query(queries[0], 3, tenant="writer")
            )
            assert answer["ok"] and answer["generation"] == 1
            await replicas[1].close()  # the dead handle is ours to reap


class TestClusterQuota:
    @pytest.mark.asyncio
    async def test_quota_is_cluster_wide_not_per_replica(self, materials):
        """Two replicas must not double a tenant's budget: the third
        query is rejected even though each replica alone saw one."""
        queries, _mapping, path = materials
        clock = [0.0]
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        async with Router(
            replicas,
            RouterConfig(
                health_interval=0, quota_rate=1.0, quota_burst=2.0,
                clock=lambda: clock[0],
            ),
        ) as router:
            for q in queries[:2]:
                assert (
                    await router.handle_request(_wire_query(q, 3, tenant="t"))
                )["ok"]
            assert all(r.routed == 1 for r in replicas)
            rejected = await router.handle_request(
                _wire_query(queries[2], 3, tenant="t")
            )
            assert not rejected["ok"]
            assert rejected["error"] == "quota_exceeded"
            assert rejected["retry_after"] == pytest.approx(1.0)

    @pytest.mark.asyncio
    async def test_malformed_search_spends_no_quota(self, materials):
        """A bad ``search`` section is refused before admission, as a
        replica refuses it: the tenant's one token still answers its
        next valid query, and nothing is counted as admitted."""
        queries, _mapping, path = materials
        replicas = await _started([_replica("r0", path)])
        async with Router(
            replicas,
            RouterConfig(
                health_interval=0, quota_rate=1.0, quota_burst=1.0,
                clock=lambda: 0.0,
            ),
        ) as router:
            bad = _wire_query(queries[0], 3, tenant="t")
            bad["search"] = {"mode": "bogus"}
            refused = await router.handle_request(bad)
            assert not refused["ok"] and refused["error"] == "bad_request"
            answered = await router.handle_request(
                _wire_query(queries[1], 3, tenant="t")
            )
            assert answered["ok"]
            assert router.stats.bad_requests == 1
            assert router.stats.failed == 0
            assert router.stats.rejected_quota == 0
            assert router.stats.admitted == 1
            assert replicas[0].frontend.stats.bad_requests == 0  # unseen

    @pytest.mark.asyncio
    async def test_name_cycling_is_bounded_and_counted(self, materials):
        queries, _mapping, path = materials
        clock = [0.0]
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        rate, burst, max_tenants = 2.0, 2.0, 2
        async with Router(
            replicas,
            RouterConfig(
                health_interval=0, quota_rate=rate, quota_burst=burst,
                max_tenants=max_tenants, clock=lambda: clock[0],
            ),
        ) as router:
            admitted = 0
            while clock[0] < 5.0:
                for i in range(max_tenants + 1):
                    response = await router.handle_request(
                        _wire_query(queries[0], 3, tenant=f"cycler-{i}")
                    )
                    admitted += int(response["ok"])
                clock[0] += 0.1
            budget = max_tenants + burst + rate * 5.0
            assert admitted <= budget + 1
            assert router.stats.rejected_quota > 0


class TestBackpressure:
    @pytest.mark.asyncio
    async def test_retry_after_folds_depth_and_drain_rate(self, materials):
        queries, _mapping, path = materials
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        async with Router(
            replicas, RouterConfig(health_interval=0, max_inflight=1)
        ) as router:
            # Measured state: r0 drains 10ms/query with 4 ahead, r1
            # drains 50ms/query with nothing ahead.  The honest quote is
            # the *least* loaded replica's drain time.
            replicas[0]._drain_interval = 0.01
            replicas[0].reported_queue_depth = 4
            replicas[1]._drain_interval = 0.05
            router._inflight = 1  # saturate cluster admission
            response = await router.handle_request(_wire_query(queries[0], 3))
            router._inflight = 0
            assert not response["ok"]
            assert response["error"] == "overloaded"
            expected = min((4 + 1) * 0.01, (0 + 1) * 0.05)
            assert response["retry_after"] == pytest.approx(expected)

    @pytest.mark.asyncio
    async def test_unmeasured_cluster_quotes_conservative_floor(
        self, materials
    ):
        queries, _mapping, path = materials
        replicas = await _started([_replica("r0", path)])
        async with Router(
            replicas, RouterConfig(health_interval=0, max_inflight=2)
        ) as router:
            router._inflight = 2
            response = await router.handle_request(
                {"op": "batch", "id": 1, "k": 3, "graphs": [
                    protocol.graph_to_wire(q) for q in queries[:2]
                ]}
            )
            router._inflight = 0
            assert not response["ok"] and response["error"] == "overloaded"
            assert response["retry_after"] == pytest.approx(0.05 * 2)

    @pytest.mark.asyncio
    async def test_drain_rate_measured_on_configured_clock(self, materials):
        """Regression: completion times were stamped with
        ``time.monotonic()`` even when ``RouterConfig`` supplied its own
        clock, so any virtual-time harness saw microsecond drain
        estimates instead of the modelled interval. Zero sleeps: the
        EWMA must read exactly the virtual time between completions."""
        queries, _mapping, path = materials
        clock = [0.0]
        replicas = await _started([_replica("r0", path)])
        async with Router(
            replicas,
            RouterConfig(health_interval=0, clock=lambda: clock[0]),
        ) as router:
            assert (
                await router.handle_request(_wire_query(queries[0], 3))
            )["ok"]
            clock[0] = 2.0  # the second query "takes" 2 virtual seconds
            assert (
                await router.handle_request(_wire_query(queries[1], 3))
            )["ok"]
            assert replicas[0].drain_interval == pytest.approx(2.0)
            described = replicas[0].describe()
            assert described["drain_interval"] == pytest.approx(2.0)


class TestRouterConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("quota_rate", float("nan")),
            ("quota_rate", float("inf")),
            ("quota_burst", float("nan")),
            ("quota_burst", float("inf")),
            ("drain_timeout", float("nan")),
            ("drain_timeout", float("inf")),
            ("drain_timeout", -1.0),
            ("health_interval", float("nan")),
            ("health_interval", float("inf")),
            ("health_interval", -1.0),
            ("max_inflight", float("nan")),
            ("max_tenants", float("nan")),
        ],
    )
    def test_non_finite_or_negative_numbers_rejected(self, field, value):
        """Each of these used to construct, and a NaN or negative
        ``health_interval`` then failed the loop's ``> 0`` test and
        switched health checks off; ``0`` is the one way to do that.
        A NaN ``max_inflight`` switched the in-flight bound off:
        ``inflight + cost > nan`` is never true."""
        config = {field: value}
        if field == "quota_burst":
            config["quota_rate"] = 5.0
        with pytest.raises(
            ValueError, match=f"{field} must be (a finite|an integer)"
        ):
            RouterConfig(**config)

    def test_numpy_integer_counts_accepted(self):
        """A count is any integer, not only a Python ``int``."""
        config = RouterConfig(
            max_inflight=np.int64(8), max_tenants=np.int32(3)
        )
        assert (config.max_inflight, config.max_tenants) == (8, 3)


class TestStatsAndProtocol:
    @pytest.mark.asyncio
    async def test_op_the_router_does_not_serve_is_a_bad_request(
        self, materials
    ):
        """``maintain`` is a well-formed op (``protocol.OPS``) with no
        router dispatch: it used to fall through to an ``AssertionError``
        that killed the connection's dispatch task (TCP) or the process
        (stdio).  It is answered, by the router alone — no replica sees
        it — and the session carries on."""
        _queries, _mapping, path = materials
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        async with Router(
            replicas, RouterConfig(health_interval=0)
        ) as router:
            refused = await router.handle_line(
                json.dumps({"op": "maintain", "id": 7})
            )
            assert refused["id"] == 7 and not refused["ok"]
            assert refused["error"] == "bad_request"
            for op in ("query", "batch", "update", "reload", "stats",
                       "ping", "shutdown"):
                assert op in refused["message"]
            assert router.stats.bad_requests == 1
            for replica in replicas:
                assert replica.frontend.stats.maintenance_runs == 0
            pong = await router.handle_line(json.dumps({"op": "ping", "id": 8}))
            assert pong["ok"] and pong["id"] == 8

    @pytest.mark.asyncio
    async def test_json_booleans_never_reach_a_replica(self, materials):
        """``"remove": [true]`` is ``remove=[1]`` to ``isinstance(x,
        int)``: the router parses with the frontend's function, so the
        entry is refused before it is logged or fanned out."""
        queries, _mapping, path = materials
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        rows = [
            r.frontend.service.mapping.database_vectors.shape[0]
            for r in replicas
        ]
        wire = protocol.graph_to_wire(queries[0])
        async with Router(
            replicas, RouterConfig(health_interval=0)
        ) as router:
            for request in (
                {"op": "update", "id": 1, "remove": [True]},
                {"op": "query", "id": 2, "k": True, "graph": wire},
            ):
                bad = await router.handle_line(json.dumps(request))
                assert not bad["ok"] and bad["error"] == "bad_request"
            assert router.stats.bad_requests == 2
            assert router.generation == 0 and router._update_log == []
            for replica, n in zip(replicas, rows):
                service = replica.frontend.service
                assert service.generation == 0
                assert service.stats.updates == 0
                assert service.mapping.database_vectors.shape[0] == n
                assert replica.frontend.stats.bad_requests == 0  # unseen

    @pytest.mark.asyncio
    @pytest.mark.timeout(30)
    async def test_router_serves_the_ndjson_tcp_protocol(self, materials):
        """serve_tcp runs a Router exactly like an AsyncFrontend."""
        queries, mapping, path = materials
        oracle = mapping.query_engine()
        replicas = await _started(
            [_replica(f"r{i}", path) for i in range(2)]
        )
        router = await Router(
            replicas, RouterConfig(health_interval=0)
        ).start()
        server = await protocol.serve_tcp(router, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                (json.dumps(_wire_query(queries[0], 3, request_id=1)) + "\n")
                .encode()
            )
            await writer.drain()
            answer = json.loads(await reader.readline())
            assert answer["ok"]
            assert answer["ranking"] == oracle.query(queries[0], 3).ranking
            writer.write((json.dumps({"op": "shutdown", "id": 2}) + "\n")
                         .encode())
            await writer.drain()
            bye = json.loads(await reader.readline())
            assert bye["ok"] and bye["draining"]
            assert router.draining
            writer.close()
            server.close()
            await asyncio.wait_for(server.wait_closed(), timeout=5)
        finally:
            await router.aclose()


class TestTcpReplicaTransport:
    @pytest.mark.asyncio
    @pytest.mark.timeout(30)
    async def test_tcp_replica_round_trip_and_death(self, materials):
        queries, mapping, path = materials
        oracle = mapping.query_engine()
        frontend, server = await _tcp_frontend(path)
        port = server.sockets[0].getsockname()[1]
        replica = TcpReplica("tcp0", "127.0.0.1", port)
        try:
            pong = await replica.request({"op": "ping", "id": "p"})
            assert pong["ok"]
            # Pipelined requests correlate by id, not arrival order.
            answers = await asyncio.gather(
                *(replica.request(_wire_query(q, 3, request_id=f"x{i}"))
                  for i, q in enumerate(queries[:4]))
            )
            for q, answer in zip(queries[:4], answers):
                assert answer["ok"]
                assert answer["ranking"] == oracle.query(q, 3).ranking
            # Server dies: the transport surfaces ReplicaError, the
            # router's failover layer takes it from there.
            server.close()
            frontend.begin_drain()
            await server.wait_closed()
            for _ in range(1000):  # until the peer's close reaches us
                if replica._writer is None:
                    break
                await asyncio.sleep(0.005)
            assert replica._writer is None
            with pytest.raises(ReplicaError):
                await replica.request(_wire_query(queries[0], 3,
                                                  request_id="dead"))
        finally:
            await replica.close()
            await frontend.aclose()

    @pytest.mark.asyncio
    @pytest.mark.timeout(30)
    @pytest.mark.parametrize(
        "health_interval", [0.1, 0], ids=["health-loop", "no-health-loop"]
    )
    async def test_serve_restarted_on_its_address_is_replayed_first(
        self, materials, health_interval
    ):
        """A ``serve`` restarted from its artifact on the same address is
        at generation 0, and :class:`TcpReplica` reconnects to it by
        itself.  That used to put it back in rotation without the
        update-log replay: readers were answered from generation 0, the
        removed rows back in the database, and the writer was refused
        for good.  The health loop now finds it behind and re-admits it
        through the replay; with the loop off, its first answer below
        the cluster generation takes it out of rotation, and no client
        reads it until it is admitted again."""
        queries, _mapping, path = materials
        shadow = load_index(path)
        shadow.remove_graphs([0, 1])
        oracle = shadow.query_engine()
        frontend, server = await _tcp_frontend(path)
        port = server.sockets[0].getsockname()[1]
        replica = TcpReplica("tcp0", "127.0.0.1", port)
        router = await Router(
            [replica], RouterConfig(health_interval=health_interval)
        ).start()
        try:
            applied = await router.handle_request(
                {"op": "update", "id": 1, "remove": [0, 1],
                 "tenant": "writer"}
            )
            assert applied["ok"] and router.generation == 1
            # The restart: a new process image, the same port, and no
            # request of the router's in flight to notice it.
            server.close()
            restarted = await _tcp_frontend(path, port)
            frontend.begin_drain()
            await frontend.aclose()
            frontend, server = restarted
            if health_interval:
                for _ in range(400):
                    if replica.healthy and router.stats.replayed_entries:
                        break
                    await asyncio.sleep(0.01)
            else:
                for _ in range(1000):  # until the old peer's close lands
                    if replica._writer is None:
                        break
                    await asyncio.sleep(0.005)
                for tenant in ("reader", "writer"):
                    refused = await router.handle_request(
                        _wire_query(queries[0], 3, tenant=tenant)
                    )
                    assert not refused["ok"]
                    assert refused["error"] == "overloaded"
                assert not replica.healthy
                assert router.stats.stale_rerouted == 1
                await router.admit_replica(replica)
            assert router.stats.replayed_entries == 1
            assert replica.healthy and replica.generation == 1
            for tenant in ("reader", "writer"):
                for q in queries:
                    answer = await router.handle_request(
                        _wire_query(q, 3, tenant=tenant)
                    )
                    truth = oracle.query(q, 3)
                    assert answer["ok"] and answer["generation"] == 1
                    assert answer["ranking"] == truth.ranking
                    assert answer["scores"] == truth.scores
        finally:
            await router.aclose()
            await _stop_tcp_frontend(frontend, server)
