"""The admission lifecycle both serving tiers share, tested once per tier.

:class:`~repro.serving.frontend.AsyncFrontend` and
:class:`~repro.serving.router.Router` admit through one
:class:`~repro.serving.gate.RequestGate`, so every case here runs
against each: a frontend over a two-shard service, and a router over
one in-process replica of such a frontend.  Tier-specific behaviour
(coalescing, failover, read-your-writes, each tier's ``retry_after``
formula) stays in ``test_frontend.py`` / ``test_router.py``.
"""

import asyncio
import json

import pytest

from repro.core.mapping import mapping_from_selection, variance_selection
from repro.datasets import synthetic_database, synthetic_query_set
from repro.features.binary_matrix import FeatureSpace
from repro.mining import mine_frequent_subgraphs
from repro.serving import protocol
from repro.serving.frontend import AsyncFrontend, FrontendConfig
from repro.serving.router import InprocReplica, Router, RouterConfig
from repro.serving.service import QueryService

#: The admission keys both tiers' ``stats`` sections carry.
ADMISSION_KEYS = {
    "admitted", "completed", "failed", "rejected_quota",
    "rejected_overload", "rejected_draining", "bad_requests",
    "queue_peak", "bucket_evictions", "per_tenant",
}


@pytest.fixture(scope="module")
def materials():
    db = synthetic_database(30, avg_edges=16, density=0.3, num_labels=5, seed=3)
    queries = synthetic_query_set(
        10, avg_edges=16, density=0.3, num_labels=5, seed=99
    )
    features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=5)
    space = FeatureSpace(features, len(db))
    mapping = mapping_from_selection(space, variance_selection(space, 15))
    return queries, mapping.query_engine()


def _frontend(engine, **config_kwargs):
    service = QueryService(engine, n_shards=2, n_workers=0)
    return AsyncFrontend(
        service, FrontendConfig(**config_kwargs), own_service=True
    )


class _Tier:
    """Starts one serving tier with the admission knobs a case sets.

    *capacity* is ``max_queue`` on a frontend and ``max_inflight`` on a
    router; every other keyword is a field both configs share.
    """

    def __init__(self, kind, engine):
        self.kind = kind
        self.section = kind  # the tier's own ``stats`` section
        self._engine = engine

    async def start(self, capacity=None, **config_kwargs):
        if self.kind == "frontend":
            if capacity is not None:
                config_kwargs["max_queue"] = capacity
            return await _frontend(self._engine, **config_kwargs).start()
        if capacity is not None:
            config_kwargs["max_inflight"] = capacity
        replica = InprocReplica("r0", await _frontend(self._engine).start())
        return await Router(
            [replica], RouterConfig(health_interval=0, **config_kwargs)
        ).start()


@pytest.fixture(params=["frontend", "router"])
def tier(request, materials):
    return _Tier(request.param, materials[1])


def _query_line(q, k=3, request_id=0, tenant=None):
    request = {
        "op": "query", "id": request_id, "k": k,
        "graph": protocol.graph_to_wire(q),
    }
    if tenant is not None:
        request["tenant"] = tenant
    return json.dumps(request)


def _assert_counters_balance(server):
    """Every admitted query ended exactly once, or is still in flight."""
    stats = server.stats
    assert stats.admitted == (
        stats.completed + stats.failed + server.queue_depth
    )


@pytest.mark.asyncio
async def test_draining_rejects_new_work(tier, materials):
    queries, _engine = materials
    server = await tier.start()
    try:
        server.begin_drain()
        response = await server.handle_line(_query_line(queries[0]))
        assert not response["ok"]
        assert response["error"] == "shutting_down"
        assert "retry_after" not in response
        assert server.stats.rejected_draining == 1
        assert server.stats.admitted == 0
    finally:
        await server.aclose()


@pytest.mark.asyncio
async def test_request_larger_than_capacity_can_never_retry(tier, materials):
    queries, _engine = materials
    server = await tier.start(capacity=2)
    try:
        response = await server.handle_line(json.dumps({
            "op": "batch", "id": 1, "k": 3,
            "graphs": [protocol.graph_to_wire(q) for q in queries[:3]],
        }))
        assert not response["ok"] and response["error"] == "overloaded"
        assert "retry_after" not in response
        assert server.stats.rejected_overload == 3
        assert server.stats.admitted == 0
    finally:
        await server.aclose()


@pytest.mark.asyncio
async def test_quota_refill_on_virtual_time_no_sleeps(tier, materials):
    queries, _engine = materials
    clock = [0.0]
    server = await tier.start(
        quota_rate=1.0, quota_burst=2.0, clock=lambda: clock[0]
    )
    try:
        for i, q in enumerate(queries[:2]):
            assert (await server.handle_line(
                _query_line(q, request_id=i, tenant="t")
            ))["ok"]
        rejected = await server.handle_line(
            _query_line(queries[2], request_id=2, tenant="t")
        )
        assert not rejected["ok"] and rejected["error"] == "quota_exceeded"
        assert rejected["retry_after"] == pytest.approx(1.0)
        clock[0] = 1.0  # the quoted wait, in virtual time
        assert (await server.handle_line(
            _query_line(queries[2], request_id=3, tenant="t")
        ))["ok"]
        assert server.stats.per_tenant["t"] == {
            "admitted": 3, "rejected_quota": 1,
        }
    finally:
        await server.aclose()


@pytest.mark.asyncio
async def test_bucket_evictions_counted(tier, materials):
    queries, _engine = materials
    server = await tier.start(
        quota_rate=100.0, quota_burst=100.0, max_tenants=2
    )
    try:
        for i in range(5):
            assert (await server.handle_line(
                _query_line(queries[0], tenant=f"t{i}")
            ))["ok"]
        payload = server.stats_payload()[tier.section]
        assert payload["bucket_evictions"] == 3
        # The stats table is capped by the same knob as the buckets.
        assert len(payload["per_tenant"]) == 3  # 2 named + "<other>"
        assert payload["per_tenant"]["<other>"]["admitted"] == 3
    finally:
        await server.aclose()


@pytest.mark.asyncio
async def test_bad_lines_named_by_id_and_ping_charges_nothing(
    tier, materials
):
    server = await tier.start()
    try:
        response = await server.handle_line("{ not json")
        assert not response["ok"] and response["error"] == "bad_request"
        assert response["id"] is None  # nothing to name
        # Once the line is an object the rejection names its request.
        for fields in ({"op": "frobnicate"},
                       {"op": "query", "k": "five", "graph": {}},
                       {"op": "batch", "k": 3, "graphs": []}):
            response = await server.handle_line(
                json.dumps({"id": 41, **fields})
            )
            assert not response["ok"] and response["id"] == 41
            assert response["error"] == "bad_request"
        assert server.stats.bad_requests == 4
        # A graph only the index's decoder can judge: refused all the
        # same, under its id (at the router, by the replica).
        response = await server.handle_line(json.dumps(
            {"op": "query", "id": 42, "k": 5, "graph": {"vertices": 3}}
        ))
        assert not response["ok"] and response["error"] == "bad_request"
        assert response["id"] == 42
        admitted = server.stats.admitted
        pong = await server.handle_line(json.dumps({"op": "ping", "id": 4}))
        assert pong["ok"] and pong["id"] == 4
        assert pong["generation"] == 0
        assert pong["queue_depth"] == 0
        assert pong["draining"] is False
        assert server.stats.admitted == admitted  # no admission charged
    finally:
        await server.aclose()


@pytest.mark.asyncio
async def test_zero_k_is_refused_before_admission(tier, materials):
    """``k: 0`` can never succeed, so it must spend no token and count
    no failure: it used to be admitted first, and two of them left a
    compliant tenant's next valid query ``quota_exceeded``."""
    queries, _engine = materials
    server = await tier.start(
        quota_rate=1.0, quota_burst=2.0, clock=lambda: 0.0
    )
    try:
        for request_id in (1, 2):
            refused = await server.handle_line(
                _query_line(queries[0], k=0, request_id=request_id,
                            tenant="t")
            )
            assert not refused["ok"] and refused["id"] == request_id
            assert refused["error"] == "bad_request"
        answer = await server.handle_line(
            _query_line(queries[0], request_id=3, tenant="t")
        )
        assert answer["ok"] and answer["id"] == 3
        assert server.stats.admitted == 1
        assert server.stats.failed == 0
        assert server.stats.bad_requests == 2
    finally:
        await server.aclose()


@pytest.mark.asyncio
async def test_stats_payload_shape(tier, materials):
    queries, _engine = materials
    server = await tier.start()
    try:
        assert (await server.handle_line(
            _query_line(queries[0], tenant="t1")
        ))["ok"]
        response = await server.handle_line(
            json.dumps({"op": "stats", "id": 9})
        )
        assert response["ok"] and response["id"] == 9
        assert response["generation"] == 0
        assert response["queue_depth"] == 0
        assert response["draining"] is False
        section = response[tier.section]
        assert ADMISSION_KEYS <= set(section)
        assert section["admitted"] == section["completed"] == 1
        assert section["queue_peak"] == 1
        assert section["per_tenant"]["t1"]["admitted"] == 1
        if tier.kind == "frontend":
            assert response["service"]["queries"] == 1
            assert response["service"]["n_shards"] == 2
        else:
            assert [r["name"] for r in response["replicas"]] == ["r0"]
            assert all(r["healthy"] for r in response["replicas"])
    finally:
        await server.aclose()


@pytest.mark.asyncio
async def test_counters_balance_across_a_mixed_stream(tier, materials):
    """``admitted == completed + failed + queue_depth`` after ok,
    overloaded, bad-request and quota-rejected requests — and, at the
    router, after its only replica dies mid-stream."""
    queries, _engine = materials
    server = await tier.start(
        capacity=4, quota_rate=1.0, quota_burst=4.0, clock=lambda: 0.0
    )
    try:
        for i in range(5):  # the fifth is over quota
            await server.handle_line(
                _query_line(queries[i], request_id=i, tenant="a")
            )
        await server.handle_line(json.dumps({  # bigger than capacity
            "op": "batch", "id": 5, "k": 3,
            "graphs": [protocol.graph_to_wire(q) for q in queries[:5]],
        }))
        await server.handle_line(_query_line(queries[0], k=0))
        # Well-formed line, undecodable graph: the frontend refuses it
        # before admission, the router only once a replica has.
        await server.handle_line(json.dumps(
            {"op": "query", "id": 6, "k": 3, "graph": {"vertices": 3}}
        ))
        await asyncio.gather(*(
            server.handle_line(_query_line(q, tenant=f"b{i}"))
            for i, q in enumerate(queries[:8])
        ))
        _assert_counters_balance(server)
        if tier.kind == "router":
            server.replicas[0].fail()
            dead = await server.handle_line(_query_line(queries[0]))
            assert dead["error"] == "overloaded"
            _assert_counters_balance(server)
            assert server.stats.failed >= 2
        stats = server.stats
        assert stats.completed >= 4
        assert stats.rejected_quota >= 1
        assert stats.rejected_overload >= 5
        assert stats.bad_requests >= 1
    finally:
        await server.aclose()


@pytest.mark.asyncio
async def test_both_tiers_report_the_same_admission_keys(materials):
    queries, engine = materials
    frontend = await _frontend(engine).start()
    router = await Router(
        [InprocReplica("r0", frontend)], RouterConfig(health_interval=0)
    ).start()
    try:
        stats = json.dumps({"op": "stats", "id": 1})
        assert (await router.handle_line(_query_line(queries[0])))["ok"]
        front = (await frontend.handle_line(stats))["frontend"]
        routed = (await router.handle_line(stats))["router"]
        assert ADMISSION_KEYS <= set(front)
        assert ADMISSION_KEYS <= set(routed)
        assert {k: front[k] for k in ADMISSION_KEYS} == {
            k: routed[k] for k in ADMISSION_KEYS
        }
    finally:
        await router.aclose()
