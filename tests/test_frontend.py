"""Behaviour tests for the asyncio serving front-end.

The front-end's contract: admission decisions are structured and
immediate, everything admitted is answered bit-identically to the
engine, and coalescing/quotas/drain change *when* work happens, never
*what* is answered.
"""

import asyncio
import json
import os

import numpy as np
import pytest

from repro.core.mapping import mapping_from_selection, variance_selection
from repro.core.reselect import Reselector
from repro.datasets import synthetic_database, synthetic_query_set
from repro.features.binary_matrix import FeatureSpace
from repro.graph.labeled_graph import LabeledGraph
from repro.index import save_index
from repro.mining import mine_frequent_subgraphs
from repro.mining.gspan import FrequentSubgraph
from repro.serving import protocol
from repro.serving.frontend import AsyncFrontend, FrontendConfig
from repro.serving.gate import TenantQuotas, TokenBucket
from repro.serving.service import QueryService
from repro.utils.errors import AdmissionError, ProtocolError


@pytest.fixture(scope="module")
def materials():
    db = synthetic_database(30, avg_edges=16, density=0.3, num_labels=5, seed=3)
    queries = synthetic_query_set(
        10, avg_edges=16, density=0.3, num_labels=5, seed=99
    )
    features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=5)
    space = FeatureSpace(features, len(db))
    mapping = mapping_from_selection(space, variance_selection(space, 15))
    return db, queries, mapping


@pytest.fixture(scope="module")
def engine(materials):
    _db, _queries, mapping = materials
    return mapping.query_engine()


def _frontend(engine, **config_kwargs):
    service = QueryService(engine, n_shards=2)
    return AsyncFrontend(
        service, FrontendConfig(**config_kwargs)
    )


def _wire_query(q, k, request_id=0, tenant=None):
    request = {
        "op": "query", "id": request_id, "k": k,
        "graph": protocol.graph_to_wire(q),
    }
    if tenant is not None:
        request["tenant"] = tenant
    return request


class TestTokenBucket:
    def test_burst_then_throttle(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: clock[0])
        assert all(bucket.try_acquire()[0] for _ in range(3))
        ok, wait = bucket.try_acquire()
        assert not ok
        assert wait == pytest.approx(0.5)  # 1 token at 2/sec

    def test_refill_is_rate_times_elapsed(self):
        clock = [0.0]
        bucket = TokenBucket(rate=4.0, burst=8.0, clock=lambda: clock[0])
        assert bucket.try_acquire(8.0)[0]
        clock[0] = 1.0  # +4 tokens
        assert bucket.try_acquire(4.0)[0]
        ok, wait = bucket.try_acquire(2.0)
        assert not ok and wait == pytest.approx(0.5)

    def test_refill_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: clock[0])
        clock[0] = 100.0
        assert bucket.try_acquire(2.0)[0]
        assert not bucket.try_acquire(0.5)[0]

    def test_cost_beyond_burst_can_never_succeed(self):
        bucket = TokenBucket(rate=1.0, burst=4.0)
        ok, wait = bucket.try_acquire(5.0)
        assert not ok and wait == float("inf")


class TestProtocol:
    def test_wire_graph_round_trip_structure(self, materials):
        _db, queries, _mapping = materials
        q = queries[0]
        back = protocol.graph_from_wire(protocol.graph_to_wire(q))
        assert back.num_vertices == q.num_vertices
        assert back.num_edges == q.num_edges
        # JSON stringifies labels; the frontend's codec restores types.
        assert [back.vertex_label(v) for v in range(back.num_vertices)] == [
            str(q.vertex_label(v)) for v in range(q.num_vertices)
        ]

    def test_decode_on_build_restores_the_typed_graph(self, materials):
        """One build with the codec applied is the native graph: typed
        labels, same structure, same errors for junk."""
        from repro.core.persistence import LabelCodec

        db, queries, _mapping = materials
        codec = LabelCodec.for_graphs(db)
        assert "int" in codec.table.values()  # labels really need decoding
        for q in list(queries) + list(db[:5]):
            wire = protocol.graph_to_wire(q)
            once = protocol.graph_from_wire(wire, codec.decode)
            assert once == q
            assert once.vertex_labels() == q.vertex_labels()
            assert once.graph_id == wire.get("id")
        bad = {"vertices": ["1", "2"], "edges": [[0, 9, "1"]]}
        with pytest.raises(ProtocolError) as plain:
            protocol.graph_from_wire(bad)
        with pytest.raises(ProtocolError) as decoded:
            protocol.graph_from_wire(bad, codec.decode)
        assert str(plain.value) == str(decoded.value)

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("not json", "not valid JSON"),
            ("[1, 2]", "must be a JSON object"),
            ('{"op": "frobnicate"}', "unknown op"),
            ('{"op": "query", "graph": {}}', "integer 'k'"),
            ('{"op": "query", "k": "five", "graph": {}}', "integer 'k'"),
            ('{"op": "query", "k": 5}', "requires a 'graph'"),
            ('{"op": "batch", "k": 5}', "'graphs' list"),
            ('{"op": "query", "k": 0, "graph": {}}', "'k' must be >= 1"),
            ('{"op": "batch", "k": 5, "graphs": []}', "at least one graph"),
            ('{"op": "reload"}', "string 'path'"),
            ('{"op": "update"}', "'add' or a 'remove'"),
            ('{"op": "update", "add": [], "remove": []}', "'add' or a"),
            ('{"op": "query", "k": 5, "graph": {}, "tenant": 7}', "'tenant'"),
        ],
    )
    def test_parse_request_rejections(self, line, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            protocol.parse_request(line)

    def test_bad_graph_payloads(self):
        with pytest.raises(ProtocolError):
            protocol.graph_from_wire({"vertices": "abc"})
        with pytest.raises(ProtocolError):
            protocol.graph_from_wire(
                {"vertices": ["a", "b"], "edges": [[0, 1]]}
            )
        with pytest.raises(ProtocolError):
            protocol.graph_from_wire(
                {"vertices": ["a", "b"], "edges": [[0, 9, "x"]]}
            )


class TestAdmission:
    @pytest.mark.asyncio
    async def test_queue_full_is_structured_overload(self, engine):
        frontend = _frontend(engine, max_queue=2)
        try:
            queries = synthetic_query_set(
                3, avg_edges=16, density=0.3, num_labels=5, seed=99
            )
            # Dispatcher not started: the first two submissions park in
            # the queue, the third must bounce immediately.
            waiting = [
                asyncio.ensure_future(frontend.submit([q], 3))
                for q in queries[:2]
            ]
            await asyncio.sleep(0)
            with pytest.raises(AdmissionError) as excinfo:
                await frontend.submit([queries[2]], 3)
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retry_after > 0
            assert frontend.stats.rejected_overload == 1
            await frontend.start()
            for future in waiting:
                results, generation, _pruning = await future
                assert generation == 0 and len(results) == 1
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_batch_request_counts_its_size(self, engine, materials):
        _db, queries, _mapping = materials
        frontend = _frontend(engine, max_queue=3)
        try:
            with pytest.raises(AdmissionError) as excinfo:
                await frontend.submit(queries[:4], 3)
            assert excinfo.value.code == "overloaded"
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_batch_larger_than_queue_can_never_retry(
        self, engine, materials
    ):
        """A batch that exceeds the whole queue bound gets no
        retry_after — retrying an un-fittable request is pointless."""
        _db, queries, _mapping = materials
        frontend = _frontend(engine, max_queue=2)
        try:
            await frontend.start()
            with pytest.raises(AdmissionError) as excinfo:
                await frontend.submit(queries[:4], 3)
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retry_after is None
        finally:
            await frontend.aclose()

    def test_non_positive_quota_burst_rejected(self):
        with pytest.raises(ValueError, match="quota_burst"):
            FrontendConfig(quota_rate=5.0, quota_burst=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_window", float("nan")),
            ("batch_window", float("inf")),
            ("quota_rate", float("nan")),
            ("quota_rate", float("inf")),
            ("quota_burst", float("nan")),
            ("quota_burst", float("inf")),
            ("drain_timeout", float("nan")),
            ("drain_timeout", float("inf")),
            ("drain_timeout", -1.0),
            ("maintenance_interval", float("nan")),
            ("maintenance_interval", float("inf")),
        ],
    )
    def test_non_finite_or_negative_numbers_rejected(self, field, value):
        """``nan < 0`` is false, so each of these used to pass
        validation: a NaN batch window's timer never fired and left a
        lone request unanswered forever, a NaN rate refused every query
        with ``"retry_after": NaN`` (not JSON), and a NaN maintenance
        interval ran no pass and counted no failure."""
        config = {field: value}
        if field == "quota_burst":
            config["quota_rate"] = 5.0
        with pytest.raises(ValueError, match=f"{field} must be a finite"):
            FrontendConfig(**config)

    @pytest.mark.asyncio
    async def test_tenant_stats_table_follows_max_tenants(
        self, engine, materials
    ):
        """The stats cap is driven by the same max_tenants knob as the
        bucket table — one bound, not two silently diverging ones."""
        _db, queries, _mapping = materials
        frontend = _frontend(engine, max_tenants=3)
        try:
            await frontend.start()
            for i in range(6):
                await frontend.submit([queries[0]], 3, tenant=f"t{i}")
            per_tenant = frontend.stats.per_tenant
            assert len(per_tenant) == 4  # 3 individual + "<other>"
            assert per_tenant["<other>"]["admitted"] == 3
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_tenant_bucket_table_is_bounded(self, engine, materials):
        """Wire-supplied tenant names must not grow server state without
        bound: past max_tenants the least-recently-seen bucket evicts."""
        _db, queries, _mapping = materials
        frontend = _frontend(
            engine, quota_rate=100.0, quota_burst=100.0, max_tenants=3
        )
        try:
            await frontend.start()
            for i in range(8):
                await frontend.submit([queries[0]], 3, tenant=f"t{i}")
            assert len(frontend._buckets) == 3
            assert "t7" in frontend._buckets  # most recent survive
            assert "t0" not in frontend._buckets
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_per_tenant_quota_isolation(self, engine, materials):
        _db, queries, _mapping = materials
        frontend = _frontend(engine, quota_rate=1.0, quota_burst=2.0)
        try:
            await frontend.start()
            for q in queries[:2]:
                await frontend.submit([q], 3, tenant="greedy")
            with pytest.raises(AdmissionError) as excinfo:
                await frontend.submit([queries[2]], 3, tenant="greedy")
            assert excinfo.value.code == "quota_exceeded"
            assert 0 < excinfo.value.retry_after <= 1.0
            # A different tenant has its own bucket.
            results, _gen, _pruning = await frontend.submit(
                [queries[2]], 3, tenant="polite"
            )
            assert len(results) == 1
            assert frontend.stats.per_tenant["greedy"]["rejected_quota"] == 1
            assert frontend.stats.per_tenant["polite"]["rejected_quota"] == 0
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_overload_rejection_does_not_burn_quota(
        self, engine, materials
    ):
        """A compliant tenant bounced by a full queue must keep its
        tokens — otherwise retrying through a load spike would be
        double-penalised into quota_exceeded."""
        _db, queries, _mapping = materials
        frontend = _frontend(
            engine, max_queue=1, quota_rate=1.0, quota_burst=2.0
        )
        try:
            # Dispatcher not started: one query fills the queue.
            parked = asyncio.ensure_future(frontend.submit([queries[0]], 3))
            await asyncio.sleep(0)
            for _ in range(3):  # would exhaust burst=2 if tokens burned
                with pytest.raises(AdmissionError) as excinfo:
                    await frontend.submit([queries[1]], 3, tenant="t")
                assert excinfo.value.code == "overloaded"
            await frontend.start()
            await parked
            # Tokens intact: the tenant still has its full burst.
            for q in queries[1:3]:
                await frontend.submit([q], 3, tenant="t")
            assert frontend.stats.per_tenant["t"]["rejected_quota"] == 0
        finally:
            await frontend.aclose()


class TestTenantQuotaFolding:
    """Regressions for the name-cycling quota bypass: evicting a bucket
    must fold its balance into ``"<other>"``, and a newcomer past the
    cap must be seeded from that shared balance, never a fresh burst."""

    def test_name_cycling_cannot_exceed_one_extra_budget(self):
        clock = [0.0]
        rate, burst, max_tenants, seconds = 2.0, 4.0, 3, 10.0
        quotas = TenantQuotas(rate, burst, max_tenants, lambda: clock[0])
        admitted = 0
        attempts = 0
        while clock[0] < seconds:
            for i in range(max_tenants + 1):  # one more name than slots
                attempts += 1
                if quotas.try_acquire(f"cycler-{i}", 1.0)[0]:
                    admitted += 1
            clock[0] += 0.05
        # Before the fix each churned name arrived with a fresh burst:
        # admitted would track attempts (~800 here).  Folded, the whole
        # churning population shares one budget: the max_tenants table
        # fills (one burst spent per slot before the cap binds), then
        # everyone funnels through <other> = burst + rate * seconds.
        budget = max_tenants + burst + rate * seconds
        assert attempts > 4 * budget  # the attack genuinely pressed
        assert admitted <= budget + 1
        assert quotas.evictions > 0

    def test_returning_evicted_tenant_gets_no_fresh_burst(self):
        clock = [0.0]
        quotas = TenantQuotas(
            rate=1.0, burst=2.0, max_tenants=2, clock=lambda: clock[0]
        )
        assert all(quotas.try_acquire("a", 1.0)[0] for _ in range(2))
        quotas.try_acquire("b", 0.0)
        quotas.try_acquire("c", 0.0)  # evicts "a" (tokens: 0)
        assert quotas.evictions == 1
        # "a" returns: its drained balance was folded into <other>, so
        # it must resume from min(other, evicted) = 0, not burst=2.
        ok, wait = quotas.try_acquire("a", 1.0)
        assert not ok
        assert wait == pytest.approx(1.0)  # 1 token at 1/sec

    def test_fold_takes_min_never_sums_balances(self):
        clock = [0.0]
        quotas = TenantQuotas(
            rate=1.0, burst=4.0, max_tenants=1, clock=lambda: clock[0]
        )
        quotas.try_acquire("a", 3.0)  # "a" left with 1 token
        # "b" displaces "a": <other> starts at burst=4, folds to
        # min(4, 1) = 1 — merging must never create spendable tokens.
        assert quotas.try_acquire("b", 1.0)[0]
        assert not quotas.try_acquire("c", 1.0)[0]

    def test_resident_tenant_keeps_its_own_refill_stream(self):
        """A tenant that *stays* resident is untouched by churn around
        it: its named bucket still refills at the configured rate."""
        clock = [0.0]
        quotas = TenantQuotas(
            rate=2.0, burst=2.0, max_tenants=2, clock=lambda: clock[0]
        )
        assert all(quotas.try_acquire("resident", 1.0)[0] for _ in range(2))
        for i in range(10):  # churn the other slot
            quotas.try_acquire(f"churn-{i}", 1.0)
        clock[0] = 1.0  # +2 tokens for the resident
        assert quotas.try_acquire("resident", 2.0)[0]


class TestRetryAfterEstimate:
    """Regressions for the overload retry_after: it must cover the
    retrier's own cost and be seeded from measured batch time, not the
    old hard-coded 0.05 blended at 20%."""

    @pytest.mark.asyncio
    async def test_retry_after_includes_request_cost(self, engine, materials):
        _db, queries, _mapping = materials
        frontend = _frontend(engine, max_queue=4, batch_size=1)
        try:
            # Dispatcher not started: park 3 queries, 2 slots remain.
            parked = [
                asyncio.ensure_future(frontend.submit([q], 3))
                for q in queries[:3]
            ]
            await asyncio.sleep(0)
            with pytest.raises(AdmissionError) as two:
                await frontend.submit(queries[3:5], 3)
            with pytest.raises(AdmissionError) as four:
                await frontend.submit(queries[3:7], 3)
            # Same backlog, bigger request: the quote must grow — the
            # retrying client drains its own cost through the queue too.
            assert four.value.retry_after > two.value.retry_after
            await frontend.start()
            await asyncio.gather(*parked)
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_cold_overload_quotes_at_least_inflight_elapsed(
        self, engine, materials
    ):
        """Before any batch completes, a batch already in flight for T
        seconds bounds the estimate below by T — the old code quoted
        0.01 * backlog while each batch actually took ~0.2s."""
        _db, queries, _mapping = materials
        frontend = _frontend(engine, max_queue=2, batch_size=1)
        try:
            parked = [
                asyncio.ensure_future(frontend.submit([q], 3))
                for q in queries[:2]
            ]
            await asyncio.sleep(0)
            assert frontend._batch_seconds is None  # genuinely cold
            inflight_for = 0.25
            frontend._batch_started = (
                asyncio.get_running_loop().time() - inflight_for
            )
            with pytest.raises(AdmissionError) as excinfo:
                await frontend.submit([queries[2]], 3)
            backlog_batches = 3  # (2 queued + 1 cost) / batch_size 1
            assert (
                excinfo.value.retry_after
                >= backlog_batches * inflight_for
            )
            frontend._batch_started = None
            await frontend.start()
            await asyncio.gather(*parked)
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_first_measurement_seeds_ewma_directly(
        self, engine, materials
    ):
        """The first measured batch time becomes the estimate outright;
        blending it 20/80 against a made-up 0.05 constant would poison
        retry_after for the next ~10 batches."""
        _db, queries, _mapping = materials
        frontend = _frontend(engine)
        try:
            await frontend.start()
            assert frontend._batch_seconds is None
            await frontend.submit([queries[0]], 3)
            first = frontend._batch_seconds
            assert first is not None and first > 0
            # Fast real batches (well under 50ms here) prove no 0.05
            # constant was blended in: 0.8*0.05 would dominate.
            assert first < 0.04
        finally:
            await frontend.aclose()


class TestCoalescing:
    @pytest.mark.asyncio
    async def test_concurrent_queries_share_one_batch(
        self, engine, materials
    ):
        _db, queries, _mapping = materials
        frontend = _frontend(engine, batch_size=4, batch_window=0.05)
        try:
            await frontend.start()
            answers = await asyncio.gather(
                *(frontend.submit([q], 5) for q in queries[:4])
            )
            assert frontend.stats.batches_dispatched == 1
            reference = engine.batch_query(queries[:4], 5)
            for (results, generation, _pruning), truth in zip(answers, reference):
                assert generation == 0
                assert results[0].ranking == truth.ranking
                assert results[0].scores == truth.scores
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_mixed_k_requests_split_by_k(self, engine, materials):
        _db, queries, _mapping = materials
        frontend = _frontend(engine, batch_size=4, batch_window=0.05)
        try:
            await frontend.start()
            (r3, _, _), (r5, _, _) = await asyncio.gather(
                frontend.submit([queries[0]], 3),
                frontend.submit([queries[1]], 5),
            )
            assert frontend.stats.batches_dispatched == 2
            assert len(r3[0].ranking) == 3
            assert len(r5[0].ranking) == 5
            assert r3[0].ranking == engine.query(queries[0], 3).ranking
            assert r5[0].ranking == engine.query(queries[1], 5).ranking
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_linger_window_flushes_partial_batches(
        self, engine, materials
    ):
        _db, queries, _mapping = materials
        frontend = _frontend(engine, batch_size=64, batch_window=0.01)
        try:
            await frontend.start()
            results, _gen, _pruning = await asyncio.wait_for(
                frontend.submit([queries[0]], 3), timeout=5
            )
            assert len(results) == 1  # did not wait for 63 more queries
        finally:
            await frontend.aclose()


#: Seconds before a hung await fails its test.  A guard, not a
#: measurement: the linger tests assert counters, never clocks.
GUARD = 5


def _record_batch_sizes(frontend):
    """Queries per service call, in dispatch order."""
    sizes = []
    inner = frontend.service.batch_query_traced

    def recording(graphs, k, policy=None):
        sizes.append(len(graphs))
        return inner(graphs, k, policy)

    frontend.service.batch_query_traced = recording
    return sizes


class TestLingerForCompany:
    """A batch waits for the concurrency the last one saw, not for a
    constant: ``batch_window`` is only the cap."""

    @pytest.mark.asyncio
    async def test_lone_caller_is_dispatched_at_once(self, engine, materials):
        _db, queries, _mapping = materials
        frontend = _frontend(engine, batch_size=64, batch_window=30)
        try:
            await frontend.start()
            for q in queries[:2]:
                results, _gen, _pruning = await asyncio.wait_for(
                    frontend.submit([q], 3), timeout=GUARD
                )
                assert len(results) == 1
            stats = frontend.stats_payload()["frontend"]
            assert stats["lingers"] == stats["lingers_expired"] == 0
            assert stats["concurrency"] == 1
            assert stats["batches_dispatched"] == 2
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_lingers_for_the_company_it_last_saw(
        self, engine, materials
    ):
        _db, queries, _mapping = materials
        frontend = _frontend(engine, batch_size=8, batch_window=30)
        try:
            await frontend.start()
            await asyncio.wait_for(
                asyncio.gather(
                    *(frontend.submit([q], 3) for q in queries[:4])
                ),
                timeout=GUARD,
            )
            assert frontend.stats.concurrency == 4
            assert frontend.stats.lingers == 0
            three = [
                asyncio.ensure_future(frontend.submit([q], 3))
                for q in queries[:3]
            ]
            for _ in range(5):
                await asyncio.sleep(0)
            assert frontend.stats.lingers == 1  # holding 3, waiting for 4
            assert frontend.stats.batches_dispatched == 1
            fourth = asyncio.ensure_future(frontend.submit([queries[3]], 3))
            await asyncio.wait_for(
                asyncio.gather(*three, fourth), timeout=GUARD
            )
            assert frontend.stats.batches_dispatched == 2
            assert frontend.stats.lingers == 1
            assert frontend.stats.lingers_expired == 0
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_drop_in_concurrency_costs_one_window_once(
        self, engine, materials
    ):
        _db, queries, _mapping = materials
        frontend = _frontend(engine, batch_size=8, batch_window=0.05)
        try:
            await frontend.start()
            await asyncio.gather(
                *(frontend.submit([q], 3) for q in queries[:4])
            )
            assert frontend.stats.concurrency == 4
            await asyncio.wait_for(
                frontend.submit([queries[0]], 3), timeout=GUARD
            )
            assert frontend.stats.lingers == 1
            assert frontend.stats.lingers_expired == 1
            assert frontend.stats.concurrency == 1
            await asyncio.wait_for(
                frontend.submit([queries[1]], 3), timeout=GUARD
            )
            assert frontend.stats.lingers == 1
            assert frontend.stats.concurrency == 1
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    @pytest.mark.parametrize("late", [1, 4])
    async def test_closed_loop_split_by_an_expired_window_re_merges(
        self, engine, materials, late
    ):
        """Eight closed-loop clients; *late* of them stay away past the
        cap once and come back together.  The count is taken when a
        batch *finishes* — the clients it answered plus those queued
        behind it — so both parts are seen and the next batch gathers
        all eight again.  Taken when the batch is collected, each half
        only ever sees itself (its peers' resends arrive while it is
        being served) and the halves never re-merge."""
        _db, queries, _mapping = materials
        clients = 8
        frontend = _frontend(engine, batch_size=16, batch_window=0.25)
        sizes = _record_batch_sizes(frontend)
        gate = asyncio.Event()
        released_at = None

        async def release():
            nonlocal released_at
            while frontend.stats.lingers_expired == 0:
                await asyncio.sleep(0.001)
            released_at = len(sizes)
            gate.set()

        async def client(i):
            rounds = 0
            while released_at is None or len(sizes) < released_at + 12:
                await frontend.submit([queries[i]], 3)
                rounds += 1
                for _ in range(i % 3):  # staggered think time, loop turns
                    await asyncio.sleep(0)
                if i < late and rounds == 3:
                    await gate.wait()

        try:
            await frontend.start()
            await asyncio.wait_for(
                asyncio.gather(release(), *(client(i) for i in range(clients))),
                timeout=GUARD,
            )
            assert sizes[:3] == [clients] * 3
            assert clients - late in sizes[3:released_at + 1]
            # At most two batches after the late clients return (one in
            # flight, one that re-counts), every batch is whole again.
            assert sizes[released_at + 2:released_at + 12] == [clients] * 10
            assert frontend.stats.lingers_expired == 1
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    @pytest.mark.parametrize("primed", [1, 15])
    async def test_burst_is_drained_not_cut_at_the_target(
        self, engine, materials, primed
    ):
        """Whatever count the batch waited for, it takes everything
        already queued: stopping at the target would leave a straggler
        behind every burst to linger out the whole cap alone."""
        _db, queries, _mapping = materials
        frontend = _frontend(engine, batch_size=16, batch_window=30)
        sizes = _record_batch_sizes(frontend)
        burst = [queries[i % len(queries)] for i in range(16)]
        try:
            await frontend.start()
            frontend.stats.concurrency = primed
            for _ in range(2):
                await asyncio.wait_for(
                    asyncio.gather(
                        *(frontend.submit([q], 3) for q in burst)
                    ),
                    timeout=GUARD,
                )
            assert sizes == [16, 16]
            assert frontend.stats.lingers == 0
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_drain_wakes_a_lingering_dispatcher(
        self, engine, materials
    ):
        _db, queries, _mapping = materials
        frontend = _frontend(engine, batch_size=8, batch_window=30)
        try:
            await frontend.start()
            frontend.stats.concurrency = 4
            pair = [
                asyncio.ensure_future(frontend.submit([q], 3))
                for q in queries[:2]
            ]
            for _ in range(5):
                await asyncio.sleep(0)
            assert frontend.stats.lingers == 1
            assert frontend.stats.completed == 0
            frontend.begin_drain()
            await asyncio.wait_for(frontend.drain(), timeout=GUARD)
            for future in pair:
                results, _gen, _pruning = await future
                assert len(results) == 1
            assert frontend.stats.admitted == frontend.stats.completed == 2
            assert frontend.stats.lingers_expired == 0
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_oversized_batch_op_is_not_lingered(
        self, engine, materials
    ):
        _db, queries, _mapping = materials
        frontend = _frontend(engine, batch_size=4, batch_window=30)
        sizes = _record_batch_sizes(frontend)
        try:
            await frontend.start()
            frontend.stats.concurrency = 16
            response = await asyncio.wait_for(
                frontend.handle_request({
                    "op": "batch", "id": 1, "k": 3,
                    "graphs": [
                        protocol.graph_to_wire(q) for q in queries[:6]
                    ],
                }),
                timeout=GUARD,
            )
            assert response["ok"] and len(response["results"]) == 6
            assert sizes == [6]
            assert frontend.stats.lingers == 0
        finally:
            await frontend.aclose()


class TestRequestDispatch:
    @pytest.mark.asyncio
    async def test_query_and_batch_round_trip(self, engine, materials):
        _db, queries, _mapping = materials
        frontend = _frontend(engine)
        try:
            await frontend.start()
            reference = engine.batch_query(queries[:3], 5)
            single = await frontend.handle_line(
                json.dumps(_wire_query(queries[0], 5, request_id=11))
            )
            assert single["ok"] and single["id"] == 11
            assert single["ranking"] == reference[0].ranking
            assert single["scores"] == reference[0].scores
            batch = await frontend.handle_request(
                {
                    "op": "batch", "id": 12, "k": 5,
                    "graphs": [
                        protocol.graph_to_wire(q) for q in queries[:3]
                    ],
                }
            )
            assert batch["ok"] and len(batch["results"]) == 3
            for got, truth in zip(batch["results"], reference):
                assert got["ranking"] == truth.ranking
                assert got["scores"] == truth.scores
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_bad_k_is_bad_request_not_internal(
        self, engine, materials
    ):
        _db, queries, _mapping = materials
        frontend = _frontend(engine)
        try:
            await frontend.start()
            response = await frontend.handle_request(
                _wire_query(queries[0], 0)
            )
            assert not response["ok"]
            assert response["error"] == "bad_request"
        finally:
            await frontend.aclose()


class TestLiveUpdateAndReload:
    @pytest.mark.asyncio
    async def test_update_op_bumps_generation_and_answers(self, materials):
        db, queries, _mapping = materials
        # A private mapping: updates mutate it in place.
        features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=5)
        space = FeatureSpace(features, len(db))
        mapping = mapping_from_selection(space, variance_selection(space, 15))
        frontend = _frontend(mapping.query_engine())
        try:
            await frontend.start()
            before = await frontend.handle_request(_wire_query(queries[0], 5))
            assert before["ok"] and before["generation"] == 0
            response = await frontend.handle_request(
                {
                    "op": "update", "id": 1,
                    "add": [protocol.graph_to_wire(queries[1])],
                    "remove": [0, 2],
                }
            )
            assert response["ok"]
            assert response["generation"] == 1
            assert response["added"] == 1 and response["removed"] == 2
            after = await frontend.handle_request(_wire_query(queries[0], 5))
            assert after["ok"] and after["generation"] == 1
            # The answer matches a fresh service over the mutated index.
            with QueryService(
                mapping.query_engine(), n_shards=2
            ) as scratch:
                truth = scratch.batch_query([queries[0]], 5)[0]
            assert after["ranking"] == truth.ranking
            assert after["scores"] == truth.scores
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_codec_follows_the_selection_not_the_update(
        self, tmp_path
    ):
        """The wire codec is the engine's, built from the selected
        patterns' labels.  An update never changes the selection, so it
        keeps the codec; a ``maintain`` that re-selects builds a new
        engine and with it a new codec, and a label only the new
        selection carries then decodes to its real type.  A save
        persists that same codec."""
        from repro.core.mapping import StalenessPolicy

        rows = [[1], [2], [1, 2], [3], [1, 3], [2, 3]]
        features = [
            FrequentSubgraph(
                LabeledGraph([label]),
                {i for i, row in enumerate(rows) if label in row},
            )
            for label in (1, 2, 3)
        ]
        mapping = mapping_from_selection(
            FeatureSpace(features, len(rows)), [0, 1]
        )
        mapping.staleness_policy = StalenessPolicy(max_drift=0.0)
        frontend = AsyncFrontend(
            QueryService(mapping, n_shards=2),
            FrontendConfig(
                reselector=lambda m: m.apply_selection([0, 1, 2])
            ),
        )
        probe = {"op": "query", "id": 9, "k": 1, "graph": {"vertices": ["3"]}}
        try:
            await frontend.start()
            codec = frontend.service.engine.label_codec
            assert set(codec.table) == {"1", "2"}
            update = await frontend.handle_request(
                {"op": "update", "id": 1, "add": [{"vertices": ["1", "1"]}]}
            )
            assert update["ok"] and mapping.stale
            assert frontend.service.engine.label_codec is codec

            healed = await frontend.handle_request({"op": "maintain", "id": 2})
            assert healed["ok"] and healed["reselected"] is True
            healed_codec = frontend.service.engine.label_codec
            assert healed_codec is not codec
            assert set(healed_codec.table) == {"1", "2", "3"}
            # Row 3 is the graph holding label 3 alone: an exact hit,
            # which "3" left as a string could never be.
            answer = await frontend.handle_request(probe)
            assert answer["ok"]
            assert answer["ranking"] == [3] and answer["scores"] == [0.0]
            # The artifact's codec section is the engine's codec, and
            # reads as it did when the artifact built its own.
            path = tmp_path / "index.json"
            save_index(mapping, path)
            section = json.loads(path.read_text())["label_codec"]
            assert section == healed_codec.to_payload()
            assert section == {"1": "int", "2": "int", "3": "int"}
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    @pytest.mark.parametrize(
        "fields",
        [{}, {"add": []}, {"remove": []}, {"remove": [999]},
         {"remove": [-1]}, {"remove": list(range(30))}],
        ids=["neither", "empty-add", "empty-remove", "out-of-range",
             "negative", "everything"],  # the fixture holds 30 graphs
    )
    async def test_refused_update_is_a_bad_request_not_a_generation(
        self, materials, fields
    ):
        """An update that would change nothing, or cannot apply, is the
        client's fault and must not be reported as applied: the router
        counts every ``ok`` as a cluster generation."""
        db, _queries, _mapping = materials
        features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=5)
        space = FeatureSpace(features, len(db))
        mapping = mapping_from_selection(space, variance_selection(space, 15))
        frontend = _frontend(mapping.query_engine())
        try:
            await frontend.start()
            response = await frontend.handle_line(
                json.dumps({"op": "update", "id": "u1", **fields})
            )
            assert not response["ok"]
            assert response["error"] == "bad_request"
            assert response["id"] == "u1"
            assert frontend.stats.bad_requests == 1
            assert frontend.stats.updates_applied == 0
            assert frontend.service.generation == 0
            assert mapping.space.n == len(db)
            # A duplicated id is one row: the count says what happened.
            response = await frontend.handle_line(
                json.dumps({"op": "update", "id": "u2", "remove": [0, 0]})
            )
            assert response["ok"] and response["removed"] == 1
            assert response["generation"] == 1
            assert mapping.space.n == len(db) - 1
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_update_remove_validates_indices(self, engine, materials):
        _db, queries, _mapping = materials
        frontend = _frontend(engine)
        try:
            await frontend.start()
            response = await frontend.handle_request(
                {"op": "update", "id": 1, "remove": ["zero"]}
            )
            assert not response["ok"]
            assert response["error"] == "bad_request"
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_json_booleans_are_not_integers(self, materials):
        """``true`` passes ``isinstance(x, int)``: without the bool test
        ``"k": true`` is answered as k = 1 and ``"remove": [true]``
        deletes database row 1 and bumps the generation."""
        db, queries, _mapping = materials
        # A private mapping: a wrongly applied update would mutate it.
        features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=5)
        space = FeatureSpace(features, len(db))
        mapping = mapping_from_selection(space, variance_selection(space, 15))
        frontend = _frontend(mapping.query_engine())
        wire = protocol.graph_to_wire(queries[0])
        try:
            await frontend.start()
            for request in (
                {"op": "query", "id": 1, "k": True, "graph": wire},
                {"op": "batch", "id": 2, "k": True, "graphs": [wire]},
                {"op": "update", "id": 3, "remove": [True]},
                {"op": "update", "id": 4, "remove": [0, False]},
            ):
                response = await frontend.handle_line(json.dumps(request))
                assert not response["ok"], request
                assert response["error"] == "bad_request"
            # Reachable with a dict that never went through parse_request.
            response = await frontend.handle_request(
                {"op": "update", "id": 5, "remove": [True]}
            )
            assert not response["ok"]
            assert response["error"] == "bad_request"
            assert frontend.stats.bad_requests == 5
            assert frontend.stats.admitted == 0  # rejected before admission
            assert mapping.database_vectors.shape[0] == len(db)
            assert frontend.service.generation == 0
            assert frontend.service.stats.updates == 0
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_wire_edges_are_typed(self, materials):
        """``int(u)`` / ``str(label)`` coerce: without the type tests
        ``[true, 0, "s"]``, ``[1.9, 0, "s"]`` and ``["1", 0, "s"]`` are
        all admitted as the edge (1, 0) and ``[1, 0, null]`` as an edge
        labelled ``"None"`` — an ``update`` then stores a graph the
        client never sent and bumps the generation."""
        db, queries, _mapping = materials
        # A private mapping: a wrongly applied update would mutate it.
        features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=5)
        space = FeatureSpace(features, len(db))
        mapping = mapping_from_selection(space, variance_selection(space, 15))
        frontend = _frontend(mapping.query_engine())
        good = protocol.graph_to_wire(queries[0])
        label = good["edges"][0][2]
        bad_edges = (
            [True, 0, label],
            [1, False, label],
            [1.9, 0, label],
            ["1", 0, label],
            [1, 0, None],
            [1, 0, 7],
        )
        try:
            await frontend.start()
            for i, edge in enumerate(bad_edges):
                wire = {"vertices": good["vertices"][:2], "edges": [edge]}
                with pytest.raises(ProtocolError, match="bad edge"):
                    protocol.graph_from_wire(wire)
                for request in (
                    {"op": "query", "id": i, "k": 3, "graph": wire},
                    {"op": "update", "id": i, "add": [good, wire]},
                ):
                    response = await frontend.handle_line(json.dumps(request))
                    assert not response["ok"], request
                    assert response["error"] == "bad_request"
            assert frontend.stats.admitted == 0  # rejected before admission
            assert mapping.database_vectors.shape[0] == len(db)
            assert frontend.service.generation == 0
            assert frontend.service.stats.updates == 0
            # What graph_to_wire emits — ints and strings — still parses.
            response = await frontend.handle_line(
                json.dumps({"op": "query", "id": 99, "k": 3, "graph": good})
            )
            assert response["ok"]
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_reload_swaps_the_served_index(self, materials, tmp_path):
        db, queries, mapping = materials
        path = tmp_path / "index.json"
        save_index(mapping, path)
        # Serve a *different* (smaller) index first.
        small_features = mine_frequent_subgraphs(
            db[:20], min_support=0.2, max_edges=4
        )
        small_space = FeatureSpace(small_features, 20)
        small = mapping_from_selection(
            small_space, variance_selection(small_space, 8)
        )
        frontend = _frontend(small.query_engine())
        try:
            await frontend.start()
            response = await frontend.handle_request(
                {"op": "reload", "id": 1, "path": str(path)}
            )
            assert response["ok"]
            assert response["database_size"] == mapping.space.n
            assert response["dimensionality"] == mapping.dimensionality
            # A reload is one more generation: the stamp stays
            # monotonic, so generation 0 can never name two databases.
            assert response["generation"] == 1
            after = await frontend.handle_request(_wire_query(queries[0], 5))
            truth = mapping.query_engine().query(queries[0], 5)
            assert after["generation"] == 1
            assert after["ranking"] == truth.ranking
            assert after["scores"] == truth.scores
            assert frontend.stats.reloads == 1
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_reload_never_closes_a_caller_owned_service(
        self, engine, materials, tmp_path
    ):
        """The old service belongs to the caller: reload and aclose
        leave it fully usable."""
        _db, queries, mapping = materials
        path = tmp_path / "index.json"
        save_index(mapping, path)
        caller_service = QueryService(engine, n_shards=2)
        frontend = AsyncFrontend(caller_service)
        try:
            await frontend.start()
            response = await frontend.handle_request(
                {"op": "reload", "id": 1, "path": str(path)}
            )
            assert response["ok"]
            assert frontend.service is not caller_service
        finally:
            await frontend.aclose()
        # The caller's service survived both the reload and the aclose.
        result = caller_service.batch_query([queries[0]], 3)
        assert result[0].ranking == engine.query(queries[0], 3).ranking
        caller_service.close()

    @pytest.mark.asyncio
    async def test_failed_reload_leaves_service_untouched(
        self, engine, materials, tmp_path
    ):
        _db, queries, _mapping = materials
        frontend = _frontend(engine)
        try:
            await frontend.start()
            old_service = frontend.service
            response = await frontend.handle_request(
                {"op": "reload", "id": 1, "path": str(tmp_path / "no.json")}
            )
            assert not response["ok"]
            assert response["error"] == "internal"
            assert "does not exist" in response["message"]
            assert frontend.service is old_service
            ok = await frontend.handle_request(_wire_query(queries[0], 3))
            assert ok["ok"]
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    @pytest.mark.parametrize("missing", ["support_counts", "offset"])
    async def test_reload_at_a_malformed_manifest_is_refused(
        self, engine, materials, tmp_path, missing
    ):
        """A manifest with a field gone is a failed reload like any
        other — an ``ok: false`` line, not an exception out of
        ``handle_line`` (over stdio that ended the server, over TCP it
        left the request unanswered)."""
        _db, queries, mapping = materials
        path = tmp_path / "index.json"
        save_index(mapping, path)
        manifest = json.loads(path.read_text())
        if missing == "offset":
            del manifest["payload"]["arrays"]["supports"][missing]
        else:
            del manifest[missing]
        path.write_text(json.dumps(manifest))
        frontend = _frontend(engine)
        try:
            await frontend.start()
            old_service = frontend.service
            rows = old_service.mapping.space.n
            response = await frontend.handle_line(
                json.dumps({"op": "reload", "id": 1, "path": str(path)})
            )
            assert not response["ok"]
            assert response["error"] == "internal"
            assert "corrupt mapping file" in response["message"]
            assert frontend.service is old_service
            assert frontend.service.generation == 0
            assert frontend.service.mapping.space.n == rows
            assert frontend.stats.reloads == 0
            after = await frontend.handle_line(
                json.dumps(_wire_query(queries[0], 3))
            )
            assert after["ok"] and after["generation"] == 0
            truth = engine.query(queries[0], 3)
            assert after["ranking"] == truth.ranking
        finally:
            await frontend.aclose()


def _drifting_materials(seed=0, dims=4, clusters=3, per_cluster=8):
    """An under-selected vector index plus the churn that heals it.

    The stale selection spends ``dims`` slots on dead pad columns; the
    churn rows light up an emerging block and overlap cluster 0, so the
    staleness policy trips and a re-selection has capacity to reclaim.
    """
    rng = np.random.default_rng(seed)
    active = clusters * dims
    emerging = active + dims
    m = emerging + dims
    initial = np.zeros((clusters * per_cluster, m), dtype=np.int8)
    for c in range(clusters):
        rows = slice(c * per_cluster, (c + 1) * per_cluster)
        initial[rows, c * dims:(c + 1) * dims] = (
            rng.random((per_cluster, dims)) < 0.9
        )
    initial[initial.sum(axis=1) == 0, 0] = 1
    churn = np.zeros((per_cluster, m), dtype=np.int8)
    churn[:, active:emerging] = rng.random((per_cluster, dims)) < 0.9
    churn[:, 0:dims] |= (rng.random((per_cluster, dims)) < 0.5).astype(np.int8)
    churn[churn.sum(axis=1) == 0, active] = 1

    def graph_for(vector, graph_id):
        labels = [f"dim{j}" for j in np.flatnonzero(vector)]
        return LabeledGraph(labels, graph_id=graph_id)

    features = [
        FrequentSubgraph(
            LabeledGraph([f"dim{j}"], graph_id=f"dim{j}"),
            {int(i) for i in np.flatnonzero(initial[:, j])},
        )
        for j in range(m)
    ]
    space = FeatureSpace(features, initial.shape[0])
    selection = list(range(active)) + list(range(emerging, m))
    mapping = mapping_from_selection(space, selection)
    graphs = [graph_for(v, f"db{i}") for i, v in enumerate(initial)]
    churn_graphs = [graph_for(v, f"new{i}") for i, v in enumerate(churn)]
    reselector = Reselector(graphs=graphs).attach(mapping, max_drift=0.1)
    return mapping, reselector, graphs, churn_graphs


class TestMaintenanceOp:
    @pytest.mark.asyncio
    async def test_maintain_heals_a_drifted_index(self):
        mapping, reselector, _graphs, churn = _drifting_materials()
        service = QueryService(mapping, n_shards=2)
        frontend = AsyncFrontend(
            service, FrontendConfig(reselector=reselector)
        )
        try:
            await frontend.start()
            update = await frontend.handle_request({
                "op": "update", "id": 1,
                "add": [protocol.graph_to_wire(g) for g in churn],
            })
            assert update["ok"] and update["generation"] == 1
            assert mapping.stale  # drift crossed the policy threshold

            response = await frontend.handle_request(
                {"op": "maintain", "id": 2}
            )
            assert response["ok"]
            assert response["stale"] is True  # what the pass walked into
            assert response["reselected"] is True
            assert response["generation"] == 2  # update, then reselection
            assert not mapping.stale
            assert reselector.selections_changed == 1

            # The healed index keeps answering over the wire.
            probe = await frontend.handle_request({
                "op": "query", "id": 3, "k": 5,
                "graph": protocol.graph_to_wire(churn[0]),
            })
            assert probe["ok"]
            assert len(probe["ranking"]) == 5
            assert probe["generation"] == 2

            stats = await frontend.handle_request({"op": "stats", "id": 4})
            assert stats["frontend"]["maintenance_runs"] == 1
            assert stats["service"]["reselections"] == 1
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_maintain_is_idempotent_when_healthy(self):
        mapping, reselector, _graphs, _churn = _drifting_materials()
        service = QueryService(mapping, n_shards=2)
        frontend = AsyncFrontend(
            service, FrontendConfig(reselector=reselector)
        )
        try:
            await frontend.start()
            response = await frontend.handle_request(
                {"op": "maintain", "id": 1}
            )
            assert response["ok"]
            assert response["stale"] is False
            assert response["reselected"] is False
            assert response["generation"] == 0  # nothing swapped
            assert frontend.stats.maintenance_runs == 1
        finally:
            await frontend.aclose()


class TestDrain:
    @pytest.mark.asyncio
    async def test_drain_answers_everything_admitted(self, engine, materials):
        _db, queries, _mapping = materials
        frontend = _frontend(engine, batch_size=4, batch_window=0.05)
        try:
            futures = [
                asyncio.ensure_future(frontend.submit([q], 3))
                for q in queries[:6]
            ]
            await asyncio.sleep(0)  # let submissions enqueue
            await frontend.start()
            await frontend.drain()
            for future in futures:
                results, _gen, _pruning = await future  # resolved, not dropped
                assert len(results) == 1
            assert frontend.stats.admitted == frontend.stats.completed == 6
            assert frontend.stats.failed == 0
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_shutdown_op_starts_drain(self, engine):
        frontend = _frontend(engine)
        try:
            await frontend.start()
            response = await frontend.handle_request({"op": "shutdown"})
            assert response["ok"] and response["draining"]
            assert frontend.draining
            await asyncio.wait_for(frontend.wait_shutdown(), timeout=1)
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    async def test_aclose_is_idempotent(self, engine):
        frontend = _frontend(engine)
        await frontend.start()
        await frontend.aclose()
        await frontend.aclose()

    @pytest.mark.asyncio
    @pytest.mark.parametrize("own_service", [False, True])
    async def test_aclose_leaves_the_service_answering(
        self, engine, materials, own_service
    ):
        """A service holds nothing to release, so *own_service* changes
        nothing: after ``aclose`` the service answers as before."""
        _db, queries, _mapping = materials
        service = QueryService(engine, n_shards=2)
        frontend = AsyncFrontend(service, own_service=own_service)
        await frontend.start()
        served, _gen, _pruning = await frontend.submit(queries[:3], 4)
        await frontend.aclose()
        reference = engine.batch_query(queries[:3], 4)
        after = service.batch_query(queries[:3], 4).results
        for got in (served, after):
            assert [r.ranking for r in got] == [r.ranking for r in reference]
            assert [r.scores for r in got] == [r.scores for r in reference]


class TestStdioLoop:
    @pytest.mark.asyncio
    async def test_stdio_session(self, engine, materials):
        _db, queries, _mapping = materials
        frontend = _frontend(engine)
        await frontend.start()

        lines = [
            json.dumps(_wire_query(queries[0], 3, request_id=1)),
            json.dumps({"op": "stats", "id": 2}),
            json.dumps({"op": "shutdown", "id": 3}),
        ]
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "wb") as w:
            w.write(("\n".join(lines) + "\n").encode())

        class _Out:
            def __init__(self):
                self.chunks = []

            def write(self, data):
                self.chunks.append(data)

            def flush(self):
                pass

        out = _Out()
        try:
            with os.fdopen(read_fd, "rb") as stdin:
                await asyncio.wait_for(
                    protocol.serve_stdio(frontend, stdin=stdin, stdout=out),
                    timeout=10,
                )
            responses = [
                json.loads(chunk) for chunk in b"".join(out.chunks).splitlines()
            ]
            assert [r["id"] for r in responses] == [1, 2, 3]
            assert responses[0]["ok"]
            assert responses[0]["ranking"] == (
                engine.query(queries[0], 3).ranking
            )
            assert responses[2]["draining"]
            assert frontend.draining  # shutdown op ended the loop
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    @pytest.mark.timeout(15)
    async def test_stdio_loop_wakes_on_external_drain(self, engine):
        """A drain begun elsewhere (a TCP peer's shutdown op, a signal
        handler) must end the stdio loop even though stdin is silent."""
        frontend = _frontend(engine)
        await frontend.start()
        read_fd, write_fd = os.pipe()  # held open: stdin never EOFs
        try:
            with os.fdopen(read_fd, "rb") as stdin:
                loop_task = asyncio.ensure_future(
                    protocol.serve_stdio(
                        frontend, stdin=stdin, stdout=_NullOut()
                    )
                )
                await asyncio.sleep(0.05)
                assert not loop_task.done()
                frontend.begin_drain()
                await asyncio.wait_for(loop_task, timeout=5)
        finally:
            os.close(write_fd)
            await frontend.aclose()


class _NullOut:
    def write(self, data):
        pass

    def flush(self):
        pass


class TestTcpDrain:
    @pytest.mark.asyncio
    @pytest.mark.timeout(15)
    async def test_idle_tcp_client_does_not_block_drain(
        self, engine, materials
    ):
        """A connected-but-silent peer must see its connection closed
        when drain begins — on Python >= 3.12.1 Server.wait_closed()
        waits for every handler, so a handler parked in readline()
        would otherwise wedge shutdown forever."""
        _db, queries, _mapping = materials
        frontend = _frontend(engine)
        await frontend.start()
        server = await protocol.serve_tcp(frontend, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            # One real request proves the connection is live...
            writer.write(
                (json.dumps(_wire_query(queries[0], 3, request_id=1)) + "\n")
                .encode()
            )
            await writer.drain()
            first = json.loads(await reader.readline())
            assert first["ok"]
            # ...then the client goes idle and drain begins elsewhere.
            frontend.begin_drain()
            eof = await asyncio.wait_for(reader.readline(), timeout=5)
            assert eof == b""  # handler exited and closed the socket
            writer.close()
            server.close()
            await asyncio.wait_for(server.wait_closed(), timeout=5)
        finally:
            await frontend.aclose()

    @staticmethod
    async def _serving(frontend):
        await frontend.start()
        server = await protocol.serve_tcp(frontend, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return server, reader, writer

    @pytest.mark.asyncio
    @pytest.mark.timeout(15)
    async def test_pipelined_burst_answers_every_line_whole(
        self, engine, materials
    ):
        """Twenty requests in one write: twenty whole response lines
        (responses of one loop turn go out as one joined write), one
        per id, each the engine's answer."""
        _db, queries, _mapping = materials
        frontend = _frontend(engine)
        server, reader, writer = await self._serving(frontend)
        try:
            burst = [
                _wire_query(queries[i % 4], 3, request_id=i)
                for i in range(20)
            ]
            writer.write(
                "".join(json.dumps(r) + "\n" for r in burst).encode()
            )
            await writer.drain()
            answers = [
                json.loads(await asyncio.wait_for(reader.readline(), 5))
                for _ in burst
            ]
            assert sorted(a["id"] for a in answers) == list(range(20))
            for a in answers:
                assert a["ok"]
                assert a["ranking"] == (
                    engine.query(queries[a["id"] % 4], 3).ranking
                )
            writer.close()
            frontend.begin_drain()
            server.close()
            await asyncio.wait_for(server.wait_closed(), timeout=5)
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    @pytest.mark.timeout(15)
    async def test_oversized_line_is_a_bad_request_then_close(
        self, engine, monkeypatch
    ):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 1024)
        frontend = _frontend(engine)
        server, reader, writer = await self._serving(frontend)
        try:
            writer.write(b'{"op": "ping", "pad": "' + b"x" * 4096 + b'"}\n')
            await writer.drain()
            refusal = json.loads(await asyncio.wait_for(reader.readline(), 5))
            assert refusal["error"] == "bad_request"
            assert "exceeds 1024 bytes" in refusal["message"]
            assert await asyncio.wait_for(reader.readline(), 5) == b""
            writer.close()
            frontend.begin_drain()
            server.close()
            await asyncio.wait_for(server.wait_closed(), timeout=5)
        finally:
            await frontend.aclose()

    @pytest.mark.asyncio
    @pytest.mark.timeout(15)
    async def test_line_on_the_wire_at_drain_gets_a_structured_refusal(
        self, engine, materials
    ):
        """A request sent as drain begins lands inside the grace
        window: its sender reads ``shutting_down``, then EOF."""
        _db, queries, _mapping = materials
        frontend = _frontend(engine)
        server, reader, writer = await self._serving(frontend)
        try:
            writer.write(
                (json.dumps({"op": "ping", "id": 0}) + "\n").encode()
            )
            assert json.loads(await reader.readline())["ok"]
            frontend.begin_drain()
            writer.write(
                (json.dumps(_wire_query(queries[0], 3, request_id=1)) + "\n")
                .encode()
            )
            await writer.drain()
            late = json.loads(await asyncio.wait_for(reader.readline(), 5))
            assert (late["id"], late["error"]) == (1, "shutting_down")
            assert await asyncio.wait_for(reader.readline(), 5) == b""
            writer.close()
            server.close()
            await asyncio.wait_for(server.wait_closed(), timeout=5)
        finally:
            await frontend.aclose()
