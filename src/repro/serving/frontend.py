"""The asyncio serving front-end: admission control over the service.

:class:`QueryService` makes a *batch* cheap; a deployment faces an open
socket, not a batch.  :class:`AsyncFrontend` is the traffic shaper in
between — it turns many concurrent NDJSON clients into the batched,
bounded workload the service is fastest at:

* **Bounded request queue.**  At most ``max_queue`` queries may be
  in the system; past that, the :class:`~repro.serving.gate.
  RequestGate` both tiers share rejects *immediately* with a structured
  ``overloaded`` response and a ``retry_after`` estimated from measured
  batch time (load shedding, not load hiding).
* **Per-tenant token buckets.**  The same gate holds each tenant to
  ``quota_rate`` queries/sec with ``quota_burst`` of headroom; an
  over-quota tenant gets ``quota_exceeded`` rejections with the exact
  seconds until a token is available, while compliant tenants are
  untouched — one flooder cannot starve the queue.
* **Request coalescing.**  Admitted queries are gathered — across
  clients and tenants — into :meth:`~repro.serving.service.QueryService.
  batch_query`-sized batches, so concurrent single-query clients get
  batched BLAS and per-call overhead amortisation for free.  A batch
  takes everything already queued and then waits for company only up to
  the concurrency the last batch observed (how many queries were in the
  system when it finished): a lone caller is dispatched at once, N
  closed-loop callers are gathered N at a time, and a drop in
  concurrency costs one ``batch_window`` — the cap no batch ever waits
  past — once.
* **Graceful drain.**  Shutdown stops admission (``shutting_down``
  rejections) but answers *every* admitted request before the loop
  exits — no dropped futures, no torn connections.

Every response is stamped with the service's index **generation** (the
number of applied updates), so a client — or the concurrency soak test
— can tell exactly which database state produced each answer even while
``update`` ops churn the index live.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.query.pruning import EXACT_POLICY, SearchPolicy
from repro.query.topk import TopKResult
from repro.serving import protocol
from repro.serving.gate import AdmissionStats, RequestGate, check_quota_config
from repro.serving.service import QueryService
from repro.utils.errors import ProtocolError, SelectionError

__all__ = [
    "AsyncFrontend",
    "FrontendConfig",
    "FrontendStats",
]


@dataclass
class FrontendConfig:
    """Tuning knobs of one :class:`AsyncFrontend`.

    ``quota_rate`` is per-tenant queries/sec (``None`` disables quotas);
    ``quota_burst`` defaults to ``max(quota_rate, batch_size)`` so a
    compliant tenant can always submit one full batch.  ``max_queue``
    bounds *queries* (a batch request counts its size), ``batch_window``
    is the longest a batch may wait for company, in seconds (how long it
    *does* wait follows the concurrency the frontend observes: not at
    all for a lone caller), and ``drain_timeout`` caps how long
    :meth:`AsyncFrontend.aclose` waits for in-flight work.
    """

    max_queue: int = 256
    batch_size: int = 16
    batch_window: float = 0.002
    quota_rate: Optional[float] = None
    quota_burst: Optional[float] = None
    drain_timeout: float = 30.0
    #: Shard-search policy for requests that do not send their own
    #: ``"search"`` object (``None`` = the service default: exact with
    #: shard skipping).  ``repro-graphdim serve --search-mode approx
    #: --nprobe N`` sets this server-wide.
    default_policy: Optional[SearchPolicy] = None
    #: Most tenants tracked at once.  Tenant names come off the wire,
    #: so without a bound a client cycling names would grow the bucket
    #: table (and its own quota) without limit; past the cap the
    #: least-recently-seen bucket is folded into a shared ``"<other>"``
    #: bucket (and stats aggregate the same way), so cycling names can
    #: never mint fresh quota.
    max_tenants: int = 10_000
    #: Time source for the token buckets.  Injectable so quota tests
    #: advance a fake clock instead of sleeping wall-clock time.
    clock: Callable[[], float] = time.monotonic
    #: Seconds between background maintenance passes (``None`` disables
    #: the loop; ``maintain`` protocol requests still work).  Each pass
    #: runs staleness-triggered re-selection off the request path, on
    #: the admin executor.
    maintenance_interval: Optional[float] = None
    #: Re-selection hook (e.g. a :class:`repro.core.reselect.Reselector`
    #: already attached to the mapping).  When maintenance finds
    #: ``mapping.stale`` it hands this to
    #: :meth:`QueryService.apply_reselection`; without a hook a stale
    #: index just keeps serving (exactly the ``"flag"`` policy alone).
    reselector: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        check_quota_config(self)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 <= self.batch_window < math.inf:
            # Also rejects nan (every comparison with it is false): a
            # timer that never fires would hang a lone request forever.
            raise ValueError("batch_window must be a finite number >= 0")
        if self.quota_burst is None and self.quota_rate is not None:
            self.quota_burst = max(self.quota_rate, float(self.batch_size))
        if self.maintenance_interval is not None and not (
            0 < self.maintenance_interval < math.inf
        ):
            raise ValueError(
                "maintenance_interval must be a finite number > 0 (or None)"
            )


@dataclass
class FrontendStats(AdmissionStats):
    """Cumulative counters of one :class:`AsyncFrontend`."""

    batches_dispatched: int = 0  # service batch_query calls
    lingers: int = 0            # batches that waited for company
    lingers_expired: int = 0    # ... and ran into the batch_window cap
    #: Queries in the system (the batch plus those queued behind it)
    #: when the last batch finished: what the next batch waits for.
    concurrency: int = 1
    updates_applied: int = 0
    reloads: int = 0
    maintenance_runs: int = 0    # completed maintenance passes
    maintenance_failures: int = 0


class _Pending:
    """One admitted request waiting for its batch slot."""

    __slots__ = ("graphs", "k", "policy", "future")

    def __init__(
        self,
        graphs: List[LabeledGraph],
        k: int,
        policy: Optional[SearchPolicy],
        future: "asyncio.Future[Tuple[List[TopKResult], int, Dict]]",
    ) -> None:
        self.graphs = graphs
        self.k = k
        self.policy = policy
        self.future = future


class AsyncFrontend(RequestGate):
    """The admission-controlled asyncio front door of a `QueryService`.

    Use as an async context manager, or pair :meth:`start` with
    :meth:`aclose`.  The front-end owns its executors.  A service holds
    nothing to release, so *own_service* changes nothing: it survives
    only because ``bench/layers.py`` still passes it, and goes when
    the benchmark stops passing it.
    """

    def __init__(
        self,
        service: QueryService,
        config: Optional[FrontendConfig] = None,
        own_service: bool = False,
    ) -> None:
        config = config or FrontendConfig()
        super().__init__(
            "server",
            config,
            capacity=config.max_queue,
            stats=FrontendStats(),
            ops={
                "query": self._search_op,
                "batch": self._search_op,
                "update": self._update_op,
                "reload": self._reload_op,
                "maintain": self._maintain_op,
            },
        )
        self.service = service
        self._pending: Deque[_Pending] = deque()
        # The dispatcher's one wake-up: resolved False once
        # ``_wake_at`` queries are queued or drain() ends a linger, True
        # by the linger's timer.
        self._wake: Optional["asyncio.Future[bool]"] = None
        self._wake_at = 0
        self._dispatcher: Optional[asyncio.Task] = None
        self._maintenance: Optional[asyncio.Task] = None
        self._update_lock = asyncio.Lock()
        # Separate single-thread executors so live updates genuinely
        # overlap in-flight batches (the service's swap lock is what
        # keeps that race exact).
        self._batch_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="frontend-batch"
        )
        self._admin_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="frontend-admin"
        )
        # EWMA of one dispatched batch's wall-clock, for retry_after.
        # None until the first dispatch completes: the first measurement
        # seeds the EWMA directly instead of being averaged against an
        # arbitrary constant, so a cold server's estimate converges in
        # one batch rather than ~a dozen.
        self._batch_seconds: Optional[float] = None
        # loop.time() when the currently-running batch started (None
        # when idle): a cold, full queue can then still quote at least
        # the in-flight batch's elapsed time instead of a blind seed.
        self._batch_started: Optional[float] = None

    def _decode_graph(self, wire) -> LabeledGraph:
        return protocol.graph_from_wire(
            wire, self.service.engine.label_codec.decode
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def _serves_graph(self) -> bool:
        """Whether requests that name no policy are graph searches."""
        policy = self.config.default_policy
        return policy is not None and policy.mode == "graph"

    @property
    def generation(self) -> int:
        """The served index's generation (applied updates + reloads)."""
        return self.service.generation

    async def start(self) -> "AsyncFrontend":
        """Start the dispatcher (and the maintenance loop, if configured).

        A server whose default policy is graph mode gets its proximity
        graph here — attached from the artifact, or built — so the build
        is paid before anything listens, never by the first request and
        everyone queued behind it.  A per-request graph policy on any
        other server stays lazy.
        """
        if self._serves_graph:
            await asyncio.get_running_loop().run_in_executor(
                self._admin_executor, self.service.ensure_graph
            )
        if self._dispatcher is None:
            self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        if (
            self._maintenance is None
            and self.config.maintenance_interval is not None
        ):
            self._maintenance = asyncio.ensure_future(
                self._maintenance_loop()
            )
        return self

    async def drain(self) -> None:
        """Begin drain and wait until every admitted request is answered."""
        self.begin_drain()
        # No company can arrive any more: a lingering batch goes now.
        self._wake_dispatcher()
        if self._maintenance is not None:
            # The loop watches the shutdown event, so it exits on its
            # own; waiting here means aclose() never shuts the admin
            # executor down underneath a mid-flight maintenance pass.
            await asyncio.wait_for(
                asyncio.shield(self._maintenance), self.config.drain_timeout
            )
        if self._dispatcher is not None:
            await self._wait_drained()
            # Idle and admitting nothing: the dispatcher is parked
            # waiting for a query that cannot come.
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass

    async def aclose(self) -> None:
        """Drain, then release the executors."""
        try:
            await self.drain()
        finally:
            self._batch_executor.shutdown(wait=True)
            self._admin_executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _retry_after(self, cost: int) -> float:
        """The backlog *plus this request* (the retrying client still
        drains its own cost through the queue) in batches of the
        measured batch time.  Before any batch has completed, one *in
        flight* has already run for a known time — a hard lower bound,
        quoted rather than a constant, so a cold full queue never tells a
        client to retry sooner than the server has already been busy.
        """
        estimate = 0.0 if self._batch_seconds is None else self._batch_seconds
        if self._batch_started is not None:
            try:
                in_flight = (
                    asyncio.get_running_loop().time() - self._batch_started
                )
            except RuntimeError:  # pragma: no cover - called off-loop
                in_flight = 0.0
            estimate = max(estimate, in_flight)
        # Floor: with nothing measured and nothing in flight, fall back
        # to a conservative seed rather than quoting a zero wait.
        estimate = max(estimate, 0.05 if self._batch_seconds is None else 0.0)
        backlog_batches = (self._inflight + cost) / self.config.batch_size
        return self.config.batch_window + backlog_batches * estimate

    async def submit(
        self,
        graphs: Sequence[LabeledGraph],
        k: int,
        tenant: str = "",
        policy: Optional[SearchPolicy] = None,
    ) -> Tuple[List[TopKResult], int, Dict]:
        """Admit, queue, and answer one request of one or more queries.

        Returns ``(results, generation, pruning)``: the answers, the
        index generation they were computed on, and this request's own
        ``pruning`` stats.  Raises
        :class:`~repro.utils.errors.AdmissionError` on a structured
        rejection, or whatever the underlying batch raised (e.g.
        :class:`~repro.utils.errors.QueryError` for a bad ``k``).

        *policy* falls back to the configured server-wide default;
        requests with different policies coalesce into separate service
        batches (a policy changes which shards are read, so it is part
        of the batch key exactly like ``k``).
        """
        graphs = list(graphs)
        if not graphs:
            raise ProtocolError("empty query batch")
        if policy is None:
            policy = self.config.default_policy
        if policy is None:
            # Normalise "no policy" to the explicit default: a request
            # sending {"mode": "exact"} and one sending nothing mean
            # the same thing and must coalesce into the same batch
            # (SearchPolicy is a frozen dataclass, so equal policies
            # hash equal).
            policy = EXACT_POLICY
        self._admit(tenant, len(graphs))
        future: "asyncio.Future" = asyncio.get_running_loop().create_future()
        self._pending.append(_Pending(graphs, int(k), policy, future))
        self._wake_dispatcher()
        return await future

    # ------------------------------------------------------------------
    # the dispatcher: coalesce -> batch -> fan back out
    # ------------------------------------------------------------------
    def _has_queued(self, target: int) -> bool:
        """Whether the dispatcher need not wait for *target* queries:
        they are queued, or drain has begun and what is queued is all
        that will come.

        Only meaningful between batches, when nothing is in flight and
        ``_inflight`` is exactly what the deque holds.
        """
        return self._inflight >= target or (
            self._draining and self._inflight > 0
        )

    def _wake_dispatcher(self) -> None:
        """Wake a waiting dispatcher if it now has what it waits for."""
        wake = self._wake
        if (
            wake is not None
            and not wake.done()
            and self._has_queued(self._wake_at)
        ):
            wake.set_result(False)

    async def _wait_queued(
        self, target: int, cap: Optional[float] = None
    ) -> bool:
        """Sleep until :meth:`_has_queued` holds for *target* — with a
        *cap*, for at most that many seconds; returns whether it fired.
        """
        loop = asyncio.get_running_loop()
        wake = self._wake = loop.create_future()
        self._wake_at = target
        timer = None
        if cap is not None:
            timer = loop.call_later(
                cap, lambda: wake.done() or wake.set_result(True)
            )
        try:
            return await wake
        finally:
            self._wake = None
            if timer is not None:
                timer.cancel()

    async def _collect(self) -> List[_Pending]:
        """The next batch.

        Waits (no timer) for anything to be queued, then lingers only
        while fewer queries are queued than were in the system when the
        last batch finished — never past ``batch_window`` — and takes
        everything queued up to ``batch_size``, which may be more than
        it waited for: a straggler left behind a burst would linger out
        the whole cap alone.
        """
        size = self.config.batch_size
        if not self._has_queued(1):
            await self._wait_queued(1)
        target = min(size, self.stats.concurrency)
        if not self._has_queued(target):
            self.stats.lingers += 1
            if await self._wait_queued(target, self.config.batch_window):
                self.stats.lingers_expired += 1
        # The one place requests leave the deque.
        batch: List[_Pending] = []
        total = 0
        while self._pending and total < size:
            item = self._pending.popleft()
            batch.append(item)
            total += len(item.graphs)
        return batch

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._collect()
            # Group by (k, policy): one service call answers every
            # request in the group, whoever submitted it.  The policy is
            # frozen/hashable, so exact and approx traffic coalesce
            # separately instead of forcing the whole batch to the
            # stricter mode.
            groups: Dict[Tuple, List[_Pending]] = {}
            for item in batch:
                groups.setdefault((item.k, item.policy), []).append(item)
            for (k, policy), group in sorted(
                groups.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
            ):
                await self._run_group(loop, group, k, policy)
            # Sampled when the batch *finishes*, not when it was
            # collected: callers whose requests arrived while it ran and
            # the callers it has just answered are both counted, so a
            # closed loop that a late window once split in two is
            # gathered whole again by the next batch.
            self.stats.concurrency = self._inflight + sum(
                len(item.graphs) for item in batch
            )

    async def _run_group(
        self,
        loop,
        group: List[_Pending],
        k: int,
        policy: Optional[SearchPolicy] = None,
    ) -> None:
        graphs: List[LabeledGraph] = []
        for item in group:
            graphs.extend(item.graphs)
        started = loop.time()
        self._batch_started = started
        try:
            result, generation, trace = await loop.run_in_executor(
                self._batch_executor,
                self.service.batch_query_traced,
                graphs,
                k,
                policy,
            )
        except Exception as exc:
            for item in group:
                self._release(len(item.graphs), ok=False)
                if not item.future.cancelled():
                    item.future.set_exception(exc)
            return
        finally:
            self._batch_started = None
        elapsed = loop.time() - started
        if self._batch_seconds is None:
            # First measurement seeds the EWMA outright — averaging it
            # against a made-up constant would poison retry_after for
            # the next ~dozen batches.
            self._batch_seconds = elapsed
        else:
            self._batch_seconds = 0.8 * self._batch_seconds + 0.2 * elapsed
        self.stats.batches_dispatched += 1
        sizes = [len(item.graphs) for item in group]
        offset = 0
        for item, size, pruning in zip(group, sizes, trace.payloads(sizes)):
            answers = result.results[offset : offset + size]
            offset += size
            self._release(size, ok=True)
            if not item.future.cancelled():
                item.future.set_result((answers, generation, pruning))

    # ------------------------------------------------------------------
    # admin operations
    # ------------------------------------------------------------------
    async def apply_update(
        self,
        added: Sequence[LabeledGraph] = (),
        removed: Sequence[int] = (),
    ) -> int:
        """Serialised live index mutation; returns the new generation.

        Runs on the admin executor so it overlaps in-flight batches —
        the service's swap lock guarantees each batch still sees exactly
        one index generation.
        """
        async with self._update_lock:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                self._admin_executor,
                self.service.apply_update,
                list(added),
                list(removed),
            )
            self.stats.updates_applied += 1
            return self.service.generation

    async def _maintenance_loop(self) -> None:
        """Periodic background maintenance until drain begins.

        One failed pass must not kill the loop (a re-selection that
        raises would otherwise silently end all future healing) —
        failures are counted and the loop keeps its cadence.
        """
        while True:
            try:
                await asyncio.wait_for(
                    self._shutdown_event.wait(),
                    self.config.maintenance_interval,
                )
                return
            except asyncio.TimeoutError:
                pass
            try:
                await self.maintain()
            except asyncio.CancelledError:  # pragma: no cover - teardown
                raise
            except Exception:
                self.stats.maintenance_failures += 1

    async def maintain(self) -> Dict:
        """Run one maintenance pass; returns its report.

        Serialised with updates/reloads via the update lock and run on
        the admin executor, so queries keep flowing throughout — only
        the final index swap (inside
        :meth:`QueryService.apply_reselection`) briefly takes the
        service's swap lock.  The pass heals a stale index by handing
        ``config.reselector`` to :meth:`QueryService.apply_reselection`
        (selection re-run; shards rebuilt and swapped only if it
        actually changed).  It does not persist the index: a server
        never writes to the artifact it was started from.
        """
        async with self._update_lock:
            loop = asyncio.get_running_loop()
            report = await loop.run_in_executor(
                self._admin_executor, self._maintain_sync
            )
            self.stats.maintenance_runs += 1
            return report

    def _maintain_sync(self) -> Dict:
        service = self.service
        mapping = service.mapping
        report: Dict = {"stale": bool(mapping.stale), "reselected": False}
        if mapping.stale and self.config.reselector is not None:
            report["reselected"] = service.apply_reselection(
                self.config.reselector
            )
        report["generation"] = service.generation
        return report

    async def reload(self, path: str) -> Dict:
        """Server-side artifact reload: swap in the index saved at *path*.

        The replacement service is built off-loop with the same layout
        (shard count, cache size) as the current one and swapped in
        atomically between batches; a batch already running finishes on
        the old one.  A failed load leaves the serving index untouched.
        The reload counts as one more generation — the stamp stays
        monotonic, so one number can never name two different database
        states.
        """
        async with self._update_lock:
            loop = asyncio.get_running_loop()
            old = self.service

            def _build() -> QueryService:
                from repro.index import load_index

                mapping = load_index(path)
                service = QueryService(
                    mapping.query_engine(),
                    n_shards=max(len(old.shards), 1),
                    cache_size=old._cache_size,
                )
                if self._serves_graph:
                    service.ensure_graph()  # as start() does: off-path
                return service

            replacement = await loop.run_in_executor(
                self._admin_executor, _build
            )
            replacement.generation = old.generation + 1
            self.service = replacement
            self.stats.reloads += 1
            return {
                "path": path,
                "generation": replacement.generation,
                "database_size": replacement.mapping.space.n,
                "dimensionality": replacement.mapping.dimensionality,
            }

    def stats_payload(self) -> Dict:
        """The ``stats`` op response body: each section is its counter
        record (:class:`FrontendStats`, :class:`~repro.serving.service.
        ServiceStats`) plus the keys derived from the live objects."""
        service = self.service
        return {
            "queue_depth": self.queue_depth,
            "draining": self._draining,
            "generation": service.generation,
            "frontend": {
                **self._stats_section(),
                "mean_coalesced": (
                    self.stats.completed
                    / max(self.stats.batches_dispatched, 1)
                ),
            },
            "service": {
                **asdict(service.stats),
                "stale": bool(service.mapping.stale),
                "n_shards": len(service.shards),
                "database_size": service.mapping.space.n,
            },
        }

    # ------------------------------------------------------------------
    # the ops this tier serves beyond ping / stats / shutdown
    # ------------------------------------------------------------------
    async def _search_op(self, request: Dict) -> Dict:
        """``query`` (one ``graph``) and ``batch`` (a ``graphs`` list)."""
        single = request["op"] == "query"
        policy = protocol.search_policy_from_request(request)
        graphs = [
            self._decode_graph(g)
            for g in ([request["graph"]] if single else request["graphs"])
        ]
        results, generation, pruning = await self.submit(
            graphs, request["k"], request.get("tenant") or "", policy
        )
        answers = (
            protocol.result_to_wire(results[0])
            if single
            else {"results": [protocol.result_to_wire(r) for r in results]}
        )
        return protocol.ok_response(
            request.get("id"), generation=generation, pruning=pruning,
            **answers,
        )

    async def _update_op(self, request: Dict) -> Dict:
        added = [self._decode_graph(g) for g in request.get("add", [])]
        removed = request.get("remove", [])
        if not all(protocol.is_wire_int(i) for i in removed):
            raise ProtocolError("'remove' must hold integer database indices")
        removed = set(removed)
        try:
            generation = await self.apply_update(added, removed)
        except SelectionError as exc:
            # A row that does not exist, or removing every row: the
            # client's fault, and nothing was applied.
            raise ProtocolError(str(exc)) from exc
        return protocol.ok_response(
            request.get("id"),
            generation=generation,
            added=len(added),
            removed=len(removed),
        )

    async def _reload_op(self, request: Dict) -> Dict:
        info = await self.reload(request["path"])
        return protocol.ok_response(request.get("id"), **info)

    async def _maintain_op(self, request: Dict) -> Dict:
        report = await self.maintain()
        return protocol.ok_response(request.get("id"), **report)
