"""The router tier: one coordinator fronting N serving replicas.

A single ``repro-graphdim serve`` process is one index, one queue, one
quota table.  The ROADMAP's north star — millions of users — needs
horizontal scale-out, and a naive load balancer over N replicas breaks
three serving guarantees at once: every tenant's quota silently
multiplies by N, an ``update`` routed to one replica leaves the others
answering from a stale database, and each replica's backpressure only
describes its own queue.  :class:`Router` restores all three while
speaking the *same* NDJSON protocol as a single server, so clients
cannot tell the difference:

* **Content-aware placement.**  Queries are routed by shard-summary
  geometry (the same centroids approx mode uses, derived from each
  block's rows): the query's zero-VF2
  :meth:`~repro.query.engine.QueryEngine.filter_mask` — an upper bound
  on φ(q) costing no isomorphism calls — is matched against per-replica
  block centroids, so structurally similar queries land on the same
  replica and its exact embedding cache.  Round-robin is the fallback
  whenever no index is on hand or a preferred replica is out of
  rotation.
* **Read-your-writes.**  ``update``/``reload`` fan out to every healthy
  replica under one lock; the resulting cluster generation becomes the
  writing session's *floor*, and that session's queries are only ever
  answered by replicas whose reported generation has caught up.  A
  replica that missed updates (down, or freshly restarted from the
  artifact) is replayed from the router's update log before it re-enters
  rotation.
* **One request loop.**  Admission (drain, capacity, per-tenant
  quota) and the line → request → response loop are the
  :class:`~repro.serving.gate.RequestGate` a single server runs too, so
  quotas are cluster-wide — replicas run quota-free and a tenant's rate
  is what the operator configured, not ``N ×`` it — and
  :func:`~repro.serving.protocol.serve_tcp` / ``serve_stdio`` run a
  router unchanged.
* **Propagated backpressure.**  Each replica's in-flight count and
  ping-reported queue depth are folded with its measured drain rate
  (an EWMA of seconds per answered query) into the ``retry_after`` the
  router returns on overload, so a client is told when the *cluster*
  can actually take its request.

Replica transports: :class:`InprocReplica` wraps an in-process
:class:`~repro.serving.frontend.AsyncFrontend` (tests, benches, and
``serve-router --spawn`` smoke paths), :class:`TcpReplica` speaks
NDJSON to any ``serve`` process over TCP.  A transport failure raises
:class:`~repro.utils.errors.ReplicaError`; the router marks the replica
down and retries the admitted query elsewhere, so a mid-flight replica
kill loses nothing that was admitted.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving import protocol
from repro.serving.frontend import AsyncFrontend
from repro.serving.gate import AdmissionStats, RequestGate, check_quota_config
from repro.utils.errors import (
    AdmissionError,
    ProtocolError,
    ReplicaError,
)

__all__ = [
    "ContentPlacer",
    "InprocReplica",
    "ReplicaHandle",
    "Router",
    "RouterConfig",
    "RouterStats",
    "SpawnedReplica",
    "TcpReplica",
    "spawn_replica",
]

@dataclass
class RouterConfig:
    """Tuning knobs of one :class:`Router`."""

    #: Most queries in flight across the whole cluster before the
    #: router sheds load with structured ``overloaded`` rejections.
    max_inflight: int = 1024
    #: Cluster-wide per-tenant queries/sec (``None`` disables quotas).
    #: Replicas behind a router should run quota-free — the router is
    #: the one place the tenant's true rate is visible.
    quota_rate: Optional[float] = None
    quota_burst: Optional[float] = None
    #: Bound on tracked tenants, for both the quota table and the
    #: read-your-writes floors (evicted floors raise the shared floor,
    #: never lower it — safety over precision).
    max_tenants: int = 10_000
    #: Seconds between background health pings (0 disables the loop;
    #: generation/queue-depth tracking then rides on responses alone).
    health_interval: float = 1.0
    #: How long :meth:`Router.aclose` waits for in-flight queries.
    drain_timeout: float = 30.0
    #: Time source for quotas (injectable for deterministic tests).
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        check_quota_config(self)
        if not 0 <= self.health_interval < math.inf:
            # A NaN or negative interval would fail the loop's
            # ``> 0`` test and switch health checks off unasked.
            raise ValueError(
                "health_interval must be a finite number >= 0 (0 disables)"
            )
        if self.quota_burst is None and self.quota_rate is not None:
            self.quota_burst = max(self.quota_rate, 1.0)


@dataclass
class RouterStats(AdmissionStats):
    """Cumulative counters of one :class:`Router`."""

    failovers: int = 0          # queries retried after a ReplicaError
    stale_rerouted: int = 0     # answers below the session floor, retried
    replica_overloads: int = 0  # replica-side overload rejections seen
    replicas_admitted: int = 0
    replicas_lost: int = 0
    replayed_entries: int = 0   # update-log entries replayed on rejoin
    updates_applied: int = 0
    reloads: int = 0
    placed_content: int = 0
    placed_round_robin: int = 0


class ReplicaHandle:
    """Router-side view of one replica: state + transport.

    Subclasses implement :meth:`request` (one protocol payload in, one
    response object out, :class:`ReplicaError` on transport failure)
    and :meth:`close`.  The router tracks ``generation`` from every
    response and ping, ``inflight``/``reported_queue_depth`` for
    backpressure, and an EWMA of seconds per completed query as the
    measured drain rate.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.generation = 0
        self.healthy = False
        self.inflight = 0
        self.reported_queue_depth = 0
        self.routed = 0
        self.completed = 0
        self._drain_interval: Optional[float] = None
        self._last_completion: Optional[float] = None

    @property
    def drain_interval(self) -> Optional[float]:
        """Measured seconds per answered query (``None`` until one)."""
        return self._drain_interval

    def note_completion(self, now: float, count: int = 1) -> None:
        self.completed += count
        last = self._last_completion
        self._last_completion = now
        if last is None:
            return
        interval = max(now - last, 0.0) / max(count, 1)
        if self._drain_interval is None:
            self._drain_interval = interval
        else:
            self._drain_interval = (
                0.8 * self._drain_interval + 0.2 * interval
            )

    async def request(self, payload: Dict) -> Dict:
        raise NotImplementedError

    async def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def describe(self) -> Dict:
        return {
            "name": self.name,
            "healthy": self.healthy,
            "generation": self.generation,
            "inflight": self.inflight,
            "queue_depth": self.reported_queue_depth,
            "routed": self.routed,
            "completed": self.completed,
            "drain_interval": self._drain_interval,
        }


class InprocReplica(ReplicaHandle):
    """A replica living in this process: a wrapped :class:`AsyncFrontend`.

    ``fail()`` simulates a replica crash: every subsequent — and every
    *in-flight* — request raises :class:`ReplicaError`, exactly like a
    TCP connection dying mid-read.  The abandoned coroutine still runs
    to completion in the background (a real crashed replica may also
    have half-finished a batch; the router must not care).
    """

    def __init__(self, name: str, frontend: AsyncFrontend) -> None:
        super().__init__(name)
        self.frontend = frontend
        self._failed = asyncio.Event()

    def fail(self) -> None:
        self._failed.set()

    async def request(self, payload: Dict) -> Dict:
        if self._failed.is_set():
            raise ReplicaError(f"replica {self.name!r} is down")
        work = asyncio.ensure_future(
            self.frontend.handle_request(dict(payload))
        )
        died = asyncio.ensure_future(self._failed.wait())
        try:
            done, _ = await asyncio.wait(
                {work, died}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            died.cancel()
        if work in done:
            return work.result()
        # The connection "died" with the request in flight: swallow the
        # abandoned task's eventual result/exception quietly.
        work.add_done_callback(lambda t: t.cancelled() or t.exception())
        raise ReplicaError(
            f"replica {self.name!r} died with a request in flight"
        )

    async def close(self) -> None:
        self.fail()
        await self.frontend.aclose()


class TcpReplica(ReplicaHandle):
    """A replica reached over the NDJSON TCP protocol.

    One persistent connection with a reader task correlating responses
    to requests by ``id`` (the protocol answers in completion order, so
    pipelined requests need the correlation).  A dropped connection
    fails every pending request with :class:`ReplicaError`; the next
    request attempts a fresh connection, so a restarted ``serve``
    process on the same address rejoins without new configuration.
    """

    def __init__(self, name: str, host: str, port: int) -> None:
        super().__init__(name)
        self.host = host
        self.port = port
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[str, "asyncio.Future[Dict]"] = {}
        self._ids = itertools.count()
        self._lock = asyncio.Lock()
        self._closed = False

    async def _connect(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._writer = writer
        self._reader_task = asyncio.ensure_future(self._read_loop(reader))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                try:
                    response = json.loads(raw)
                except json.JSONDecodeError:
                    break
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._drop_connection()

    def _drop_connection(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ReplicaError(
                        f"replica {self.name!r} connection lost mid-request"
                    )
                )

    async def request(self, payload: Dict) -> Dict:
        if self._closed:
            raise ReplicaError(f"replica {self.name!r} is closed")
        rid = f"r{next(self._ids)}"
        wire = dict(payload)
        wire["id"] = rid
        future: "asyncio.Future[Dict]" = (
            asyncio.get_running_loop().create_future()
        )
        try:
            async with self._lock:
                if self._writer is None:
                    await self._connect()
                self._pending[rid] = future
                self._writer.write(protocol.encode_response(wire))
                await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(rid, None)
            self._drop_connection()
            raise ReplicaError(
                f"replica {self.name!r} unreachable: {exc}"
            ) from exc
        return await future

    async def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        self._drop_connection()


class SpawnedReplica(TcpReplica):
    """A ``serve`` child process owned by the router (``--spawn N``)."""

    def __init__(self, name: str, host: str, port: int, process) -> None:
        super().__init__(name, host, port)
        self.process = process

    async def close(self) -> None:
        await super().close()
        if self.process.returncode is None:
            self.process.terminate()
        try:
            await asyncio.wait_for(self.process.wait(), 10.0)
        except asyncio.TimeoutError:  # pragma: no cover - stuck child
            self.process.kill()
            await self.process.wait()


async def spawn_replica(
    name: str,
    index_path: str,
    n_shards: int = 2,
    timeout: float = 60.0,
) -> SpawnedReplica:
    """Start one ``serve`` child on an ephemeral port and connect to it.

    The child runs quota-free (the router owns the cluster-wide quota
    table) and TCP-only; its advertised ``listening on HOST:PORT``
    stderr line tells us where it bound.
    """
    import os
    import sys

    import repro

    env = dict(os.environ)
    package_root = str(
        __import__("pathlib").Path(repro.__file__).resolve().parent.parent
    )
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    process = await asyncio.create_subprocess_exec(
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--index",
        index_path,
        "--no-stdio",
        "--tcp",
        "127.0.0.1:0",
        "--shards",
        str(n_shards),
        stdin=asyncio.subprocess.DEVNULL,
        stdout=asyncio.subprocess.DEVNULL,
        stderr=asyncio.subprocess.PIPE,
        env=env,
    )

    async def _bound_address() -> Tuple[str, int]:
        while True:
            raw = await process.stderr.readline()
            if not raw:
                raise ReplicaError(
                    f"replica {name!r} exited before binding "
                    f"(rc={process.returncode})"
                )
            line = raw.decode(errors="replace").strip()
            if line.startswith("listening on "):
                host, _, port = line[len("listening on "):].rpartition(":")
                return host, int(port)

    try:
        host, port = await asyncio.wait_for(_bound_address(), timeout)
    except asyncio.TimeoutError:
        process.kill()
        await process.wait()
        raise ReplicaError(f"replica {name!r} did not bind within {timeout}s")

    async def _drain_stderr() -> None:
        # Keep the pipe from filling; the child only logs on lifecycle
        # events, but a blocked child would wedge the whole cluster.
        while await process.stderr.readline():
            pass

    asyncio.ensure_future(_drain_stderr())
    return SpawnedReplica(name, host, port, process)


class ContentPlacer:
    """Replica affinity from shard-summary geometry.

    The mapping's database rows are split into one contiguous block per
    replica; each block's :class:`~repro.query.pruning.ShardSummary` is
    derived from its rows here, stacked once for BLAS.  Per
    query, the zero-VF2 filter mask stands in for φ(q) — an entrywise
    upper bound costing no isomorphism calls — and the block with the
    nearest centroid wins.  A small LRU keyed on the query's
    ``key()`` makes repeat-heavy streams (the serving workload) skip
    even the mask computation.  The router decodes wire graphs with
    :attr:`engine`'s label codec.
    """

    def __init__(
        self, mapping, n_blocks: int, cache_size: int = 4096
    ) -> None:
        from repro.query.pruning import ShardSummary, stack_summaries

        n = mapping.space.n
        if n < 1 or n_blocks < 1:
            raise ValueError("ContentPlacer needs a non-empty database")
        blocks = [
            b for b in np.array_split(np.arange(n), min(n_blocks, n))
            if len(b)
        ]
        self.n_blocks = len(blocks)
        self._stack = stack_summaries(
            [
                ShardSummary.from_vectors(mapping.database_bits(b))
                for b in blocks
            ]
        )
        self.engine = mapping.query_engine()
        self._cache: "OrderedDict[Tuple, int]" = OrderedDict()
        self._cache_size = int(cache_size)

    def block_for(self, graph) -> int:
        """The preferred block (replica slot) for one query graph."""
        from repro.query.pruning import shard_centroid_distances

        key = graph.key()
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return cached
        mask = self.engine.filter_mask(graph)
        distances = shard_centroid_distances(mask[None, :], self._stack)[0]
        # Stable tie-break by block index, same convention as approx
        # routing's argsort.
        block = int(np.argsort(distances, kind="stable")[0])
        self._cache[key] = block
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return block


class Router(RequestGate):
    """The cluster coordinator: the request loop of
    :class:`~repro.serving.gate.RequestGate` over N replicas.

    Pair :meth:`start` with :meth:`aclose` (or use as an async context
    manager).
    """

    def __init__(
        self,
        replicas: Sequence[ReplicaHandle],
        config: Optional[RouterConfig] = None,
        placer: Optional[ContentPlacer] = None,
        own_replicas: bool = True,
    ) -> None:
        if not replicas:
            raise ValueError("a router needs at least one replica")
        config = config or RouterConfig()
        super().__init__(
            "router",
            config,
            capacity=config.max_inflight,
            stats=RouterStats(),
            # No ``maintain``: it is replica-local — fanning it out
            # would let each replica re-select on its own and
            # desynchronise the update-log replay, which indexes the
            # log by replica generation.
            ops={
                "query": self._query,
                "batch": self._query,
                "update": self._write,
                "reload": self._write,
            },
        )
        self.replicas: List[ReplicaHandle] = list(replicas)
        self.placer = placer
        self._own_replicas = own_replicas
        self._update_lock = asyncio.Lock()
        self._update_log: List[Dict] = []
        self._generation = 0
        self._floors: "OrderedDict[str, int]" = OrderedDict()
        self._floor_other = 0
        self._rr = 0
        self._ids = itertools.count()
        self._health_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Router":
        for replica in self.replicas:
            if not replica.healthy:
                await self.admit_replica(replica)
        if self._health_task is None and self.config.health_interval > 0:
            self._health_task = asyncio.ensure_future(self._health_loop())
        return self

    @property
    def generation(self) -> int:
        """The cluster generation: updates + reloads applied via the router."""
        return self._generation

    async def aclose(self) -> None:
        """Drain in-flight queries, stop health checks, release replicas."""
        self.begin_drain()
        try:
            await self._wait_drained()
        finally:
            if self._health_task is not None:
                self._health_task.cancel()
                try:
                    await self._health_task
                except asyncio.CancelledError:
                    pass
                self._health_task = None
            if self._own_replicas:
                for replica in self.replicas:
                    await replica.close()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    async def admit_replica(
        self,
        handle: ReplicaHandle,
        replace: Optional[str] = None,
    ) -> ReplicaHandle:
        """Catch a replica up and put it into rotation.

        Pings for its current generation, replays every update-log
        entry it missed (a replica restarted from the artifact rejoins
        at the artifact's generation and is brought to the cluster's),
        and only then marks it healthy.  Runs under the update lock, so
        a concurrent ``update`` can never slip between replay and
        rotation.  *replace* swaps the handle in at a dead replica's
        slot, keeping content placement stable.
        """
        async with self._update_lock:
            pong = await handle.request({"op": "ping", "id": "admit"})
            if not pong.get("ok"):
                raise ReplicaError(
                    f"replica {handle.name!r} failed its admission ping: "
                    f"{pong.get('message', pong)}"
                )
            handle.generation = int(pong.get("generation", 0))
            while handle.generation < self._generation:
                entry = self._update_log[handle.generation]
                response = await handle.request(
                    dict(entry, id=f"replay-{handle.generation}")
                )
                if not response.get("ok"):
                    raise ReplicaError(
                        f"replica {handle.name!r} rejected replayed "
                        f"update {handle.generation}: "
                        f"{response.get('message', response)}"
                    )
                handle.generation = int(response["generation"])
                self.stats.replayed_entries += 1
            handle.healthy = True
            if replace is not None:
                for i, existing in enumerate(self.replicas):
                    if existing.name == replace:
                        self.replicas[i] = handle
                        break
                else:
                    self.replicas.append(handle)
            elif handle not in self.replicas:
                self.replicas.append(handle)
            self.stats.replicas_admitted += 1
            return handle

    def _mark_down(self, replica: ReplicaHandle) -> None:
        if replica.healthy:
            replica.healthy = False
            self.stats.replicas_lost += 1

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval)
            for replica in list(self.replicas):
                if not replica.healthy:
                    # A TCP replica restarted on the same address can
                    # rejoin by itself; transports that cannot
                    # reconnect just fail the ping and stay down.
                    try:
                        await self.admit_replica(replica)
                    except ReplicaError:
                        continue
                    continue
                try:
                    pong = await replica.request(
                        {"op": "ping", "id": "health"}
                    )
                except ReplicaError:
                    self._mark_down(replica)
                    continue
                if pong.get("ok"):
                    replica.generation = int(
                        pong.get("generation", replica.generation)
                    )
                    replica.reported_queue_depth = int(
                        pong.get("queue_depth", 0)
                    )

    # ------------------------------------------------------------------
    # backpressure
    # ------------------------------------------------------------------
    def _retry_after(self, cost: int) -> Optional[float]:
        """Cluster drain estimate: when could *cost* queries fit?

        Folds every healthy replica's in-flight count and last reported
        queue depth with its measured drain interval; the cluster can
        take the request once the *least* loaded replica has drained,
        so the minimum over replicas is the honest wait.
        """
        estimates = []
        for replica in self.replicas:
            if not replica.healthy:
                continue
            interval = replica.drain_interval
            if interval is None:
                continue
            ahead = replica.inflight + replica.reported_queue_depth
            estimates.append((ahead + cost) * interval)
        if not estimates:
            return 0.05 * cost
        return max(min(estimates), 1e-3)

    # ------------------------------------------------------------------
    # placement + forwarding
    # ------------------------------------------------------------------
    def _session_floor(self, tenant: str) -> int:
        floor = self._floors.get(tenant)
        if floor is None:
            return self._floor_other
        self._floors.move_to_end(tenant)
        return floor

    def _set_floor(self, tenant: str, generation: int) -> None:
        self._floors[tenant] = max(
            self._floors.get(tenant, 0), generation
        )
        self._floors.move_to_end(tenant)
        if len(self._floors) > self.config.max_tenants:
            _, evicted = self._floors.popitem(last=False)
            # Evicted floors raise the shared floor: an unknown session
            # may be the one that wrote, so stale answers are the error
            # to avoid, extra freshness is merely conservative.
            self._floor_other = max(self._floor_other, evicted)

    def _place(
        self, request: Dict, eligible: List[ReplicaHandle]
    ) -> ReplicaHandle:
        if self.placer is not None:
            wire = request.get("graph")
            if wire is None:
                wires = request.get("graphs") or []
                wire = wires[0] if wires else None
            if isinstance(wire, dict):
                try:
                    graph = protocol.graph_from_wire(
                        wire, self.placer.engine.label_codec.decode
                    )
                    block = self.placer.block_for(graph)
                except (ProtocolError, ValueError):
                    block = None
                if block is not None:
                    # Stable affinity: block -> slot in the full replica
                    # list; fall through to round-robin only when that
                    # slot is out of rotation.
                    preferred = self.replicas[block % len(self.replicas)]
                    if preferred in eligible:
                        self.stats.placed_content += 1
                        return preferred
        self._rr += 1
        self.stats.placed_round_robin += 1
        return eligible[self._rr % len(eligible)]

    async def _forward_query(
        self, request: Dict, tenant: str, cost: int
    ) -> Dict:
        floor = self._session_floor(tenant)
        tried: set = set()
        last_overload: Optional[Dict] = None
        while True:
            eligible = [
                r
                for r in self.replicas
                if r.healthy and r.generation >= floor
                and r.name not in tried
            ]
            if not eligible:
                if last_overload is not None:
                    # Every eligible replica shed load: propagate, but
                    # with the *cluster* drain estimate folded in so
                    # the client waits for real capacity.
                    folded = self._retry_after(cost)
                    reported = last_overload.get("retry_after")
                    if reported is not None and folded is not None:
                        folded = max(folded, float(reported))
                    return protocol.error_response(
                        request.get("id"),
                        "overloaded",
                        last_overload.get(
                            "message", "every replica is overloaded"
                        ),
                        retry_after=folded,
                    )
                healthy = [r for r in self.replicas if r.healthy]
                message = (
                    "no healthy replica has caught up to generation "
                    f"{floor}"
                    if healthy
                    else "no healthy replica available"
                )
                raise AdmissionError(
                    "overloaded", message, retry_after=self._retry_after(cost)
                )
            replica = self._place(request, eligible)
            payload = dict(request)
            payload["id"] = f"q{next(self._ids)}"
            replica.inflight += cost
            replica.routed += cost
            try:
                response = await replica.request(payload)
            except ReplicaError:
                self._mark_down(replica)
                tried.add(replica.name)
                self.stats.failovers += cost
                continue
            finally:
                replica.inflight -= cost
            if response.get("ok"):
                generation = response.get("generation")
                if isinstance(generation, int):
                    replica.generation = max(
                        replica.generation, generation
                    )
                    if generation < floor:
                        # Defensive: the replica answered from an older
                        # snapshot than the eligibility check believed
                        # (e.g. raced a concurrent update).  The stale
                        # answer must never reach the writing session.
                        tried.add(replica.name)
                        self.stats.stale_rerouted += cost
                        continue
                replica.note_completion(self.config.clock(), cost)
            elif response.get("error") in ("overloaded", "shutting_down"):
                # This replica cannot take the query right now; others
                # may.  shutting_down additionally means it is leaving
                # rotation.
                if response.get("error") == "shutting_down":
                    self._mark_down(replica)
                else:
                    self.stats.replica_overloads += cost
                tried.add(replica.name)
                last_overload = response
                continue
            response["id"] = request.get("id")
            response["replica"] = replica.name
            return response

    # ------------------------------------------------------------------
    # cluster-wide admin operations
    # ------------------------------------------------------------------
    async def _apply_cluster_update(self, request: Dict) -> Dict:
        """Fan an ``update``/``reload`` out to every healthy replica.

        All replicas apply the same entry under the update lock, so
        their generations advance in lockstep.  A replica that dies
        mid-fan-out is marked down (it will be replayed on rejoin); a
        replica that *rejects* the entry while others accept it has
        diverged and is dropped from rotation too.  Only when at least
        one replica accepted does the entry enter the update log and
        advance the cluster generation.
        """
        async with self._update_lock:
            entry = {"op": request["op"]}
            for key in ("add", "remove", "path"):
                if key in request:
                    entry[key] = request[key]
            targets = [r for r in self.replicas if r.healthy]
            if not targets:
                raise AdmissionError(
                    "overloaded",
                    "no healthy replica to apply the update",
                    retry_after=self._retry_after(1),
                )
            new_generation = self._generation + 1
            results = await asyncio.gather(
                *(
                    replica.request(
                        dict(entry, id=f"u{new_generation}-{replica.name}")
                    )
                    for replica in targets
                ),
                return_exceptions=True,
            )
            accepted: List[ReplicaHandle] = []
            first_rejection: Optional[Dict] = None
            for replica, result in zip(targets, results):
                if isinstance(result, ReplicaError):
                    self._mark_down(replica)
                    continue
                if isinstance(result, BaseException):
                    raise result
                if result.get("ok"):
                    replica.generation = int(
                        result.get("generation", new_generation)
                    )
                    accepted.append(replica)
                else:
                    first_rejection = first_rejection or result
            if not accepted:
                if first_rejection is not None:
                    # Unanimous rejection (e.g. a malformed graph):
                    # nothing changed anywhere, propagate the replicas'
                    # own structured error verbatim.
                    first_rejection["id"] = request.get("id")
                    return first_rejection
                raise AdmissionError(
                    "overloaded",
                    "every replica died applying the update",
                    retry_after=self._retry_after(1),
                )
            if first_rejection is not None:
                # Divergence: some replicas applied the entry, some
                # rejected it.  The rejectors' state no longer matches
                # the log — drop them; a rejoin replay will surface the
                # inconsistency explicitly instead of serving it.
                for replica, result in zip(targets, results):
                    if (
                        not isinstance(result, BaseException)
                        and not result.get("ok")
                    ):
                        self._mark_down(replica)
            self._generation = new_generation
            self._update_log.append(entry)
            if request["op"] == "reload":
                self.stats.reloads += 1
            else:
                self.stats.updates_applied += 1
            template = next(
                r for rep, r in zip(targets, results) if rep in accepted
            )
            response = dict(template)
            response["id"] = request.get("id")
            response["generation"] = new_generation
            response["replicas_updated"] = len(accepted)
            return response

    # ------------------------------------------------------------------
    # the ops this tier serves beyond ping / stats / shutdown
    # ------------------------------------------------------------------
    async def _query(self, request: Dict) -> Dict:
        """``query`` / ``batch``: admit at the router, answer by a replica."""
        tenant = request.get("tenant") or ""
        cost = len(request["graphs"]) if request["op"] == "batch" else 1
        self._admit(tenant, cost)
        ok = False
        try:
            response = await self._forward_query(request, tenant, cost)
            ok = response["ok"]
            return response
        finally:
            self._release(cost, ok)

    async def _write(self, request: Dict) -> Dict:
        """``update`` / ``reload``: fanned out to every healthy replica."""
        response = await self._apply_cluster_update(request)
        if response.get("ok"):
            # Read-your-writes: this session's queries must see the new
            # generation from here on.
            self._set_floor(request.get("tenant") or "", self._generation)
        return response

    def stats_payload(self) -> Dict:
        return {
            "queue_depth": self.queue_depth,
            "draining": self._draining,
            "generation": self._generation,
            "router": {
                **self._stats_section(),
                "update_log_length": len(self._update_log),
            },
            "replicas": [r.describe() for r in self.replicas],
        }
