"""The request lifecycle both serving tiers share.

:class:`~repro.serving.frontend.AsyncFrontend` (one process over one
service) and :class:`~repro.serving.router.Router` (one coordinator over
N replicas) differ only in what answers a query.  Admission, drain,
the admission counters and the line → request → response loop in front
of that are one :class:`RequestGate`, which both subclass;
:class:`TenantQuotas` is the per-tenant quota it enforces.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Awaitable, Callable, Dict, Optional, Tuple

from repro.serving import protocol
from repro.utils.errors import (
    AdmissionError,
    GraphDimensionError,
    ProtocolError,
    QueryError,
)
from repro.utils.validation import is_count

__all__ = [
    "AdmissionStats",
    "RequestGate",
    "TenantQuotas",
    "TokenBucket",
    "check_count",
    "check_quota_config",
]

#: One op's handler: the parsed request in, the response object out.
Handler = Callable[[Dict], Awaitable[Dict]]


def check_count(name: str, value) -> None:
    """A count in a config (queue slots, batch size, tenants, queries in
    flight) is an :func:`~repro.utils.validation.is_count`: a NaN
    ``max_inflight`` would switch the bound off, since
    ``inflight + cost > nan`` is never true.
    """
    if not is_count(value):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def check_quota_config(config) -> None:
    """Validate the knobs the gate reads from a frontend or router config.

    Every number must be finite: a NaN rate would reach a client as
    ``"retry_after": NaN``, which is not JSON, and every comparison with
    NaN is false, so a NaN slips past a plain ``<= 0`` test.
    """
    check_count("max_tenants", config.max_tenants)
    rate, burst = config.quota_rate, config.quota_burst
    if rate is not None and not 0 < rate < math.inf:
        raise ValueError("quota_rate must be a finite number > 0 (or None)")
    if burst is not None and not 1 <= burst < math.inf:
        # burst < 1 would make even a single query cost > burst: a
        # permanently-dead server rejecting 100% of requests.
        raise ValueError("quota_burst must be a finite number >= 1 (or None)")
    if not 0 <= config.drain_timeout < math.inf:
        raise ValueError("drain_timeout must be a finite number >= 0")


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/sec up to ``burst``.

    ``try_acquire(cost)`` either takes the tokens and returns
    ``(True, 0.0)``, or leaves them and returns ``(False, seconds)`` —
    the exact wait until the acquisition could succeed (``inf`` when
    ``cost`` exceeds the burst capacity, i.e. never).
    """

    def __init__(
        self, rate: float, burst: float, clock=time.monotonic
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._clock = clock
        self._updated = clock()

    def try_acquire(self, cost: float = 1.0) -> Tuple[bool, float]:
        self.peek()
        if self.tokens >= cost:
            self.tokens -= cost
            return True, 0.0
        if cost > self.burst:
            return False, float("inf")
        return False, (cost - self.tokens) / self.rate

    def peek(self) -> float:
        """Refill for elapsed time and return the current token count."""
        now = self._clock()
        self.tokens = min(
            self.burst, self.tokens + (now - self._updated) * self.rate
        )
        self._updated = now
        return self.tokens


class TenantQuotas:
    """A bounded table of per-tenant token buckets with safe eviction.

    At most ``max_tenants`` named buckets are tracked (LRU); everyone
    past the cap shares one ``"<other>"`` bucket, mirroring how
    :class:`AdmissionStats` aggregates.  Eviction *folds* the evicted
    bucket into ``"<other>"`` (taking the minimum of the two balances)
    and a newcomer that displaces someone is *seeded* from
    ``"<other>"``'s balance instead of a fresh full burst — so cycling
    ``max_tenants + 1`` names buys the whole churning population at
    most one extra tenant's rate, instead of a fresh burst per name.
    """

    OTHER = "<other>"

    def __init__(
        self,
        rate: float,
        burst: float,
        max_tenants: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.max_tenants = int(max_tenants)
        self._clock = clock
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._other: Optional[TokenBucket] = None
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._buckets)

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._buckets

    def _other_bucket(self) -> TokenBucket:
        # Created lazily with a full burst: until the first eviction the
        # cap has never bound, so the shared bucket carries no history.
        if self._other is None:
            self._other = TokenBucket(self.rate, self.burst, self._clock)
        return self._other

    def try_acquire(self, tenant: str, cost: float) -> Tuple[bool, float]:
        bucket = self._buckets.get(tenant)
        if bucket is not None:
            self._buckets.move_to_end(tenant)
            return bucket.try_acquire(cost)
        bucket = TokenBucket(self.rate, self.burst, self._clock)
        if len(self._buckets) >= self.max_tenants:
            # Fold the LRU bucket into <other> conservatively (min, not
            # sum: merging must never *create* spendable tokens), then
            # seed the newcomer from <other> — a returning evicted
            # tenant resumes the shared balance, not a fresh burst.
            _, evicted = self._buckets.popitem(last=False)
            self.evictions += 1
            other = self._other_bucket()
            other.tokens = min(other.peek(), evicted.peek())
            bucket.tokens = min(self.burst, other.peek())
            # The newcomer's spending must drain the shared balance
            # too, or each churned name would re-spend the same seed:
            # acquire through <other> first, then mirror in the named
            # bucket so a tenant that *stays* resident earns back its
            # own refill stream.
            ok, wait = other.try_acquire(cost)
            if ok:
                bucket.tokens = max(bucket.tokens - cost, 0.0)
            self._buckets[tenant] = bucket
            return ok, wait
        self._buckets[tenant] = bucket
        return bucket.try_acquire(cost)


@dataclass
class AdmissionStats:
    """Admission counters, in queries (a batch counts its size).

    A tier's ``stats`` section is this record as it stands
    (:meth:`RequestGate._stats_section`), so a counter added here is
    served without another line.
    """

    admitted: int = 0
    completed: int = 0          # admitted queries answered
    failed: int = 0             # admitted queries that ended in an error
    rejected_quota: int = 0
    rejected_overload: int = 0
    rejected_draining: int = 0
    bad_requests: int = 0
    queue_peak: int = 0         # most queries in flight at once
    #: ``admitted`` / ``rejected_quota`` per tenant; past the config's
    #: ``max_tenants`` names the rest aggregate under ``"<other>"``.
    per_tenant: Dict[str, Dict[str, int]] = field(default_factory=dict)


class RequestGate:
    """Admission, drain and the NDJSON request loop of one serving tier.

    A tier subclasses this and passes in what is really its own: a
    *name* for messages (``"server"``, ``"router"``), its *config*
    (whose ``quota_rate`` / ``quota_burst`` / ``max_tenants`` /
    ``clock`` / ``drain_timeout`` fields the gate reads), its in-flight
    *capacity*, its *stats* (an :class:`AdmissionStats` subclass) and
    its *ops* table.  It defines ``_retry_after(cost)`` — when could
    *cost* more queries fit — ``start()`` / ``aclose()``, and the
    ``generation`` property and ``stats_payload()`` the inline ops
    answer with.  A query op calls :meth:`_admit` before doing any work
    and :meth:`_release` exactly once when the query ends.
    """

    def __init__(
        self,
        name: str,
        config,
        capacity: int,
        stats: AdmissionStats,
        ops: Dict[str, Handler],
    ) -> None:
        self.config = config
        self.stats = stats
        self._name = name
        self._capacity = capacity
        self._ops = ops
        #: The tenant bucket table (``None`` when quotas are off).
        self._buckets: Optional[TenantQuotas] = None
        if config.quota_rate is not None:
            self._buckets = TenantQuotas(
                config.quota_rate,
                config.quota_burst,
                config.max_tenants,
                config.clock,
            )
        self._inflight = 0
        self._draining = False
        self._shutdown_event = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Queries admitted and not yet released."""
        return self._inflight

    def begin_drain(self) -> None:
        """Stop admission; idempotent and synchronous.

        Everything already admitted will still be answered.
        """
        if not self._draining:
            self._draining = True
            self._shutdown_event.set()

    async def wait_shutdown(self) -> None:
        """Block until some peer requested shutdown (the serve loops)."""
        await self._shutdown_event.wait()

    async def _wait_drained(self) -> None:
        """Wait until every admitted query is released; raises
        :class:`asyncio.TimeoutError` past ``config.drain_timeout``."""
        await asyncio.wait_for(self._idle.wait(), self.config.drain_timeout)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self, tenant: str, cost: int) -> None:
        """Raise :class:`AdmissionError` unless *cost* queries may enter."""
        stats = self.stats
        if self._draining:
            stats.rejected_draining += cost
            raise AdmissionError(
                "shutting_down", f"{self._name} is draining; no new requests"
            )
        # Capacity is checked *before* the token bucket: an overload
        # rejection must not burn the tenant's quota, or a compliant
        # tenant retrying through a load spike would be double-penalised
        # into quota_exceeded.
        if self._inflight + cost > self._capacity:
            stats.rejected_overload += cost
            raise AdmissionError(
                "overloaded",
                f"{self._name} has {self._inflight}/{self._capacity} "
                "queries in flight",
                # A request bigger than the whole capacity can never
                # fit: no retry_after, matching the over-burst quota.
                retry_after=None
                if cost > self._capacity
                else self._retry_after(cost),
            )
        if self._buckets is not None:
            ok, wait = self._buckets.try_acquire(tenant, cost)
            if not ok:
                stats.rejected_quota += cost
                self._tenant(tenant)["rejected_quota"] += cost
                raise AdmissionError(
                    "quota_exceeded",
                    f"tenant {tenant!r} exceeded {self.config.quota_rate}"
                    " queries/sec",
                    retry_after=None if wait == float("inf") else wait,
                )
        stats.admitted += cost
        self._tenant(tenant)["admitted"] += cost
        self._inflight += cost
        self._idle.clear()
        stats.queue_peak = max(stats.queue_peak, self._inflight)

    def _release(self, cost: int, ok: bool) -> None:
        """End *cost* admitted queries as ``completed`` or ``failed``."""
        self._inflight -= cost
        if ok:
            self.stats.completed += cost
        else:
            self.stats.failed += cost
        if self._inflight == 0:
            self._idle.set()

    def _tenant(self, name: str) -> Dict[str, int]:
        """*name*'s ``per_tenant`` counters.  Tenant names come off the
        wire, so past ``config.max_tenants`` named tenants — the bucket
        table's cap too — a newcomer counts under ``"<other>"``."""
        per_tenant = self.stats.per_tenant
        full = len(per_tenant) >= self.config.max_tenants
        if full and name not in per_tenant:
            name = TenantQuotas.OTHER
        return per_tenant.setdefault(
            name, {"admitted": 0, "rejected_quota": 0}
        )

    def _stats_section(self) -> Dict:
        """The tier's own ``stats`` section: its counter record, plus
        the quota table's evictions."""
        section = asdict(self.stats)
        section["bucket_evictions"] = (
            self._buckets.evictions if self._buckets is not None else 0
        )
        return section

    # ------------------------------------------------------------------
    # the request loop
    # ------------------------------------------------------------------
    async def handle_line(self, line: str) -> Dict:
        """One NDJSON request line in, one response object out."""
        try:
            request = protocol.parse_request(line)
        except ProtocolError as exc:
            return self._bad_request(exc.request_id, exc)
        return await self.handle_request(request)

    async def handle_request(self, request: Dict) -> Dict:
        request_id = request.get("id")
        op = request["op"]
        try:
            handler = self._ops.get(op)
            if handler is not None:
                return await handler(request)
            if op == "ping":
                # Health probe: answered inline (no admission, no
                # queue) so a router can track generation and backlog
                # even while this tier is saturated.
                return protocol.ok_response(
                    request_id,
                    generation=self.generation,
                    queue_depth=self._inflight,
                    draining=self._draining,
                )
            if op == "stats":
                return protocol.ok_response(
                    request_id, **self.stats_payload()
                )
            if op == "shutdown":
                self.begin_drain()
                return protocol.ok_response(request_id, draining=True)
            served = ", ".join([*self._ops, "stats", "ping", "shutdown"])
            raise ProtocolError(
                f"op {op!r} is not served by the {self._name} "
                f"(it serves {served})"
            )
        except (ProtocolError, QueryError) as exc:
            # Bad top-k parameters are the client's fault, not ours.
            return self._bad_request(request_id, exc)
        except AdmissionError as exc:
            return protocol.error_response(
                request_id, exc.code, str(exc), retry_after=exc.retry_after
            )
        except (GraphDimensionError, OSError, ValueError) as exc:
            # Includes ReplicaError: a replica the router could not
            # fail over from.
            return protocol.error_response(
                request_id, "internal", f"{type(exc).__name__}: {exc}"
            )

    def _bad_request(self, request_id, exc: Exception) -> Dict:
        self.stats.bad_requests += 1
        detail = getattr(exc, "detail", None)  # QueryError carries none
        return protocol.error_response(
            request_id, "bad_request", str(exc), detail=detail
        )
