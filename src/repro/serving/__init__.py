"""Multi-user query serving on top of the online engine.

:class:`QueryService` is the traffic-facing layer of the ROADMAP
north-star: database vectors split into shards and an exact embedding
cache for the repeat-heavy streams real services see, each batch run
inline on one core — all while staying bit-identical to the
single-shard :class:`~repro.query.engine.QueryEngine`.

:class:`AsyncFrontend` is the long-running front door over it: a
bounded request queue with admission control, per-tenant token-bucket
quotas, cross-client batch coalescing, and graceful drain, speaking
newline-delimited JSON over TCP and stdin/stdout (``repro-graphdim
serve``).

:class:`Router` scales that horizontally (``repro-graphdim
serve-router``): one coordinator speaking the same NDJSON protocol over
N replicas — the one way to use a second core — with content-aware
placement from shard-summary geometry, cluster-wide tenant quotas,
read-after-acknowledged-write for every session (a replica in rotation
is at the cluster generation), and backpressure folded from every
replica's queue depth and measured drain rate.
"""

from repro.serving.frontend import (
    AsyncFrontend,
    FrontendConfig,
    FrontendStats,
)
from repro.serving.gate import TenantQuotas, TokenBucket
from repro.serving.router import (
    ContentPlacer,
    InprocReplica,
    ReplicaHandle,
    Router,
    RouterConfig,
    RouterStats,
    TcpReplica,
)
from repro.serving.service import QueryService, ServiceStats, Shard

__all__ = [
    "AsyncFrontend",
    "ContentPlacer",
    "FrontendConfig",
    "FrontendStats",
    "InprocReplica",
    "QueryService",
    "ReplicaHandle",
    "Router",
    "RouterConfig",
    "RouterStats",
    "ServiceStats",
    "Shard",
    "TcpReplica",
    "TenantQuotas",
    "TokenBucket",
]
