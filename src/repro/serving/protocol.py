"""The newline-delimited-JSON serving protocol.

One request per line, one response per line, in order of *completion*
(responses carry the request ``id``, so clients may pipeline).  The same
codec speaks over TCP and over stdin/stdout — ``repro-graphdim serve``
wires both.

Requests
--------
``{"op": "query", "id": 1, "tenant": "alice", "k": 5, "graph": G}``
    Top-k for one query graph, ``k >= 1``.  ``G`` is the wire graph
    format below.  An optional ``"search"`` object picks the shard-search policy:
    ``{"mode": "exact"}`` (the default — bit-exact answers, shards
    skipped only when provably irrelevant), ``{"mode": "exact",
    "prune": false}`` (force the full scan), ``{"mode": "approx",
    "nprobe": 2}`` (visit each query's 2 closest shards only — DSPMap
    partition routing when the server shards by partition; routing
    extends past ``nprobe`` if those shards hold fewer than ``k`` rows,
    so answers stay full-length), ``{"mode": "approx", "nprobe":
    "auto"}`` (adaptive: each query stops widening its shard set once
    the remaining shards' lower bounds clear its running k-th-best —
    the response's ``pruning.effective_nprobe`` reports the mean shard
    count actually visited), or ``{"mode": "graph", "ef": 32}``
    (best-first beam over the navigable proximity graph — sublinear:
    only the rows the beam walks past are evaluated; ``ef`` is the
    beam width, omit it for the server default).  Unknown modes are
    rejected with a ``bad_request`` whose ``detail.allowed_modes``
    lists every accepted mode.
``{"op": "batch", "id": 2, "tenant": "alice", "k": 5, "graphs": [G...]}``
    Top-k for a client-side batch of at least one graph (admitted as
    one unit); accepts the same optional ``"search"`` policy.
``{"op": "stats", "id": 3}``
    Front-end + service counters and queue depth.
``{"op": "update", "id": 4, "add": [G...], "remove": [3, 17]}``
    Live index mutation through :meth:`QueryService.apply_update
    <repro.serving.service.QueryService.apply_update>`; ``remove`` uses
    the pre-update numbering.  At least one of ``add`` / ``remove`` must
    hold an entry: an accepted update is exactly one generation on every
    tier; one that would change nothing, names a row that does not
    exist or removes every row is a ``bad_request`` and none.  It never
    changes the selected features — past the drift threshold it flags
    the index ``stale`` and ``maintain`` heals it.
``{"op": "reload", "id": 5, "path": "/path/to/index.json"}``
    Server-side artifact reload: load the index artifact at *path*
    and swap the serving index atomically.
``{"op": "maintain", "id": 8}``
    Run one maintenance pass now (the background loop's work, on
    demand): staleness-triggered re-selection when the server has a
    reselector.  Responds with the pass's report (``stale``,
    ``reselected``, ``generation``).  A pass never writes the index
    artifact the server was started from.
``{"op": "shutdown", "id": 6}``
    Graceful drain: stop admitting, answer everything in flight, then
    exit.
``{"op": "ping", "id": 7}``
    Lightweight health probe: answers immediately (no admission, no
    queue) with the current ``generation``, ``queue_depth`` and
    ``draining`` flag.  The router tier uses it to track replica
    freshness and backlog without spending quota.

Responses
---------
``{"id": 1, "ok": true, "ranking": [...], "scores": [...],
"generation": 0, "pruning": {"mode": "exact", "shards_visited": 2,
"shards_skipped": 2, "bound_checks": 4}}`` on success (``generation``
counts applied updates — it names the exact database state the answer
was computed on; ``pruning`` reports this request's own share of the
shard-skipping work — for graph-mode requests it is ``{"mode":
"graph", "ef": 32, "hops": 14, "distance_evaluations": 96}``), or
``{"id": 1, "ok": false, "error": "quota_exceeded", "message": "...",
"retry_after": 0.25}`` on a structured rejection.  ``error`` is one of
``bad_request``, ``quota_exceeded``, ``overloaded``, ``shutting_down``
or ``internal``; ``retry_after`` (seconds) is present whenever retrying
can succeed.  A rejected line carries its request's ``id`` whenever it
parsed to a JSON object, ``null`` otherwise.

Wire graphs
-----------
``{"vertices": ["C", "C", "O"], "edges": [[0, 1, "s"], [1, 2, "d"]],
"id": "q1"}`` — the same stringified-label convention as
:func:`repro.graph.io.dumps_json`, one graph per object.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Dict, Optional

from repro.graph.io import graph_to_obj
from repro.graph.labeled_graph import Label, LabeledGraph
from repro.query.pruning import SEARCH_MODES, SearchPolicy
from repro.query.topk import TopKResult
from repro.utils.errors import InvalidGraphError, ProtocolError, QueryError

#: Every operation the serve loop understands.
OPS = (
    "query",
    "batch",
    "stats",
    "update",
    "reload",
    "maintain",
    "shutdown",
    "ping",
)

#: Structured rejection / failure codes a response's ``error`` may carry.
ERROR_CODES = (
    "bad_request",
    "quota_exceeded",
    "overloaded",
    "shutting_down",
    "internal",
)


# ----------------------------------------------------------------------
# wire graphs
# ----------------------------------------------------------------------
def graph_to_wire(g: LabeledGraph) -> Dict:
    """Serialise one graph as a JSON-ready object (labels stringified).

    Exactly :func:`repro.graph.io.graph_to_obj` — the wire format *is*
    the file format, shared at the function level so they cannot drift.
    """
    return graph_to_obj(g)


def graph_from_wire(
    obj, decode: Callable[[str], Label] = str
) -> LabeledGraph:
    """Parse one wire graph, raising :class:`ProtocolError` on junk.

    Every label passes through *decode* as the one graph is built
    (the frontend hands in its :class:`LabelCodec`'s ``decode``; the
    default keeps the wire's strings).
    """
    if not isinstance(obj, dict):
        raise ProtocolError("graph must be an object")
    vertices = obj.get("vertices")
    if not isinstance(vertices, list) or not all(
        isinstance(v, str) for v in vertices
    ):
        raise ProtocolError("graph 'vertices' must be a list of labels")
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise ProtocolError("graph 'edges' must be a list of [u, v, label]")
    g = LabeledGraph([decode(v) for v in vertices], graph_id=obj.get("id"))
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) != 3:
            raise ProtocolError("each edge must be [u, v, label]")
        u, v, label = edge
        if not (is_wire_int(u) and is_wire_int(v) and isinstance(label, str)):
            raise ProtocolError(
                f"bad edge {edge!r}: expected [integer, integer, string]"
            )
        try:
            g.add_edge(u, v, decode(label))
        except (TypeError, ValueError, InvalidGraphError) as exc:
            raise ProtocolError(f"bad edge {edge!r}: {exc}") from exc
    return g


# ----------------------------------------------------------------------
# requests and responses
# ----------------------------------------------------------------------
def is_wire_int(value) -> bool:
    """A JSON integer — not ``true``/``false``, which Python's ``bool``
    would smuggle through ``isinstance(value, int)`` as 1/0."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_request(line: str) -> Dict:
    """Parse and shape-check one request line.

    Field *types* are validated here; graph payloads are decoded later
    (per-op) so a bad graph in a batch fails that request alone, with a
    message naming the culprit.
    """
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise ProtocolError("request must be a JSON object")
    try:
        _check_shape(request)
    except ProtocolError as exc:
        # The rejection names its request, so a pipelining client that
        # correlates by id can match it.
        exc.request_id = request.get("id")
        raise
    return request


def _check_shape(request: Dict) -> None:
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of {', '.join(OPS)})"
        )
    if op in ("query", "batch"):
        # A request that can never succeed is refused here, before any
        # tier admits it: it must spend no quota and count no failure.
        if not is_wire_int(request.get("k")):
            raise ProtocolError(f"{op!r} requires an integer 'k'")
        if request["k"] < 1:
            raise ProtocolError("'k' must be >= 1")
        if op == "query" and "graph" not in request:
            raise ProtocolError("'query' requires a 'graph'")
        if op == "batch" and not isinstance(request.get("graphs"), list):
            raise ProtocolError("'batch' requires a 'graphs' list")
        if op == "batch" and not request["graphs"]:
            raise ProtocolError("'batch' needs at least one graph")
        if "search" in request and not isinstance(request["search"], dict):
            raise ProtocolError("'search' must be an object")
    if op == "update":
        if not isinstance(request.get("add", []), list):
            raise ProtocolError("'update' field 'add' must be a list")
        if not isinstance(request.get("remove", []), list):
            raise ProtocolError("'update' field 'remove' must be a list")
        if not all(is_wire_int(i) for i in request.get("remove", [])):
            raise ProtocolError(
                "'remove' must hold integer database indices"
            )
        if not request.get("add") and not request.get("remove"):
            raise ProtocolError(
                "'update' needs an 'add' or a 'remove' entry"
            )
    if op == "reload" and not isinstance(request.get("path"), str):
        raise ProtocolError("'reload' requires a string 'path'")
    tenant = request.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise ProtocolError("'tenant' must be a string")


def search_policy_from_request(request: Dict) -> Optional[SearchPolicy]:
    """The request's ``search`` object as a policy (``None`` when absent).

    Shapes and values are validated here so a junk policy fails the one
    request with a structured ``bad_request``, before it is ever
    admitted or coalesced with well-formed traffic.
    """
    section = request.get("search")
    if section is None:
        return None
    mode = section.get("mode", "exact")
    if mode not in SEARCH_MODES:
        # Structured rejection: the response's "detail" names every
        # accepted mode so clients can adapt without parsing prose.
        raise ProtocolError(
            f"unknown search mode {mode!r} "
            f"(expected one of {', '.join(SEARCH_MODES)})",
            detail={"allowed_modes": list(SEARCH_MODES)},
        )
    nprobe = section.get("nprobe")
    if nprobe not in (None, "auto") and not is_wire_int(nprobe):
        raise ProtocolError("'nprobe' must be an integer or \"auto\"")
    ef = section.get("ef")
    if ef is not None and not is_wire_int(ef):
        raise ProtocolError("'ef' must be an integer")
    prune = section.get("prune", True)
    if not isinstance(prune, bool):
        raise ProtocolError("'prune' must be a boolean")
    unknown = set(section) - {"mode", "nprobe", "prune", "ef"}
    if unknown:
        raise ProtocolError(
            f"unknown 'search' fields: {', '.join(sorted(unknown))}"
        )
    try:
        return SearchPolicy(mode=mode, nprobe=nprobe, prune=prune, ef=ef)
    except QueryError as exc:
        raise ProtocolError(str(exc)) from exc


def ok_response(request_id, **fields) -> Dict:
    response = {"id": request_id, "ok": True}
    response.update(fields)
    return response


def error_response(
    request_id,
    code: str,
    message: str,
    retry_after: Optional[float] = None,
    detail=None,
) -> Dict:
    assert code in ERROR_CODES, code
    response = {"id": request_id, "ok": False, "error": code, "message": message}
    if retry_after is not None:
        response["retry_after"] = round(float(retry_after), 6)
    if detail is not None:
        response["detail"] = detail
    return response


def result_to_wire(result: TopKResult) -> Dict:
    return {
        "ranking": list(result.ranking),
        "scores": list(result.scores),
    }


def encode_response(response: Dict) -> bytes:
    return (json.dumps(response, separators=(",", ":")) + "\n").encode()


# ----------------------------------------------------------------------
# connection loops
# ----------------------------------------------------------------------
#: Longest accepted request line (a DoS guard on the stream reader).
MAX_LINE_BYTES = 8 * 1024 * 1024


async def handle_connection(
    frontend,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one NDJSON peer until EOF or server shutdown.

    Requests are dispatched concurrently (clients may pipeline); each
    response is written as soon as its request completes, serialised by
    a per-connection lock so lines never interleave.
    """
    write_lock = asyncio.Lock()
    pending: set = set()
    # An idle peer must not block shutdown: since Python 3.12.1,
    # ``Server.wait_closed()`` waits for every connection handler, so a
    # handler parked in readline() would wedge the whole serve loop.
    # Racing the read against the shutdown event (exactly like
    # serve_stdio) keeps drain prompt on every Python.
    shutdown = asyncio.ensure_future(frontend.wait_shutdown())

    async def respond(response: Dict) -> None:
        async with write_lock:
            writer.write(encode_response(response))
            await writer.drain()

    async def dispatch(line: str) -> None:
        response = await frontend.handle_line(line)
        await respond(response)

    try:
        while True:
            read_task = asyncio.ensure_future(reader.readline())
            await asyncio.wait(
                {read_task, shutdown},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if not read_task.done():
                # Drain began elsewhere.  Give a request already on the
                # wire one short grace window so its sender gets a
                # structured shutting_down rejection instead of a bare
                # EOF; a genuinely idle peer just gets closed.
                await asyncio.wait({read_task}, timeout=0.05)
            if not read_task.done():
                read_task.cancel()
                break
            try:
                raw = read_task.result()
            except (ValueError, asyncio.LimitOverrunError):
                await respond(
                    error_response(
                        None, "bad_request",
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                    )
                )
                break
            if not raw:
                break
            line = raw.decode(errors="replace").strip()
            if not line:
                continue
            task = asyncio.ensure_future(dispatch(line))
            pending.add(task)
            task.add_done_callback(pending.discard)
            if frontend.draining:
                # The shutdown op admits no successors on this
                # connection: finish what was read, then close.
                break
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    except asyncio.CancelledError:
        # The server (or loop) was torn down mid-read.  Ending the
        # handler normally keeps shutdown quiet; anything this peer had
        # in flight is already settled by the frontend's drain.
        pass
    finally:
        shutdown.cancel()
        for task in pending:
            task.cancel()
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass


async def serve_tcp(frontend, host: str, port: int) -> asyncio.AbstractServer:
    """Start the NDJSON TCP listener (bind with ``port=0`` for tests)."""
    return await asyncio.start_server(
        lambda r, w: handle_connection(frontend, r, w),
        host,
        port,
        limit=MAX_LINE_BYTES,
    )


async def serve_stdio(frontend, stdin=None, stdout=None) -> None:
    """Serve NDJSON over this process's stdin/stdout until EOF or drain.

    *stdin*/*stdout* accept explicit binary streams for testing; by
    default the real file descriptors are used.  A pipe or socket is
    read through an asyncio pipe transport; anything else is pumped.
    """
    import os
    import stat
    import sys
    import threading

    loop = asyncio.get_running_loop()
    source = stdin if stdin is not None else sys.stdin.buffer
    out = stdout if stdout is not None else sys.stdout.buffer
    try:
        mode = os.fstat(source.fileno()).st_mode
    except (ValueError, OSError):
        mode = 0  # a stream without a descriptor
    if stat.S_ISFIFO(mode) or stat.S_ISSOCK(mode):
        reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), source
        )

        async def read_line() -> bytes:
            return await reader.readline()

    else:
        # A regular file (``serve < session.ndjson``) or a character
        # device (a terminal, ``serve < /dev/null``): pipe transports
        # reject the first, and epoll refuses ``/dev/null`` from inside
        # a loop callback, where no caller can catch it.  A *daemon*
        # thread pumps lines into the loop: unlike run_in_executor, a
        # read still blocked at process exit cannot hang interpreter
        # shutdown.  The semaphore bounds read-ahead, so a multi-GB
        # session file is streamed a few lines at a time instead of
        # buffered wholesale.
        lines: "asyncio.Queue[bytes]" = asyncio.Queue()
        backpressure = threading.Semaphore(64)

        def _pump() -> None:
            while True:
                try:
                    chunk = source.readline()
                except (ValueError, OSError):
                    chunk = b""
                backpressure.acquire()
                try:
                    loop.call_soon_threadsafe(lines.put_nowait, chunk)
                except RuntimeError:  # loop already closed
                    return
                if not chunk:
                    return

        threading.Thread(
            target=_pump, name="serve-stdio-reader", daemon=True
        ).start()

        async def read_line() -> bytes:
            raw = await lines.get()
            backpressure.release()
            return raw

    # A drain can start outside this loop — a TCP peer's shutdown op,
    # or a SIGINT/SIGTERM handler — while we are blocked reading
    # stdin; racing the read against the shutdown event keeps the
    # serve loop responsive to all of them.
    shutdown = asyncio.ensure_future(frontend.wait_shutdown())
    try:
        while not frontend.draining:
            pending_line = asyncio.ensure_future(read_line())
            await asyncio.wait(
                {pending_line, shutdown},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if not pending_line.done():
                pending_line.cancel()
                break  # drain began elsewhere; stop reading
            try:
                raw = pending_line.result()
            except (ValueError, asyncio.LimitOverrunError):
                out.write(
                    encode_response(
                        error_response(
                            None, "bad_request",
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        )
                    )
                )
                out.flush()
                break
            if not raw:
                break
            line = raw.decode(errors="replace").strip()
            if not line:
                continue
            response = await frontend.handle_line(line)
            out.write(encode_response(response))
            out.flush()
    finally:
        shutdown.cancel()
