"""The ``serve`` child process and the NDJSON/TCP client that drives it.

Clients of this service wait for their replies (pipelined NDJSON), so
every read phase is a closed loop: each connection keeps a fixed number
of requests in flight and sends the next one when a reply arrives.  One
asyncio process drives all connections — this box has two cores, one
for the server and one for the generator.

A measured phase is cut into slices; between two slices the client
stops sending, waits for the replies still due and times the reference
loop of :mod:`machine` on the server's core, so that every timing
carries the speed of that core at the moment it was taken.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import machine
import workloads
from workloads import Traffic, Workload

#: Requests outstanding in the loaded phase: one default coalescing
#: batch of the server, split evenly over the reader connections.
OUTSTANDING = 16
#: Every SAMPLE_STRIDE-th read is kept for the oracle.  Coprime with
#: the 5-step policy cycle of ``vector_mix``, so every policy is sampled.
SAMPLE_STRIDE = 7
#: Seconds of traffic between two probes of the server's core.
SERIAL_SLICE_S = 0.25
LOADED_SLICE_S = 0.5
#: Back-to-back updates on the quiet server between two probes.
UPDATE_BLOCK = 10
#: The server's coalescing linger, seconds: the CLI's default, passed
#: explicitly because the serial latency is read against it (a timer
#: does not stretch when the core slows down; see ``run.py``).
BATCH_WINDOW_S = 0.002
#: No reply for this long fails the run (and kills the child).
REPLY_TIMEOUT = 60.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: One core for the server, one for the generator, when there are two.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, CLIENT_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) > 1 else (None, None)


# ----------------------------------------------------------------------
# the serve child
# ----------------------------------------------------------------------
class ServeChild:
    """``python -m repro.cli serve`` on an ephemeral port.

    Its stderr goes to a file (an undrained pipe deadlocks ``serve``);
    the port is read from the ``listening on HOST:PORT`` line, the same
    contract ``spawn_replica`` relies on.  Use as a context manager:
    a clean exit sends ``shutdown``, anything else kills the child.
    """

    def __init__(self, index: Path, shards: int, log: Path, src: Path):
        # REPRO_KERNEL and the BLAS thread count come from run.py's own
        # environment, so child, oracle and replay all run alike.
        env = dict(os.environ, PYTHONPATH=str(src))
        self.log = log
        self._log_handle = open(log, "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--index", str(index),
                "--tcp", "127.0.0.1:0", "--no-stdio",
                "--shards", str(shards),
                "--batch-window", str(BATCH_WINDOW_S),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log_handle,
            env=env,
        )
        if SERVER_CPU is not None:
            os.sched_setaffinity(self.process.pid, {SERVER_CPU})
        self.port: Optional[int] = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the child has bound and answered one ``ping``."""
        deadline = time.monotonic() + timeout
        while self.port is None:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"serve exited with {self.process.returncode}: "
                    + self.log.read_text(errors="replace")[-2000:]
                )
            if time.monotonic() > deadline:
                raise TimeoutError("serve did not bind in time")
            for line in self.log.read_text(errors="replace").splitlines():
                if line.startswith("listening on "):
                    self.port = int(line.rpartition(":")[2])
            if self.port is None:
                time.sleep(0.005)
        reply = self.call({"op": "ping", "id": 0})
        if not reply.get("ok"):
            raise RuntimeError(f"serve failed its first ping: {reply}")

    def call(self, request: Dict, timeout: float = REPLY_TIMEOUT) -> Dict:
        """One blocking request on a connection of its own."""
        with socket.create_connection(
            ("127.0.0.1", self.port), timeout=timeout
        ) as sock:
            sock.sendall(json.dumps(request).encode() + b"\n")
            with sock.makefile("rb") as stream:
                return json.loads(stream.readline())

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return (int(utime) + int(stime)) / CLOCK_TICKS

    def memory_mib(self, field: str) -> float:
        """``VmRSS`` (resident now) or ``VmHWM`` (its peak), in MiB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"{field} missing from /proc status")

    def shutdown(self) -> None:
        """Graceful ``shutdown`` op, then wait for the child to exit."""
        try:
            self.call({"op": "shutdown", "id": 0}, timeout=10.0)
            self.process.wait(timeout=30.0)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._log_handle.close()

    def __enter__(self) -> "ServeChild":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.shutdown()
        else:
            self.kill()


# ----------------------------------------------------------------------
# what the client records
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """One closed-loop read phase, cut into slices."""

    #: Seconds from the first send to the last reply, probes included.
    wall: float = 0.0
    #: Seconds per ok request, in completion order.
    latencies: List[float] = field(default_factory=list)
    #: Completion time of each ok request, on the ``perf_counter`` clock.
    completed_at: List[float] = field(default_factory=list)
    #: Per slice: first send, the time sending stopped, last reply
    #: (same clock), and the server core's slowdown over the slice.
    slices: List[Tuple[float, float, float, float]] = field(
        default_factory=list
    )
    server_cpu: float = 0.0
    client_cpu: float = 0.0
    stats_before: Dict = field(default_factory=dict)
    stats_after: Dict = field(default_factory=dict)

    @property
    def ok(self) -> int:
        return len(self.latencies)


@dataclass
class Drive:
    """Everything one served run produced."""

    attempted: int = 0
    failed: int = 0
    #: First few failures, for the report.
    errors: List[str] = field(default_factory=list)
    phases: Dict[str, Phase] = field(default_factory=dict)
    #: Sampled reads: (pool index, policy index, response).
    samples: List[Tuple[int, int, Dict]] = field(default_factory=list)
    #: Update latencies in seconds (from due time when on a schedule),
    #: when each was acknowledged, and the server core's slowdown then.
    update_latencies: List[float] = field(default_factory=list)
    update_acked_at: List[float] = field(default_factory=list)
    update_slowdowns: List[float] = field(default_factory=list)
    #: How many plan entries the server acknowledged, in plan order.
    updates_acked: int = 0
    #: (pool index, response) of the probe queries sent after the run.
    probes: List[Tuple[int, Dict]] = field(default_factory=list)
    #: Resident memory of the child right after the loaded phase, and
    #: its high-water mark after everything.
    rss_mib: float = 0.0
    peak_rss_mib: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(message)


def sliced(phase: Phase) -> List[Tuple[np.ndarray, float, float]]:
    """Per slice that saw a reply: its latencies, the replies per second
    while the client was still sending, and the core's slowdown."""
    latencies = np.asarray(phase.latencies)
    completed = np.asarray(phase.completed_at)
    table = []
    for first, stop, last, slowdown in phase.slices:
        inside = (completed >= first) & (completed <= last)
        if inside.any():
            rate = np.count_nonzero(inside & (completed < stop))
            rate /= stop - first
            table.append((latencies[inside], rate, slowdown))
    return table


def throughput(phase: Phase) -> float:
    """Replies per second at a quiet host's speed: the median slice's,
    so that a stall in a few slices does not show."""
    return float(np.median([
        rate * slowdown for _latencies, rate, slowdown in sliced(phase)
    ]))


def latency(phase: Phase, statistic, timer: float = 0.0) -> float:
    """Median over slices of *statistic*, at a quiet host's speed.

    *timer* seconds of every latency are spent waiting on a clock, which
    a slow core does not stretch; only the rest is divided by the
    slowdown.
    """
    return float(np.median([
        timer + (statistic(latencies) - timer) / slowdown
        for latencies, _rate, slowdown in sliced(phase)
    ]))


class _Connection:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        #: Generations must never go backwards on one connection.
        self.generation = 0

    @classmethod
    async def open(cls, port: int) -> "_Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24
        )
        return cls(reader, writer)

    async def reply(self) -> Dict:
        raw = await asyncio.wait_for(self.reader.readline(), REPLY_TIMEOUT)
        if not raw:
            raise ConnectionError("server closed the connection")
        return json.loads(raw)

    async def call(self, line: bytes) -> Dict:
        self.writer.write(line)
        return await self.reply()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _Client:
    """The request stream and the bookkeeping shared by all phases."""

    def __init__(
        self, workload: Workload, traffic: Traffic, drive: Drive
    ) -> None:
        self.workload = workload
        self.tails = traffic.tails
        self.order = traffic.order
        self.plan = traffic.plan
        self.drive = drive
        #: Held while an update is in flight and while the server's
        #: core is probed: the probe needs that core idle.
        self.server_idle = asyncio.Lock()
        self._ids = 0
        self._sent = 0

    def next_id(self) -> int:
        self._ids += 1
        return self._ids

    def next_read(self, warm: bool) -> Tuple[int, int, int, bytes]:
        """(request id, pool index, policy index, line) of the next read.

        The warm-up walks the pool in order so that every entry has
        been embedded once before the clock starts.
        """
        seq = self._sent
        self._sent += 1
        pool_index = (
            seq % self.workload.pool
            if warm
            else int(self.order[seq % len(self.order)])
        )
        policy_index = seq % len(self.tails)
        rid = self.next_id()
        line = workloads.request_line(rid, self.tails[policy_index][pool_index])
        return rid, pool_index, policy_index, line

    def check_read(self, conn: _Connection, response: Dict) -> bool:
        """Count one read reply; False when it is not a valid answer."""
        self.drive.attempted += 1
        if not response.get("ok"):
            self.drive.fail(f"read refused: {response}")
            return False
        generation = response.get("generation")
        if not isinstance(generation, int) or generation < conn.generation:
            self.drive.fail(
                f"generation went from {conn.generation} to {generation}"
            )
            return False
        conn.generation = generation
        return True

    async def closed_loop(
        self,
        conn: _Connection,
        window: int,
        phase: Phase,
        keep_going,
        warm: bool = False,
    ) -> None:
        """Keep *window* reads in flight while ``keep_going()`` holds."""
        inflight: Dict[int, Tuple[float, int, int, bool]] = {}

        def send() -> None:
            keep = self._sent % SAMPLE_STRIDE == 0
            rid, pool_index, policy_index, line = self.next_read(warm)
            inflight[rid] = (
                time.perf_counter(), pool_index, policy_index, keep
            )
            conn.writer.write(line)

        for _ in range(window):
            send()
        while inflight:
            response = await conn.reply()
            now = time.perf_counter()
            sent_at, pool_index, policy_index, keep = inflight.pop(
                response["id"]
            )
            if self.check_read(conn, response):
                phase.latencies.append(now - sent_at)
                phase.completed_at.append(now)
                if keep:
                    self.drive.samples.append(
                        (pool_index, policy_index, response)
                    )
            if keep_going():
                send()

    async def one_update(self, conn: _Connection, due: float) -> None:
        """Send the next planned update, then read back through it."""
        index = self.drive.updates_acked
        added, removed = self.plan[index]
        self.drive.attempted += 1
        async with self.server_idle:
            ack = await conn.call(
                workloads.update_line(self.next_id(), added, removed)
            )
            now = time.perf_counter()
            self.drive.update_latencies.append(now - due)
            self.drive.update_acked_at.append(now)
            if not ack.get("ok") or ack.get("generation") != index + 1:
                # The mirror can no longer follow; stop rather than guess.
                raise RuntimeError(f"update {index} not applied: {ack}")
            self.drive.updates_acked += 1
            # Read-your-writes: the writer's next read must see its update.
            rid = self.next_id()
            tail = self.tails[0][index % self.workload.pool]
            response = await conn.call(workloads.request_line(rid, tail))
        if self.check_read(conn, response) and (
            response["generation"] < ack["generation"]
        ):
            self.drive.fail(
                f"read at generation {response['generation']} after "
                f"update ack {ack['generation']}"
            )

    async def probe(self) -> float:
        """The server core's slowdown, taken while that core is idle.

        Blocks the event loop for the few milliseconds the reference
        loop takes: nothing is in flight, so nothing waits for it but
        an update that falls due meanwhile (timed from its due time).
        """
        async with self.server_idle:
            return machine.probe(SERVER_CPU)

    async def writer(self, conn: _Connection, started: float, stop) -> None:
        """Updates on a fixed schedule, each timed from its due time."""
        period = 1.0 / self.workload.writer_hz
        tick = 0
        while not stop.is_set():
            due = started + tick * period
            tick += 1
            delay = due - time.perf_counter()
            if delay > 0:
                try:
                    await asyncio.wait_for(stop.wait(), delay)
                    return
                except asyncio.TimeoutError:
                    pass
            if self.drive.updates_acked < len(self.plan):
                await self.one_update(conn, due)


async def _measured(
    client: _Client,
    server: ServeChild,
    control: _Connection,
    readers: Sequence[Tuple[_Connection, int]],
    seconds: float,
    slice_s: float,
) -> Phase:
    """One timed closed-loop phase over *readers* (connection, window).

    *seconds* of traffic in equal slices of at least *slice_s*, a probe
    of the server's core before the first and after each.
    """
    phase = Phase()
    stats_line = b'{"op":"stats","id":"stats"}\n'
    phase.stats_before = await control.call(stats_line)
    server_cpu, client_cpu = server.cpu_seconds(), time.process_time()
    started = time.perf_counter()
    before = await client.probe()
    count = max(int(seconds / slice_s), 1)
    for _ in range(count):
        first_send = time.perf_counter()
        stolen = machine.stolen(SERVER_CPU)
        stop_at = first_send + seconds / count
        await asyncio.gather(*(
            client.closed_loop(
                conn, window, phase,
                lambda: time.perf_counter() < stop_at,
            )
            for conn, window in readers
        ))
        last_reply = time.perf_counter()
        stolen = machine.stolen(SERVER_CPU) - stolen
        after = await client.probe()
        phase.slices.append((
            first_send, stop_at, last_reply,
            machine.slowdown(before, after, stolen, last_reply - first_send),
        ))
        before = after
    phase.wall = time.perf_counter() - started
    phase.server_cpu = server.cpu_seconds() - server_cpu
    phase.client_cpu = time.process_time() - client_cpu
    phase.stats_after = await control.call(stats_line)
    return phase


async def _drive(
    server: ServeChild,
    workload: Workload,
    traffic: Traffic,
    warmup_s: float,
    serial_s: float,
    loaded_s: float,
    quiet_updates: int,
    probes: int,
) -> Drive:
    """Warm-up, serial and loaded phases, then updates and probes.

    A workload with a writer sends its updates beside all three read
    phases; any other sends *quiet_updates* back to back afterwards.
    Last, *probes* queries are answered for the local mirror to check.
    """
    drive = Drive()
    client = _Client(workload, traffic, drive)
    a = await _Connection.open(server.port)
    b = await _Connection.open(server.port)
    control = await _Connection.open(server.port)
    writing = workload.writer_hz > 0
    # With a writer on connection B, all reads share connection A.
    loaded = (
        [(a, OUTSTANDING)]
        if writing
        else [(a, OUTSTANDING // 2), (b, OUTSTANDING // 2)]
    )
    stop_writer = asyncio.Event()
    writer_task = None
    try:
        if writing:
            writer_task = asyncio.ensure_future(
                client.writer(b, time.perf_counter(), stop_writer)
            )
        # Warm-up in the loaded shape, discarded: fills the embedding
        # cache, lazy pools and the page cache.
        warm = Phase()
        warm_started = time.perf_counter()
        need = workload.pool if workload.cached else 0

        def warming() -> bool:
            return (
                time.perf_counter() - warm_started < warmup_s
                or warm.ok < need
            )

        await asyncio.gather(*(
            client.closed_loop(conn, window, warm, warming, warm=True)
            for conn, window in loaded
        ))
        drive.samples.clear()
        updates_before = len(drive.update_latencies)
        drive.phases["serial"] = await _measured(
            client, server, control, [(a, 1)], serial_s, SERIAL_SLICE_S
        )
        drive.phases["loaded"] = await _measured(
            client, server, control, loaded, loaded_s, LOADED_SLICE_S
        )
        drive.rss_mib = server.memory_mib("VmRSS")
        if writing:
            stop_writer.set()
            await writer_task
            del drive.update_latencies[:updates_before]
            del drive.update_acked_at[:updates_before]
            # Each update carries the slowdown of the slice it ended in.
            slices = [
                s for phase in drive.phases.values() for s in phase.slices
            ]
            starts = np.array([s[0] for s in slices])
            drive.update_slowdowns = [
                slices[max(int(np.searchsorted(starts, at)) - 1, 0)][3]
                for at in drive.update_acked_at
            ]
        else:
            before = await client.probe()
            for lo in range(0, quiet_updates, UPDATE_BLOCK):
                block = min(UPDATE_BLOCK, quiet_updates - lo)
                started = time.perf_counter()
                stolen = machine.stolen(SERVER_CPU)
                for _ in range(block):
                    await client.one_update(b, time.perf_counter())
                stolen = machine.stolen(SERVER_CPU) - stolen
                wall = time.perf_counter() - started
                after = await client.probe()
                drive.update_slowdowns += [
                    machine.slowdown(before, after, stolen, wall)
                ] * block
                before = after
        # Probes, after every update: compared with the local mirror.
        for pool_index in range(min(probes, workload.pool)):
            response = await a.call(
                workloads.request_line(
                    client.next_id(), traffic.tails[0][pool_index]
                )
            )
            client.check_read(a, response)
            drive.probes.append((pool_index, response))
        drive.peak_rss_mib = server.memory_mib("VmHWM")
    finally:
        if writer_task is not None and not writer_task.done():
            writer_task.cancel()
            await asyncio.gather(writer_task, return_exceptions=True)
        for conn in (a, b, control):
            await conn.close()
    return drive


def drive(server: ServeChild, *args, **kwargs) -> Drive:
    """Run every phase against *server*; the client is this process."""
    # The client is the measuring instrument: a collection pause in it,
    # or a migration onto the server's core, would be charged to the
    # server's latency.
    allowed = os.sched_getaffinity(0)
    gc.disable()
    if CLIENT_CPU is not None:
        os.sched_setaffinity(0, {CLIENT_CPU})
    try:
        return asyncio.run(_drive(server, *args, **kwargs))
    finally:
        os.sched_setaffinity(0, allowed)
        gc.enable()
