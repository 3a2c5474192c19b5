"""How fast is the server's core right now?  A reference loop says.

The box this benchmark runs on shares its cores with other machines'
work, and that shows in two ways, each core on its own schedule:

* the same pinned process runs up to 1.7× **slower** for spells of five
  to twenty seconds (a neighbour on the sibling thread, the caches, the
  clock), and
* the host takes the core **away** for milliseconds at a time — up to a
  third of a second in every second during bad spells (``steal`` in
  ``/proc/stat``).

No estimator inside a 25-second run sees through either, so every
timing reported end to end is divided by the :func:`slowdown` of the
core at the moment it was taken: between any two slices of a phase the
client stops sending, waits for the replies still due, and times
:func:`probe` on the core the ``serve`` child is pinned to; what the
host stole during the slice is read from the kernel.  A slowdown of 1.0
is that core on a quiet host; 1.5 means everything on it takes one and
a half times as long just now.

The loop owes nothing to the program under test — interpreter work on
dicts and lists, a JSON round trip, a small matrix product with a
partial sort — so a change to the program cannot hide in it.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

#: Timed repetitions of each kernel per probe, after one to warm up
#: (the probing thread has just moved to the server's core).
REPETITIONS = 2

_RNG = np.random.default_rng(2014)
_QUERIES = _RNG.random((16, 128))
_ROWS = _RNG.random((500, 128))
_RANDOM = random.Random(2014)
_RECORDS = [
    (str(i), {"a": i, "b": [i, _RANDOM.randrange(1000)]})
    for i in range(10000)
]
_DOCUMENTS = [
    json.dumps({
        "id": i,
        "op": "query",
        "k": 10,
        "graph": {
            "vertices": [_RANDOM.choice("CNOSP") for _ in range(24)],
            "edges": [
                [_RANDOM.randrange(24), _RANDOM.randrange(24), "s"]
                for _ in range(26)
            ],
        },
    })
    for i in range(72)
]


def _arrays() -> None:
    for _ in range(20):
        (_QUERIES @ _ROWS.T).argpartition(10, axis=1)


def _documents() -> None:
    for document in _DOCUMENTS:
        json.dumps(json.loads(document))


def _objects() -> None:
    table = {}
    for key, record in _RECORDS:
        table[key] = record["b"][0] + len(key)
    sorted(table.values())


#: (kernel, its seconds on this box's quiet core): each kernel weighs
#: the same in the probe whatever its length.
KERNELS: Sequence[Tuple[Callable[[], None], float]] = (
    (_arrays, 1.85e-3),
    (_documents, 1.5e-3),
    (_objects, 1.2e-3),
)


def probe(cpu: Optional[int]) -> float:
    """How much slower than on a quiet host core *cpu* computes now.

    Runs on the calling thread, moved to *cpu* for the duration; call
    it only while that core has nothing else to do.  Timed on the
    thread's CPU clock, which stands still while the host has taken the
    core away: :func:`stolen` counts that.
    """
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        ratios: List[float] = []
        for kernel, quiet in KERNELS:
            kernel()
            started = time.thread_time()
            for _ in range(REPETITIONS):
                kernel()
            took = (time.thread_time() - started) / REPETITIONS
            ratios.append(took / quiet)
        return sum(ratios) / len(ratios)
    finally:
        os.sched_setaffinity(0, allowed)


def stolen(cpu: Optional[int]) -> float:
    """Seconds the host has taken core *cpu* away since boot.

    ``None`` (no core of its own to watch) averages over all cores.
    """
    name = "cpu" if cpu is None else f"cpu{cpu}"
    for line in Path("/proc/stat").read_text().splitlines():
        fields = line.split()
        if fields[0] == name:
            ticks = int(fields[8])
            cores = os.cpu_count() if cpu is None else 1
            return ticks / os.sysconf("SC_CLK_TCK") / cores
    raise RuntimeError(f"{name} missing from /proc/stat")


def slowdown(
    before: float, after: float, stolen_s: float, wall_s: float
) -> float:
    """Slowdown over an interval of *wall_s* seconds.

    *before* and *after* are the probes at its ends, *stolen_s* what
    the host took away in between (never counted as more than 90 %, so
    that a tick of the kernel's clock cannot zero a short interval).
    """
    return (before + after) / 2 / (1 - min(stolen_s / wall_s, 0.9))
