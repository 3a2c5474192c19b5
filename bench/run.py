"""One command for the whole ledger.

    python3 bench/run.py --workload chem_zipf --seed 1 --seconds 12 --trace 0

builds the workload's index through the public library API, serves it
with the real ``python -m repro.cli serve`` child, drives it over
NDJSON/TCP, checks the answers against an oracle off the clock, prints
every metric by name with its unit, and ends with one JSON line.
``--trace 0`` reports the end-to-end metrics (no instrumentation
anywhere in the program; timings at a quiet host's speed, see
``machine.py``); ``--trace 1`` reports the per-layer metrics from a
short served run plus an in-process replay.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"bench/run.py: the program's source is missing ({SRC})")
sys.path.insert(0, str(SRC))
# Set before numpy loads, and inherited by the child: the numpy kernels
# (numba would JIT inside the clock), and BLAS on one thread — with
# `--workers 0` the server is one core, and a second BLAS thread would
# land on the client's.
PINNED_ENV = {
    "REPRO_KERNEL": "numpy",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import numpy as np  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import machine  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: Discarded warm-up in the loaded shape, seconds.
WARMUP_S = 1.0
SMOKE_WARMUP_S = 0.2
#: ``--seconds`` of a ``--smoke`` run: one slice per phase.
SMOKE_SECONDS = 1.0
#: Share of ``--seconds`` spent in the serial phase; the rest is loaded
#: (one request at a time repeats more closely than sixteen).
SERIAL_SHARE = 1 / 6
#: A traced run serves for this share of ``--seconds``; the replay
#: takes the rest of its time.
TRACED_SHARE = 1 / 3


def set_up(
    workload: workloads.Workload,
    workdir: Path,
    tracer: Tracer,
    cpu: Optional[int],
) -> Tuple[harness.ServeChild, Path, Dict, float]:
    """Build the index, spawn ``serve``, wait for its first ``ping``.

    The seconds returned are at a quiet host's speed: the build runs on
    core *cpu*, probed before and after (``None``: wherever the
    scheduler puts it, for runs that report no set-up time).
    """
    before = machine.probe(cpu)
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        started = time.perf_counter()
        stolen = machine.stolen(cpu)
        workdir.mkdir()
        index = workdir / "index.json"
        with tracer.span("setup"):
            info = workloads.build_index(workload, index, tracer)
            with tracer.span("serve.spawn_and_load"):
                server = harness.ServeChild(
                    index, workload.shards, workdir / "serve.log", SRC
                )
                try:
                    server.wait_ready()
                except BaseException:
                    server.kill()
                    raise
        took = time.perf_counter() - started
        stolen = machine.stolen(cpu) - stolen
    finally:
        os.sched_setaffinity(0, allowed)
    try:
        slowdown = machine.slowdown(before, machine.probe(cpu), stolen, took)
    except BaseException:
        server.kill()
        raise
    return server, index, info, took / slowdown


def run_once(
    workload: workloads.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
) -> Dict:
    """One run of one workload: the result line plus the details."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    tracer = Tracer(enabled=trace)
    try:
        setups: List[float] = []
        # Set-up repeats, and builds on the child's core, only where
        # its time is the metric reported.
        build_cpu = None if trace or smoke else harness.SERVER_CPU
        for attempt in range(0 if trace or smoke else SETUPS - 1):
            server, _index, _info, took = set_up(
                workload, scratch / f"setup{attempt}", tracer, build_cpu
            )
            server.shutdown()
            setups.append(took)
        server, index, info, took = set_up(
            workload, scratch / "served", tracer, build_cpu
        )
        setups.append(took)
        with server:
            served = seconds * (TRACED_SHARE if trace else 1.0)
            quiet_updates, probes = (8, 16) if smoke else (60, 64)
            # Enough planned updates for a writer that never pauses.
            updates = quiet_updates + int(
                workload.writer_hz * (WARMUP_S + served + 5.0)
            )
            traffic = workloads.traffic(
                workload, seed, updates, info["rows"]
            )
            drive = harness.drive(
                server, workload, traffic,
                warmup_s=SMOKE_WARMUP_S if smoke else WARMUP_S,
                serial_s=served * SERIAL_SHARE,
                loaded_s=served * (1 - SERIAL_SHARE),
                quiet_updates=quiet_updates,
                probes=probes,
            )
        recall, recall_samples = verify.check(
            index, workload, traffic, drive
        )
        serial, loaded = drive.phases["serial"], drive.phases["loaded"]
        client_share = loaded.client_cpu / loaded.wall
        details = {
            "workload": workload.name,
            "seed": seed,
            "trace": int(trace),
            "setups_s": setups,
            "serial_samples": serial.ok,
            "loaded_samples": loaded.ok,
            "update_samples": len(drive.update_latencies),
            "recall_samples": recall_samples,
            "checked_answers": len(drive.samples) + len(drive.probes),
            "client_cpu_share": client_share,
            # Quartiles of the server core's slowdown over the loaded
            # slices: what the timings below were divided by.
            "slowdown": np.percentile(
                [s[3] for s in loaded.slices], [25, 50, 75]
            ).round(3).tolist(),
            "server_cpu_share": loaded.server_cpu / loaded.wall,
            # The generator, not the program, was the limit.
            "valid": client_share <= 0.7,
            "errors": drive.errors,
        }
        if trace:
            values = layers.report(
                workload, index, info, traffic, drive, tracer, scratch,
                requests=(
                    layers.SMOKE_REQUESTS if smoke else layers.REPLAY_REQUESTS
                ),
            )
            tracer.dump(OUT / f"{workload.name}.trace.json")
            units = PER_LAYER
        else:
            values = {
                "setup_s": statistics.median(setups),
                "throughput_qps": harness.throughput(loaded),
                # One request at a time waits out the whole linger.
                "serial_p50_ms": harness.latency(
                    serial, np.median, harness.BATCH_WINDOW_S
                ) * 1e3,
                "server_rss_mb": drive.rss_mib,
                "recall_at_k": recall,
                "update_p50_ms": float(np.median(
                    np.array(drive.update_latencies)
                    / np.array(drive.update_slowdowns)
                )) * 1e3,
            }
            units = END_TO_END
        if set(values) != set(units):
            raise RuntimeError(
                "metric names differ from BENCHMARK.json: "
                f"{sorted(set(values) ^ set(units))}"
            )
        result = {
            "correct": drive.failed == 0,
            "attempted": drive.attempted,
            "failed": drive.failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": units[name]}
                for name in units
            },
        }
        return {"result": result, "details": details}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def describe_host() -> Dict:
    try:
        revision = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "env": PINNED_ENV,
        "git": revision or "unknown",
    }


def summarise(runs: List[Dict]) -> Dict:
    """Median and quartiles per metric over the runs of one workload."""
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        entry = {"median": statistics.median(values), "values": values}
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(workloads.FULL), default=None,
        help="one workload (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="measured serial + loaded time per run",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics, 1: per-layer metrics (default: both)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs per workload and mode, all with the same seed",
    )
    parser.add_argument("--out", default=None, help="write all runs as JSON")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes and sub-second phases (the tier-1 smoke test)",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat must be >= 1 and --seconds positive")
    table = workloads.SMOKE if args.smoke else workloads.FULL
    names = [args.workload] if args.workload else list(workloads.FULL)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    seconds = SMOKE_SECONDS if args.smoke else args.seconds

    document = {"host": describe_host(), "seconds": seconds, "workloads": {}}
    for name in names:
        for trace in modes:
            runs = [
                run_once(table[name], args.seed, seconds, trace, args.smoke)
                for _ in range(args.repeat)
            ]
            key = "per_layer" if trace else "end_to_end"
            document["workloads"].setdefault(name, {})[key] = {
                "runs": runs, "summary": summarise(runs),
            }
            for run in runs:
                print(f"# {name} seed={args.seed} trace={int(trace)} "
                      + json.dumps(run["details"]))
                for metric, entry in run["result"]["metrics"].items():
                    print(f"{name}.{metric} = {entry['value']:.6g} "
                          f"{entry['unit']}")
                if not run["details"]["valid"]:
                    print(f"# INVALID: client used "
                          f"{run['details']['client_cpu_share']:.2f} of a "
                          "core; the generator was the limit")
                print(json.dumps(run["result"]), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
