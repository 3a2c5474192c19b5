"""Tier-1 smoke test of the benchmark: every workload at ``--smoke`` scale.

Runs the real command (tiny databases, sub-second phases) and checks
what later PRs rely on: the names and units printed equal
``BENCHMARK.json``'s exactly, nothing fails its oracle, and the replay's
counts repeat for a seed.  No timing is asserted.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _start(out: Path, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "5",
         "--trace", str(trace), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _runs(document: dict, workload: str, kind: str) -> list:
    return document["workloads"][workload][kind]["runs"]


def test_smoke(tmp_path):
    # (kind of metrics, traced?) per command; the traced one runs twice
    # so that its counts can be compared.  All three run side by side:
    # the smoke asserts no timing.
    commands = {
        "first": ("end_to_end", 0),
        "second": ("per_layer", 1),
        "third": ("per_layer", 1),
    }
    processes = {
        label: _start(tmp_path / f"{label}.json", trace)
        for label, (_kind, trace) in commands.items()
    }
    documents = {}
    try:
        for label, process in processes.items():
            output, _ = process.communicate(timeout=240)
            assert process.returncode == 0, output
            # The driver reads the last line of stdout as the result.
            last = json.loads(output.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            documents[label] = json.loads(
                (tmp_path / f"{label}.json").read_text()
            )
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.kill()
                process.wait()

    for label, (kind, _trace) in commands.items():
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(NAME.match(name) for name in expected)
        assert list(documents[label]["workloads"]) == WORKLOADS
        for workload in WORKLOADS:
            for run in _runs(documents[label], workload, kind):
                result = run["result"]
                assert result["correct"] and result["failed"] == 0, run
                assert result["attempted"] >= 1
                printed = {
                    name: entry["unit"]
                    for name, entry in result["metrics"].items()
                }
                assert printed == expected

    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for workload in WORKLOADS:
        one, two = (
            _runs(documents[label], workload, "per_layer")[0]["result"][
                "metrics"]
            for label in ("second", "third")
        )
        for name in counts:
            assert one[name]["value"] == two[name]["value"], (workload, name)
