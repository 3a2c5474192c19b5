"""In-memory spans for the traced run: name, start, end, parent, request id.

The benchmark records spans from its own files, around its calls into
each layer of the program (spans inside the program are ROADMAP's
``repro.obs`` item).  End-to-end runs use a disabled tracer, so they
carry no instrumentation at all.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Collects spans in a list; written out once, when the run ends."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # [name, start, end, parent index or None, request id or None]
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request_id=None) -> Iterator[Optional[int]]:
        """Time a block; its parent is the enclosing ``span`` block."""
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, request_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def record(
        self, name: str, start: float, end: float, parent=None, request_id=None
    ) -> None:
        """Add a span timed by the caller (other threads, tight loops)."""
        if self.enabled:
            self.spans.append([name, start, end, parent, request_id])

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_durations(self) -> List[float]:
        """Per span, in order: its duration minus what its children cover."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def self_times(self) -> Dict[str, float]:
        """Per name: summed self durations."""
        out: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_durations()):
            out[span[0]] = out.get(span[0], 0.0) + own
        return out

    def dump(self, path) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        document = {
            "columns": ["name", "start", "end", "parent", "request_id"],
            "spans": [
                [s[0], s[1] - origin, s[2] - origin, s[3], s[4]]
                for s in self.spans
            ],
            "self_seconds": self.self_times(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
