"""In-memory span recorder for the traced benchmark run.

A span has a name, start and end (``time.perf_counter`` seconds), the
id of the span that was open when it started, and the id of the
operation it belongs to.  Spans are kept in a list and written out once,
when the run ends.  The recorder is single-threaded: spans nest strictly.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.op_id = None

    @contextmanager
    def span(self, name):
        """Record one span around the body; yields the span record."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "op": self.op_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def operation(self, name):
        """A root span; every span opened inside carries its name as ``op``."""
        self.op_id = name
        try:
            with self.span(name) as record:
                yield record
        finally:
            self.op_id = None

    def total(self, name):
        """Summed duration of every span called ``name`` (0 if none)."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name):
        return sum(1 for s in self.spans if s["name"] == name)

    def self_time(self, record):
        """Duration minus the time covered by direct children.

        Children of one span never overlap (one thread), so the covered
        time is the sum of their durations.
        """
        covered = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] == record["id"]
        )
        return (record["end"] - record["start"]) - covered

    def self_times(self):
        """Self time summed per span name."""
        out = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + self.self_time(s)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "self_s": self.self_times()}, fh, indent=1)
