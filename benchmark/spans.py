"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, item) plus the deltas of
``semimatch.instrument.counters`` taken around it. Spans are recorded from
the benchmark's own files, around the calls it makes into each layer; the
program itself is not instrumented. Everything stays in memory until
``write`` dumps it as JSON when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, counters):
        self._counters = counters
        self._stack: list[int] = []
        self.spans: list[dict] = []
        self.item: int | None = None

    @contextmanager
    def span(self, name: str):
        """Record one span; nested ``span`` calls become its children."""
        record = {
            "name": name,
            "item": self.item,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "counts": {},
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        before = self._counters.snapshot()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            after = self._counters.snapshot()
            record["counts"] = {
                key: after[key] - before.get(key, 0)
                for key in after
                if after[key] != before.get(key, 0)
            }

    def roots(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None and s["name"] == name]

    def self_times(self) -> list[float]:
        """Per span: the time inside it that none of its child spans covers.

        Summed from the gaps between the children rather than by subtracting
        their durations, so children that overlap or reach outside their
        parent make a span's child durations plus self time differ from its
        duration instead of cancelling out.
        """
        children: list[list[dict]] = [[] for _ in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        out = []
        for span, kids in zip(self.spans, children):
            cursor, free = span["start"], 0.0
            for kid in sorted(kids, key=lambda k: k["start"]):
                free += max(0.0, kid["start"] - cursor)
                cursor = max(cursor, kid["end"])
            out.append(free + max(0.0, span["end"] - cursor))
        return out

    def totals(self, item_name: str) -> dict[str, dict[str, float]]:
        """Per span name: summed duration, summed self time and summed counts.

        Only spans of traced items (descendants of a root named
        ``item_name``, and that root itself) are included.
        """
        selfs = self.self_times()
        keep = set()
        for index, span in enumerate(self.spans):
            root = index
            while self.spans[root]["parent"] is not None:
                root = self.spans[root]["parent"]
            if self.spans[root]["name"] == item_name:
                keep.add(index)
        out: dict[str, dict[str, float]] = {}
        for index in sorted(keep):
            span = self.spans[index]
            entry = out.setdefault(span["name"], {"total_s": 0.0, "self_s": 0.0, "count": 0, "counts": {}})
            entry["total_s"] += span["end"] - span["start"]
            entry["self_s"] += selfs[index]
            entry["count"] += 1
            for key, value in span["counts"].items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        return out

    def write(self, path: str, header: dict) -> None:
        selfs = self.self_times()
        spans = [dict(span, self_s=selfs[i], id=i) for i, span in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": spans}, fh)
