"""Lightweight op counters used by tests and benchmark assertions.

A single process-wide counter table is enough at desk scale. Ops run on
more than one thread (``Matcher.match_pair`` may run image B's backbone
pass and transform block calls on a worker, see ``lanes``), so every update
takes a lock and no count is lost.
"""
from __future__ import annotations

import threading
from collections import Counter


class OpCounters:
    def __init__(self) -> None:
        self._counts: Counter[str] = Counter()
        self._lock = threading.Lock()

    def add(self, key: str, amount: int = 1) -> None:
        with self._lock:  # += is a read-modify-write
            self._counts[key] += amount

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def reset(self, *keys: str) -> None:
        """Reset the given keys, or everything when called without arguments."""
        with self._lock:
            if keys:
                for key in keys:
                    self._counts.pop(key, None)
            else:
                self._counts.clear()

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


counters = OpCounters()
