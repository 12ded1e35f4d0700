"""Two independent computations on two threads, when the work is worth it.

``Matcher.match_pair`` treats the two images alike until coarse matching:
the backbone passes are independent, and within each transform layer so are
the two self-block calls and the two cross-block calls. ``run_pair`` runs
such a pair on the calling thread and one worker thread under one rule: two
CPUs are free and each callable does at least ``CONCURRENT_MACS``
multiply-adds. Below the rule it calls both in order on the calling thread.
The thread count is fixed (main + 1) whatever the machine, with no knob.
"""
from __future__ import annotations

import contextvars
import os
import threading
from typing import Callable, TypeVar

A = TypeVar("A")
B = TypeVar("B")

# Multiply-adds per callable from which a pair runs on two threads; below it a
# thread's start-up and its second malloc arena outweigh the overlap. Toy
# config at 256²: backbone ~42 M, transform ~46 M per image (in order); paper
# config: ~11.5 G and ~3.4 G (two threads). The per-shape tables are in
# CHANGES.md.
CONCURRENT_MACS = 500_000_000


def free_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (Linux), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def two_threads(work: int) -> bool:
    """The pair rule: each callable does ``work`` > 0 multiply-adds, at least
    ``CONCURRENT_MACS``, and two CPUs are free. A caller whose ops record a
    tape passes ``work=0``, so the tape is built on one thread."""
    return 0 < work and CONCURRENT_MACS <= work and free_cpus() >= 2


def run_pair(first: Callable[[], A], second: Callable[[], B], work: int) -> tuple[A, B]:
    """``(first(), second())``. When ``two_threads(work)``, ``second`` runs on
    one worker thread while the calling thread runs ``first``; the worker is
    joined before this returns or raises, and its exception is re-raised
    here. Otherwise both run in order on the calling thread."""
    if not two_threads(work):
        return first(), second()
    outcome: dict = {}

    def worker() -> None:
        try:
            outcome["value"] = second()
        except BaseException as exc:  # re-raised by the caller after the join
            outcome["error"] = exc

    # in the caller's context, so numpy's errstate and any other context variable hold there too
    thread = threading.Thread(target=contextvars.copy_context().run, args=(worker,), name="semimatch-lane-b")
    thread.start()
    try:
        value = first()
    finally:
        thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return value, outcome["value"]
