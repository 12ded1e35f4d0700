"""Two independent computations on two threads, when the work is worth it.

The two images' backbone passes (``FusedBackbone.forward_pair``) are
independent, and so are a transform layer's two self-block and two
cross-block calls (``FeatureTransform.forward``). ``pairs`` runs such pairs
on the calling thread and one worker under one rule: nothing records a tape
(it is built on one thread), BLAS runs one thread, two CPUs are free and
each callable does at least ``CONCURRENT_MACS`` multiply-adds; else both run
in order on the calling thread. One worker at most (main + 1), with no knob.
"""
from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from .tensor import grad_enabled

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


def blas_one_thread() -> bool:
    """Whether OpenBLAS runs one thread, as it reads ``OPENBLAS_NUM_THREADS``,
    else ``OMP_NUM_THREADS``, when numpy loads: only "1" counts. At its
    default it threads each GEMM over every CPU, and two lanes run slower."""
    return (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")) == "1"


def two_threads(work: int) -> bool:
    """The pair rule: no op records onto the tape, each callable does at least
    ``CONCURRENT_MACS`` multiply-adds (``work``), BLAS runs one thread and
    two CPUs are free."""
    return not grad_enabled() and CONCURRENT_MACS <= work and blas_one_thread() and free_cpus() >= 2


@contextmanager
def pairs(work: int) -> Iterator[Callable[[Callable[[], A], Callable[[], B]], tuple[A, B]]]:
    """Yield ``run(first, second) -> (first(), second())`` for a block of
    pairs, checking the pair rule once with ``work``. When it holds, every
    ``second`` runs on the block's one worker thread, in the caller's context
    (so numpy's errstate and any other context variable hold there too),
    while the calling thread runs ``first``; ``run`` re-raises the worker's
    exception, and leaving the block joins the worker, also on an exception.
    Otherwise both run in order on the calling thread."""
    if not two_threads(work):
        yield lambda first, second: (first(), second())
        return
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="semimatch-lane-b") as worker:

        def run(first: Callable[[], A], second: Callable[[], B]) -> tuple[A, B]:
            future = worker.submit(contextvars.copy_context().run, second)
            return first(), future.result()

        yield run
