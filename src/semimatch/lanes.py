"""Two independent computations on two threads, when the work is worth it.

The two images' backbone passes (``FusedBackbone.forward_pair``), a
transform layer's two self-block and two cross-block calls
(``FeatureTransform.forward``) and their fine fusion (``Matcher.fine_maps``)
are independent. ``pairs`` runs such pairs on the calling thread and one
worker under one rule: nothing records a tape (it is built on one thread),
BLAS runs one thread, two CPUs are free and each callable does at least the
stage's threshold of multiply-adds; else both run in order on the calling
thread. One worker at most (main + 1), with no knob.
"""
from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

import numpy as np

from .tensor import grad_enabled

A = TypeVar("A")
B = TypeVar("B")

# Multiply-adds per callable from which a stage's pair runs on two threads;
# below it the hand-off to the worker and its malloc arena cost more than the
# overlap. Each is fitted from BENCH_lanes.json (scripts/lane_table.py: toy
# and seed-0 paper config at 64², 128², 256² and 480x640, 10 pairs of fresh
# processes, BLAS on one thread) and lies between the largest work where two
# lanes lost and the smallest where they won at least 9 of 10 pairs.
# Against running in order, for the backbone pair (lost at 2.7 M, toy 64²;
# 5 of 10 at 10.6 M, toy 128²; won from 42 M, toy 256²) and the fine fusion
# pair (lost at 7.6 M, toy 128²; won from 30 M, toy 256²):
IN_ORDER_MACS = 20_000_000
# Against the transform's stacked (2, d, H, W) batch, which already shares
# each op's dispatch between the images (lost at 210 M, paper 64²; won from
# 506 M, toy 480x640):
STACKED_MACS = 300_000_000


def free_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (Linux), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that numpy loaded (its wheels ship it in ``numpy.libs/``),
    or None where that library or its ``scipy_openblas_get_num_threads64_``
    is missing."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


def blas_one_thread() -> bool:
    """Whether OpenBLAS runs one thread. The library numpy loaded is asked
    its count, so a count set at run time is seen; where it cannot be asked,
    the count is read as OpenBLAS reads it when numpy loads,
    ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, and only "1" counts.
    At its default OpenBLAS threads each GEMM over every CPU, and two lanes
    run slower."""
    lib = _openblas()
    if lib is None:
        return (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")) == "1"
    return lib.scipy_openblas_get_num_threads64_() == 1


def two_threads(work: int, threshold: int) -> bool:
    """The pair rule: no op records onto the tape, each callable does at least
    ``threshold`` multiply-adds (``work``), BLAS runs one thread and two CPUs
    are free."""
    return not grad_enabled() and threshold <= work and blas_one_thread() and free_cpus() >= 2


@contextmanager
def pairs(work: int, threshold: int) -> Iterator[Callable[[Callable[[], A], Callable[[], B]], tuple[A, B]]]:
    """Yield ``run(first, second) -> (first(), second())`` for a block of
    pairs, checking the pair rule once with ``work`` and the stage's
    ``threshold``. When it holds, every ``second`` runs on the block's one
    worker thread, in the caller's context (so numpy's errstate and any other
    context variable hold there too), while the calling thread runs
    ``first``; ``run`` re-raises the worker's exception, and leaving the
    block joins the worker, also on an exception. Otherwise both run in
    order on the calling thread."""
    if not two_threads(work, threshold):
        yield lambda first, second: (first(), second())
        return
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="semimatch-lane-b") as worker:

        def run(first: Callable[[], A], second: Callable[[], B]) -> tuple[A, B]:
            future = worker.submit(contextvars.copy_context().run, second)
            return first(), future.result()

        yield run
