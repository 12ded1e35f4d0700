"""Harness self-check on the tiny config; runs in well under a minute.

    python3 benchmark/selfcheck.py

Checks, on the ``tiny-*`` workloads (the TINY shape of tests/test_bench.py):
every metric BENCHMARK.json names is printed with its unit, in both trace
modes; another seed changes the inputs but not the metric set; injected
failures (a NaN pixel, a malformed image) are counted as failed items
instead of crashing the run; the tail percentile rule; the span closure
rule; and the refusals
(weights hash mismatch, a checkout without the program's sources).
Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import env  # noqa: E402  (pins BLAS threads and puts src/ on sys.path before numpy)

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from semimatch.instrument import counters  # noqa: E402
from spans import Tracer  # noqa: E402

SECONDS = "1"
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run_cli(workload: str, seed: int, trace: int, cwd: str = env.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmark", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metric_sets(spec: dict) -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in ("tiny-opt-64", "tiny-train-32"):
        seen = {}
        for seed, trace in ((0, 0), (1, 0), (0, 1)):
            done = run_cli(workload, seed, trace)
            label = f"{workload} seed {seed} trace {trace}"
            check(done.returncode == 0, f"{label}: exit 0")
            if done.returncode != 0:
                print(done.stderr[-2000:])
                continue
            result = result_line(done)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct, nothing failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == wanted[trace], f"{label}: every metric with its BENCHMARK.json unit")
            check(all(isinstance(m["value"], float) for m in result["metrics"].values()),
                  f"{label}: numeric values")
            seen[(seed, trace)] = set(units)
            if trace == 0:
                for name in run.REPORTED_UNITS:
                    check(name in done.stdout, f"{label}: prints {name}")
        check(seen.get((0, 0)) == seen.get((1, 0)), f"{workload}: another seed keeps the metric set")
        a = W.render_inputs(W.WORKLOADS[workload], 0)
        b = W.render_inputs(W.WORKLOADS[workload], 1)
        check(any(not np.array_equal(x[0], y[0]) for x, y in zip(a, b)),
              f"{workload}: another seed changes the inputs")


def check_injected_failures() -> None:
    match = W.WORKLOADS["tiny-opt-64"]
    pairs = W.render_inputs(match, 0)
    nan_pairs = [(a.copy(), b, h) for a, b, h in pairs]
    nan_pairs[0][0][5, 5] = np.nan
    record = run.measure(match, 0, 1.0, trace=True, pairs=nan_pairs)
    check(record["failed"] >= 1 and not record["correct"],
          "NaN pixel in a traced match item is counted as failed (non-finite scores)")
    bad_pairs = [(pairs[0][0][None], pairs[0][1], pairs[0][2])] + pairs[1:]
    record = run.measure(match, 0, 1.0, trace=False, pairs=bad_pairs)
    rate = record["reported"]["error_rate"]
    check(record["failed"] >= 1 and 0 < rate < 1 and record["errors"],
          f"malformed image raises, counted in error_rate ({rate:.3f}), run goes on")

    train = W.WORKLOADS["tiny-train-32"]
    nan_train = [(a.copy(), b, h) for a, b, h in W.render_inputs(train, 0)]
    for a, _, _ in nan_train:
        a[3, 3] = np.nan
    record = run.measure(train, 0, 1.0, trace=False, pairs=nan_train)
    check(record["failed"] >= 1 and record["reported"]["error_rate"] == 1.0,
          "NaN pixel in a training step is counted as failed")


def check_tail_rule() -> None:
    value, pct, beyond = run.tail([float(i) for i in range(1, 101)])
    check((value, pct, beyond) == (90.0, 90.0, 10), "tail of 100 samples is p90 with 10 beyond")
    value, pct, _ = run.tail([float(i) for i in range(1, 16)])
    check((value, pct) == (8.0, 50.0), "tail of 15 samples falls back to the median")


def check_closure_rule() -> None:
    def closure(children: list[tuple[float, float]]) -> dict:
        tracer = Tracer(counters)
        tracer.spans = [{"name": "item", "parent": None, "start": 0.0, "end": 10.0, "item": 0, "counts": {}}]
        tracer.spans += [{"name": f"layer{k}", "parent": 0, "start": a, "end": b, "item": 0, "counts": {}}
                         for k, (a, b) in enumerate(children)]
        return run._closure(tracer.totals("item"), "item", [10.0])

    check(closure([(1.0, 4.0), (5.0, 8.0)])["ok"], "closure holds for disjoint layer spans")
    check(not closure([(1.0, 5.0), (4.0, 8.0)])["ok"], "closure fails for overlapping layer spans")
    check(not closure([(1.0, 4.0), (9.0, 12.0)])["ok"], "closure fails for a layer span outside its item")


def check_refusals() -> None:
    saved = env.WEIGHTS_SHA256
    env.WEIGHTS_SHA256 = "0" * 64
    try:
        W.setup(W.WORKLOADS["toy-opt-256"])
        refused = False
    except W.WeightsMismatch:
        refused = True
    finally:
        env.WEIGHTS_SHA256 = saved
    check(refused, "weights with another sha256 are refused")

    bare = os.path.join(env.OUT_DIR, "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(env.BENCH_DIR, os.path.join(bare, "benchmark"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), bare)
    try:
        done = run_cli("toy-opt-256", 0, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    check(done.returncode != 0 and not last[0].startswith("{"),
          "a checkout without src/ exits non-zero without a result")


def main() -> int:
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_tail_rule()
    check_closure_rule()
    check_refusals()
    check_injected_failures()
    check_metric_sets(spec)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
