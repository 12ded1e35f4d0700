"""semimatch benchmark: one workload, one closed loop, one JSON result line.

    python3 benchmark/run.py --workload toy-opt-256 --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced items and prints the end-to-end metrics
(throughput, median and tail item time, peak RSS, set-up time, error rate
and, on the toy-weight match workloads, match quality). ``--trace 1``
alternates untraced items with a traced re-composition of the same item and
prints the per-layer metrics. Both check the program's outputs. The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the full
record (machine, samples, spans) goes to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import env  # noqa: E402  (pins BLAS threads and puts src/ on sys.path before numpy)

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from semimatch.instrument import counters  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 15
TAIL_BEYOND = 10
# Largest share of the traced item time that layer spans plus uncovered time
# may miss; the tracer's own counter snapshots around the item span fall
# in that share.
CLOSURE_TOLERANCE = 0.01

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed with every --trace 0 run but kept out of the bounded JSON metrics:
# error_rate is 0 on a healthy run and the quality figures are 0 or
# undefined on workloads without matches (see benchmark/README.md).
REPORTED_UNITS = {
    "error_rate": "ratio",
    "coarse_precision": "ratio",
    "fine_err_px_p50": "px",
    "auc_3px": "ratio",
    "auc_5px": "ratio",
    "auc_10px": "ratio",
}
PER_LAYER_UNITS = {
    "backbone.forward_ms": "ms",
    "backbone.conv2d_calls": "count",
    "backbone.fuse_ms": "ms",
    "transform.forward_ms": "ms",
    "transform.attn_score_entries": "count",
    "transform.attn_score_mb": "MB",
    "matching.match_coarse_ms": "ms",
    "matching.score_entries": "count",
    "matching.score_mb": "MB",
    "matching.softmax_calls": "count",
    "matching.coarse_matches": "count",
    "refine.fusion_ms": "ms",
    "refine.conv2d_calls": "count",
    "refine.refine_ms": "ms",
    "refine.fine_matches": "count",
    "refine.kept_ratio": "ratio",
    "train.pair_losses_ms": "ms",
    "train.backward_ms": "ms",
    "train.optimizer_ms": "ms",
    "geometry.ransac_ms": "ms",
    "geometry.inlier_ratio": "ratio",
    "pipeline.item_ms": "ms",
    "pipeline.uncovered_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
COMPUTED = {"transform.attn_score_mb", "matching.score_mb"}  # shapes x itemsize, not measured


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest nearest-rank
    percentile with at least TAIL_BEYOND samples above it.

    With 2 * TAIL_BEYOND samples or fewer that rank would not lie above the
    median, so the median is reported and its percentile reads 50.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = n - TAIL_BEYOND
    if 2 * rank <= n:
        return statistics.median(xs), 50.0, n // 2
    return xs[rank - 1], 100.0 * rank / n, n - rank


def probe_setup(name: str) -> float:
    """Set-up seconds of one fresh process (import, weights, fuse)."""
    probe = os.path.join(env.BENCH_DIR, "setup_probe.py")
    done = subprocess.run([sys.executable, probe, name], cwd=env.ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Loop:
    """Clock of one untraced closed loop, which also takes the set-up samples.

    The SETUP_REPEATS set-up probes are spread evenly over the loop rather
    than run back to back before it: the speed of a shared machine can shift
    within seconds, and spread out they sample the same stretch of time as
    the items. A probe runs between two items; its time is kept off the
    loop's clock and out of every item's time.
    """

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.setup_samples: list[float] = []
        self.paused = 0.0
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def running(self) -> bool:
        """Called between items: runs a probe if one is due, then tells
        whether the loop goes on."""
        due = len(self.setup_samples) * self.seconds / SETUP_REPEATS
        if len(self.setup_samples) < SETUP_REPEATS and self.elapsed() >= due:
            t0 = time.perf_counter()
            self.setup_samples.append(probe_setup(self.name))
            self.paused += time.perf_counter() - t0
        return self.elapsed() < self.seconds

    def finish(self) -> float:
        """The loop's seconds; then runs the probes the loop did not reach."""
        elapsed = self.elapsed()
        while len(self.setup_samples) < SETUP_REPEATS:
            self.setup_samples.append(probe_setup(self.name))
        return elapsed


def machine_record(seed: int, weights_sha: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {var: os.environ.get(var) for var in env.THREAD_VARS},
        "seed": seed,
        "weights_sha256": weights_sha,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _first_error(errors: list[str], exc: BaseException) -> None:
    if not errors:
        errors.append("".join(traceback.format_exception(exc)))


# --------------------------------------------------------------------------
# untraced runs: end-to-end metrics


def measure_match(workload, matcher, fused, pairs, seconds: float) -> dict:
    W.run_match_item(matcher, fused, workload, pairs[0])  # warm-up, not counted
    times, errors, first = [], [], {}
    attempted = failed = 0
    loop = Loop(workload.name, seconds)
    while loop.running():
        index = attempted % len(pairs)
        a, b, _ = pairs[index]
        dt, result, exc = W.run_match_item(matcher, fused, workload, pairs[index])
        attempted += 1
        if exc is not None:
            _first_error(errors, exc)
        if result is None or not W.match_output_ok(result, a.shape, b.shape):
            failed += 1
            continue
        times.append(dt)
        first.setdefault(index, result)
    elapsed = loop.finish()
    rss = peak_rss_mb()
    report = {"times": times, "elapsed": elapsed, "attempted": attempted, "failed": failed,
              "peak_rss_mb": rss, "errors": errors, "correct": True, "setup_samples": loop.setup_samples}
    if workload.quality:
        results = []
        for index, (a, b, h) in enumerate(pairs[:workload.quality]):
            result = first.get(index)
            if result is None:  # not reached inside the timed loop
                _, result, exc = W.run_match_item(matcher, fused, workload, pairs[index])
                if result is None or not W.match_output_ok(result, a.shape, b.shape):
                    report["correct"] = False
                    break
            results.append(result)
        else:
            report["quality"] = W.quality(results, pairs[:workload.quality])
    return report


def measure_train(workload, pairs, seed: int, seconds: float) -> dict:
    W.run_train_steps(workload, pairs, seed, lambda: False)  # warm-up: one step
    loop = Loop(workload.name, seconds)
    times, _, failed = W.run_train_steps(workload, pairs, seed, loop.running)
    elapsed = loop.finish()
    return {"times": times, "elapsed": elapsed, "attempted": len(times) + failed, "failed": failed,
            "peak_rss_mb": peak_rss_mb(), "errors": [], "correct": True, "setup_samples": loop.setup_samples}


def end_to_end(report: dict) -> tuple[dict, dict]:
    """(bounded metrics, reported-only metrics) from an untraced report."""
    setup_samples = report["setup_samples"]
    times_ms = [1e3 * t for t in report["times"]]
    if not times_ms:
        times_ms = [math.nan]
    value, pct, beyond = tail(times_ms)
    metrics = {
        "items_per_s": len(report["times"]) / report["elapsed"],
        "item_ms_p50": statistics.median(times_ms),
        "item_ms_tail": value,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(setup_samples),
    }
    extra = {"error_rate": report["failed"] / max(report["attempted"], 1),
             "item_ms_tail.percentile": pct, "item_ms_tail.beyond": beyond,
             "item_ms_tail.samples": len(report["times"]), "setup_s.samples": setup_samples}
    quality = report.get("quality")
    if quality is not None:
        extra.update(quality)
    return metrics, extra


# --------------------------------------------------------------------------
# traced runs: per-layer metrics


def trace_match(workload, matcher, fused, pairs, seconds: float, tracer: Tracer) -> dict:
    """Alternate an untraced item with the traced re-composition of the same
    pair; check outputs, the mutual-argmax oracle and exact equality."""
    for _ in range(SETUP_REPEATS):
        with tracer.span("backbone.fuse"):
            matcher.fuse()
    W.run_match_item(matcher, fused, workload, pairs[0])  # warm-up, not counted
    untraced, traced_times, errors = [], [], []
    attempted = failed = 0
    computed = {"attn_bytes": 0, "score_entries": 0, "score_bytes": 0}
    inliers = used = coarse_total = fine_total = 0
    checks = {"oracle": True, "equal_to_match_pair": True}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        index = attempted % len(pairs)
        pair = pairs[index]
        a, b, _ = pair
        attempted += 1
        dt, result, exc = W.run_match_item(matcher, fused, workload, pair)
        tracer.item = attempted - 1
        try:
            traced = W.traced_match(tracer, matcher, fused, workload, pair)
        except Exception as err:  # a failed item is counted, the loop goes on
            _first_error(errors, err)
            failed += 1
            continue
        if exc is not None:
            _first_error(errors, exc)
        if result is None or not W.match_output_ok(result, a.shape, b.shape) or not traced["finite"]:
            failed += 1
            continue
        untraced.append(dt)
        traced_times.append(traced["wall_s"])
        if (traced["coarse"], traced["fine"]) != (result.coarse, result.fine):
            checks["equal_to_match_pair"] = False
        if not W.oracle_ok(traced, workload.mode, matcher.config.tau):
            checks["oracle"] = False
        score = traced["score"]
        computed["attn_bytes"] += W.attention_score_bytes(matcher, traced["coarse_shapes"])
        computed["score_entries"] += score.s.data.size
        computed["score_bytes"] += score.s.data.nbytes + (score.p.data.nbytes if score.p is not None else 0)
        coarse_total += len(traced["coarse"])
        fine_total += len(traced["fine"])
        got, n = W.traced_ransac(tracer, traced["fine"])
        inliers += got
        used += n
    n_items = max(len(traced_times), 1)
    totals = tracer.totals("pipeline.item")
    metrics = _layer_metrics(totals, "pipeline.item", n_items)
    metrics.update({
        "backbone.fuse_ms": 1e3 * statistics.median(
            s["end"] - s["start"] for s in tracer.roots("backbone.fuse")),
        "transform.attn_score_mb": computed["attn_bytes"] / n_items / 1e6,
        "matching.score_entries": computed["score_entries"] / n_items,
        "matching.score_mb": computed["score_bytes"] / n_items / 1e6,
        "matching.coarse_matches": coarse_total / n_items,
        "refine.fine_matches": fine_total / n_items,
        "refine.kept_ratio": fine_total / coarse_total if coarse_total else 0.0,
        "geometry.ransac_ms": 1e3 * sum(s["end"] - s["start"] for s in tracer.roots("geometry.ransac")) / n_items,
        "geometry.inlier_ratio": inliers / used if used else 0.0,
        "trace.overhead_ratio": _ratio(traced_times, untraced),
    })
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors,
            "checks": checks, "closure": _closure(totals, "pipeline.item", traced_times)}


def trace_train(workload, pairs, seed: int, seconds: float, tracer: Tracer) -> dict:
    """First half: untraced train_toy steps; second half: the traced
    re-composition from the same init. Their loss rows must be equal."""
    W.run_train_steps(workload, pairs, seed, lambda: False)  # warm-up: one step
    half = time.perf_counter() + seconds / 2
    untraced, rows, failed_u = W.run_train_steps(workload, pairs, seed, lambda: time.perf_counter() < half)
    traced_times, traced_rows, failed_t = W.traced_train(tracer, workload, pairs, seed,
                                                         half + seconds / 2)
    n = min(len(rows), len(traced_rows))
    same = n > 0 and all((r.l_c, r.l_f1, r.l_f2, r.total) == t for r, t in zip(rows[:n], traced_rows[:n]))
    n_items = max(len(traced_times), 1)
    totals = tracer.totals("train.step")
    metrics = _layer_metrics(totals, "train.step", n_items)
    metrics["trace.overhead_ratio"] = _ratio(traced_times, untraced)
    return {"metrics": metrics, "attempted": len(traced_times) + failed_t + len(untraced) + failed_u,
            "failed": failed_t + failed_u, "errors": [],
            "checks": {"losses_equal_to_train_toy": same}, "compared_steps": n,
            "closure": _closure(totals, "train.step", traced_times)}


def _layer_metrics(totals: dict, item_name: str, n_items: int) -> dict:
    def ms(name):
        return 1e3 * totals.get(name, {}).get("total_s", 0.0) / n_items

    def count(name, key):
        return totals.get(name, {}).get("counts", {}).get(key, 0) / n_items

    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics.update({
        "backbone.forward_ms": ms("backbone.forward"),
        "backbone.conv2d_calls": count("backbone.forward", "conv2d"),
        "transform.forward_ms": ms("transform.forward"),
        "transform.attn_score_entries": count("transform.forward", "attn_score_entries"),
        "matching.match_coarse_ms": ms("matching.match_coarse"),
        "matching.softmax_calls": count("matching.match_coarse", "softmax"),
        "refine.fusion_ms": ms("refine.fusion"),
        "refine.conv2d_calls": count("refine.fusion", "conv2d"),
        "refine.refine_ms": ms("refine.refine"),
        "train.pair_losses_ms": ms("train.pair_losses"),
        "train.backward_ms": ms("train.backward"),
        "train.optimizer_ms": ms("train.optimizer"),
        "pipeline.item_ms": ms(item_name),
        "pipeline.uncovered_ms": 1e3 * totals.get(item_name, {}).get("self_s", 0.0) / n_items,
    })
    return metrics


def _closure(totals: dict, item_name: str, item_times: list[float]) -> dict:
    """Traced item time, read around each item outside the tracer, against
    the sum of its layer spans plus uncovered time (gaps between spans)."""
    item = totals.get(item_name, {"self_s": 0.0})
    layers = sum(v["total_s"] for k, v in totals.items() if k != item_name)
    item_s = sum(item_times)
    residual = item_s - layers - item["self_s"]
    return {"items": len(item_times), "item_s": item_s, "layers_s": layers, "uncovered_s": item["self_s"],
            "residual_s": residual, "ok": abs(residual) <= CLOSURE_TOLERANCE * item_s}


def _ratio(traced: list[float], untraced: list[float]) -> float:
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced)


# --------------------------------------------------------------------------


def measure(workload, seed: int, seconds: float, trace: bool, pairs=None) -> dict:
    """Run one workload and return the full record.

    ``pairs`` overrides the rendered inputs (the self-check injects faults
    this way); the default renders them from ``seed``.
    """
    if pairs is None:
        pairs = W.render_inputs(workload, seed)
    matcher, fused, digest = W.setup(workload)
    record = {"workload": workload.name, "seconds": seconds, "trace": int(trace),
              "machine": machine_record(seed, W.weights_sha256(matcher, digest))}
    if trace:
        tracer = Tracer(counters)
        if workload.kind == "train":
            report = trace_train(workload, pairs, seed, seconds, tracer)
        else:
            report = trace_match(workload, matcher, fused, pairs, seconds, tracer)
        checks_ok = all(report["checks"].values()) and report["closure"]["ok"]
        record.update(report, correct=checks_ok and report["failed"] == 0,
                      units=PER_LAYER_UNITS, computed=sorted(COMPUTED))
        record["tracer"] = tracer
    else:
        if workload.kind == "train":
            report = measure_train(workload, pairs, seed, seconds)
        else:
            report = measure_match(workload, matcher, fused, pairs, seconds)
        metrics, extra = end_to_end(report)
        record.update(metrics=metrics, reported=extra, attempted=report["attempted"],
                      failed=report["failed"], errors=report["errors"],
                      correct=report["correct"] and report["failed"] == 0,
                      units={**END_TO_END_UNITS, **REPORTED_UNITS}, samples_s=report["times"])
    return record


def print_human(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['machine']['seed']}  "
          f"trace {record['trace']}  seconds {record['seconds']}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    units = record["units"]
    for name, value in record["metrics"].items():
        note = "  (computed: array shapes x itemsize)" if name in COMPUTED else ""
        if name == "item_ms_tail":
            rep = record["reported"]
            note = (f"  (p{rep['item_ms_tail.percentile']:.1f} of {rep['item_ms_tail.samples']} items, "
                    f"{rep['item_ms_tail.beyond']} beyond)")
        if name == "setup_s":
            note = (f"  (median of {len(record['reported']['setup_s.samples'])} fresh-process set-ups"
                    " spread over the loop)")
        print(f"  {name:<30} {value:14.6f} {units[name]}{note}")
    for name in REPORTED_UNITS if not record["trace"] else ():
        value = record["reported"].get(name)
        shown = "n/a" if value is None else f"{value:14.6f}"
        print(f"  {name:<30} {shown:>14} {units[name]}  (reported, not bounded)")
    if record["trace"]:
        c = record["closure"]
        n = max(c["items"], 1)
        print(f"  closure per traced item ({c['items']} items): item {1e3 * c['item_s'] / n:.3f} ms"
              f" = layer spans {1e3 * c['layers_s'] / n:.3f} ms + uncovered {1e3 * c['uncovered_s'] / n:.3f} ms"
              f" (residual {1e3 * c['residual_s'] / n:.4f} ms, ok {c['ok']})")
        print("  checks " + json.dumps(record["checks"], sort_keys=True)
              + (f" over {record['compared_steps']} steps" if "compared_steps" in record else ""))
    print(f"  attempted {record['attempted']}  failed {record['failed']}  correct {record['correct']}")
    for err in record["errors"][:1]:
        print("  first failure:\n" + err, file=sys.stderr)


def write_record(record: dict) -> str:
    os.makedirs(env.OUT_DIR, exist_ok=True)
    stem = f"{record['workload']}-seed{record['machine']['seed']}-trace{record['trace']}"
    path = os.path.join(env.OUT_DIR, stem + ".json")
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(path, record)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="semimatch benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        record = measure(W.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except W.WeightsMismatch as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print_human(record)
    print(f"  record written to {os.path.relpath(write_record(record), env.ROOT)}")
    units = record["units"]
    result = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
