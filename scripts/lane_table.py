"""Crossover table of the two-lane pair rule, one row per stage, config and size.

Each stage that runs an image pair through ``lanes.pairs`` is timed two
ways: on two lanes, and the way it runs below its threshold. Below it the
backbone pair (``FusedBackbone.forward_pair``) and the fine fusion pair
(``Matcher.fine_maps``) run in order, and the transform pass
(``FeatureTransform.forward``) runs as one stacked batch. The script picks
the side by setting ``lanes.IN_ORDER_MACS`` and ``lanes.STACKED_MACS`` to 0
(lanes) or beyond any work (the other side) in a child process.

Configs are the toy and the paper config with seed-0 weights; inputs are
seeded random maps of each stage's input shapes for two images of one size.
Each pair is one fresh process with BLAS on one thread: it warms both sides
once, then times each side ``--reps`` times, alternating, and the side that
goes first switches from pair to pair. A pair's two times are its per-side
medians; lanes win a pair when their median is lower. Per row the output
holds the stage's work (``FusedBackbone.macs``, ``transform_macs`` or
``FineFusion.macs`` of one image), each side's median over the pairs, the
lanes' wins, whether both sides' outputs were bitwise equal in every pair,
and the most threads alive in a child once its last block had ended (1: the
lane's worker was joined). Per stage it writes the crossover: the largest
work where the lanes won fewer than half the pairs, the smallest where they
won at least 9 in 10, and whether the stage's threshold lies between them.

Usage: python3 scripts/lane_table.py [--sizes 64 128 256 480x640] [--pairs 10] [--reps 3]
                                     [--out BENCH_lanes.json]
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from semimatch import lanes
from semimatch import tensor as T
from semimatch.backbone import COARSE_STRIDE, FeaturePyramid
from semimatch.pipeline import Matcher, MatcherConfig
from semimatch.transform import transform_macs

STAGES = ("backbone", "transform", "fusion")
CONFIGS = ("toy", "paper")
THRESHOLD = {"backbone": "IN_ORDER_MACS", "transform": "STACKED_MACS", "fusion": "IN_ORDER_MACS"}
OTHER_SIDE = {"backbone": "in_order", "transform": "stacked", "fusion": "in_order"}
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WON_SHARE = 0.9


def parse_size(text: str) -> tuple[int, int]:
    height, _, width = text.partition("x")
    return int(height), int(width or height)


def stage_call(stage: str, config_name: str, height: int, width: int):
    """(work, call) for one stage on two seeded random images' inputs; ``call``
    returns the stage's output maps as arrays."""
    config = MatcherConfig.toy() if config_name == "toy" else MatcherConfig()
    matcher = Matcher(config, seed=0)
    rng = np.random.default_rng(0)
    grid = (height // COARSE_STRIDE, width // COARSE_STRIDE)

    def maps(channels: int, scale: int):
        return T.tensor(rng.random((channels, grid[0] * scale, grid[1] * scale), dtype=np.float32))

    if stage == "backbone":
        fused = matcher.fuse()
        images = [T.tensor(rng.random((1, height, width), dtype=np.float32)) for _ in range(2)]
        return fused.macs(height, width), lambda: [level.data for pyramid in fused.forward_pair(*images)
                                                   for level in vars(pyramid).values()]
    if stage == "transform":
        coarse = [maps(config.d_model, 1) for _ in range(2)]
        return transform_macs(config, *grid), lambda: [f.data for f in matcher.transform.forward(*coarse)]
    inputs = [(maps(config.d_model, 1), FeaturePyramid(maps(config.widths[1], 4), maps(config.widths[2], 2), None))
              for _ in range(2)]
    return matcher.fusion.macs(*grid), lambda: [f.data for f in matcher.fine_maps(*inputs[0], *inputs[1])]


def measure(stage: str, config_name: str, height: int, width: int, lanes_first: bool, reps: int) -> dict:
    """One pair, in this process: each side's median time (ms) over ``reps``."""
    work, call = stage_call(stage, config_name, height, width)
    sides = ("lanes", "other") if lanes_first else ("other", "lanes")
    times, outputs = {side: [] for side in sides}, {}
    with T.no_grad():
        for rep in range(reps + 1):  # the first round warms both sides
            for side in sides:
                lanes.IN_ORDER_MACS = lanes.STACKED_MACS = 0 if side == "lanes" else sys.maxsize
                start = time.perf_counter()
                outputs[side] = call()
                if rep:
                    times[side].append(1e3 * (time.perf_counter() - start))
    equal = all(a.tobytes() == b.tobytes() for a, b in zip(outputs["lanes"], outputs["other"]))
    return dict(work=work, lanes_ms=statistics.median(times["lanes"]), other_ms=statistics.median(times["other"]),
                equal=equal, threads=threading.active_count())


def row(stage: str, config_name: str, size: tuple[int, int], pairs: int, reps: int) -> dict:
    env = dict(os.environ, **BLAS_ONE_THREAD)
    runs = []
    for i in range(pairs):
        cell = [stage, config_name, *size, i % 2 == 0, reps]
        proc = subprocess.run([sys.executable, __file__, "--cell", json.dumps(cell)], env=env,
                              capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))
    other = OTHER_SIDE[stage]
    return {
        "stage": stage, "config": config_name, "size": list(size), "work": runs[0]["work"],
        "other_side": other, f"{other}_ms": statistics.median(r["other_ms"] for r in runs),
        "lanes_ms": statistics.median(r["lanes_ms"] for r in runs),
        "lanes_wins": sum(r["lanes_ms"] < r["other_ms"] for r in runs), "pairs": pairs,
        "equal": all(r["equal"] for r in runs), "threads_after": max(r["threads"] for r in runs),
    }


def crossover(rows: list[dict], threshold: int) -> dict:
    lost = [r["work"] for r in rows if 2 * r["lanes_wins"] < r["pairs"]]
    won = [r["work"] for r in rows if r["lanes_wins"] >= WON_SHARE * r["pairs"]]
    largest_lost, smallest_won = max(lost, default=None), min(won, default=None)
    return {"largest_lost_work": largest_lost, "smallest_won_work": smallest_won, "threshold": threshold,
            "inside": (largest_lost is None or largest_lost < threshold)
            and (smallest_won is None or threshold <= smallest_won)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", nargs="+", default=["64", "128", "256", "480x640"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--out", default="BENCH_lanes.json")
    parser.add_argument("--cell", help=argparse.SUPPRESS)  # one pair, run in a fresh child process
    args = parser.parse_args()
    if args.cell:
        stage, config_name, height, width, lanes_first, reps = json.loads(args.cell)
        print(json.dumps(measure(stage, config_name, height, width, lanes_first, reps)))
        return 0

    rows = []
    for stage in STAGES:
        for config_name in CONFIGS:
            for size in map(parse_size, args.sizes):
                rows.append(row(stage, config_name, size, args.pairs, args.reps))
                r = rows[-1]
                print(f"{stage:9s} {config_name:5s} {size[0]:4d}x{size[1]:<4d} work {r['work']:>14,d}  "
                      f"{r['other_side']} {r[r['other_side'] + '_ms']:9.2f} ms  lanes {r['lanes_ms']:9.2f} ms  "
                      f"wins {r['lanes_wins']}/{r['pairs']}", flush=True)
    record = {
        "machine": {"cpus": lanes.free_cpus(), "python": platform.python_version(), "numpy": np.__version__,
                    "blas_env": BLAS_ONE_THREAD, "platform": platform.platform()},
        "pairs": args.pairs, "reps": args.reps, "rows": rows,
        "crossover": {stage: crossover([r for r in rows if r["stage"] == stage], getattr(lanes, THRESHOLD[stage]))
                      for stage in STAGES},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    bad = [(r["stage"], r["config"], r["size"]) for r in rows if not r["equal"] or r["threads_after"] != 1]
    if bad:
        print(f"FAIL unequal outputs or a worker left running: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
