"""Aggregation-range sweep: attention cost per s.

Times the aggregated attention score computation for several aggregation
ranges on one coarse grid, and reports the score-matrix size each range
materializes. Mirrors the benchmark-table layout of the eval harness.

Usage: python3 scripts/bench_aggregation.py [--grid 40] [--dim 64] [--reps 7]
"""
import argparse
import time

import numpy as np

from semimatch import tensor as T
from semimatch.instrument import counters
from semimatch.transform import aggregate_tokens


def time_attention(f, s, reps):
    d = f.shape[0]
    kernel = T.tensor(np.full((d, s, s), 1.0 / (s * s), dtype=np.float32))

    def run():
        with T.no_grad():
            q_map, kv_map = aggregate_tokens(f, f, s, kernel)
            q = q_map.reshape((d, -1)).transpose((1, 0))
            kv = kv_map.reshape((d, -1)).transpose((1, 0))
            T.vanilla_attention(q, kv, kv, heads=1)

    run()
    counters.reset("attn_score_entries")
    run()
    entries = counters["attn_score_entries"]
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best, entries


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=40)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    f = T.tensor(rng.standard_normal((args.dim, args.grid, args.grid)).astype(np.float32))
    print(f"aggregated attention on a {args.grid}x{args.grid} grid, d={args.dim}")
    print(f"{'s':>3} {'tokens':>8} {'score entries':>14} {'time (ms)':>10} {'speedup':>8}")
    base = None
    for s in (1, 2, 4, 8):
        if args.grid % s:
            continue
        best, entries = time_attention(f, s, args.reps)
        base = base or best
        tokens = (args.grid // s) ** 2
        print(f"{s:>3} {tokens:>8} {entries:>14} {1e3 * best:>10.2f} {base / best:>7.1f}x")


if __name__ == "__main__":
    main()
