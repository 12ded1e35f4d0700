"""Print sha256 digests of fixed matcher and training outputs as one JSON object.

Run it on two trees and compare the objects to check that a change leaves
outputs bitwise unchanged:
- the committed toy weights (benchmark/toy_weights.smw) on render_pair(1, 0..3),
  optimized and full mode with tau=0: coarse and fine match lists;
- the seed-0 paper config, full mode with tau=0, on render_pair(1, 0);
- the toy config trained from its seed-0 init: the loss rows (without step
  time) and the weight container after the given number of steps.

Usage: python3 scripts/output_hashes.py [--size 256] [--steps 4]
"""
import argparse
import hashlib
import json
import os

import numpy as np

from semimatch.pipeline import Matcher, MatcherConfig
from semimatch.synth import SynthConfig, SyntheticPairs, render_pair
from semimatch.train import TrainConfig, train_toy
from semimatch.weights import load_matcher, serialize_weights

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY_WEIGHTS = os.path.join(REPO, "benchmark", "toy_weights.smw")


def digest(rows) -> str:
    return hashlib.sha256(np.asarray(rows, dtype=np.float64).tobytes()).hexdigest()


def match_digests(matcher, image_a, image_b, mode: str) -> dict[str, str]:
    tau = 0.0 if mode == "full" else None
    result = matcher.match_pair(image_a, image_b, mode=mode, tau=tau)
    return {
        "coarse": digest([(m.i, m.j, m.confidence) for m in result.coarse]),
        "fine": digest([(*m.pt_a, *m.pt_b, m.confidence) for m in result.fine]),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=256, help="side of the matched pairs")
    parser.add_argument("--steps", type=int, default=4, help="training steps")
    args = parser.parse_args()

    synth = SynthConfig(size=args.size)
    toy, _ = load_matcher(TOY_WEIGHTS)
    out = {}
    for index in range(4):
        image_a, image_b, _ = render_pair(1, index, synth)
        for mode in ("optimized", "full"):
            for kind, value in match_digests(toy, image_a, image_b, mode).items():
                out[f"toy/{mode}/pair{index}/{kind}"] = value
    image_a, image_b, _ = render_pair(1, 0, synth)
    for kind, value in match_digests(Matcher(MatcherConfig(), seed=0), image_a, image_b, "full").items():
        out[f"paper/full/pair0/{kind}"] = value

    matcher = Matcher(MatcherConfig.toy(), seed=0)
    curve = train_toy(matcher, SyntheticPairs(16, seed=42), TrainConfig(steps=args.steps, batch_size=2, seed=0))
    out["train/losses"] = digest([(r.step, r.l_c, r.l_f1, r.l_f2, r.total, r.grad_norm) for r in curve])
    out["train/weights"] = hashlib.sha256(serialize_weights(matcher.named_tensors(), {})).hexdigest()
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
