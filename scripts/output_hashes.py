"""Print sha256 digests of fixed matcher and training outputs as one JSON object:
- the committed toy weights (benchmark/toy_weights.smw) on render_pair(1, 0..3),
  optimized and full mode with tau=0: coarse and fine match lists;
- the seed-0 paper config, full mode with tau=0, on render_pair(1, 0);
- the toy config trained from its seed-0 init: the loss rows (without step
  time) and the weight container after the given number of steps.

With ``--against DIR`` it checks that a change leaves these outputs bitwise
unchanged: it reruns itself in a child process with ``PYTHONPATH=DIR/src``,
so both trees compute the same keys on the same committed toy weights, prints
the keys whose digests differ and exits 1 if any do.

Usage: python3 scripts/output_hashes.py [--size 256] [--steps 4] [--against DIR]
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

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


def digests(size: int, steps: int) -> dict[str, str]:
    synth = SynthConfig(size=size)
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
    curve = train_toy(matcher, SyntheticPairs(16, seed=42), TrainConfig(steps=steps, batch_size=2, seed=0))
    out["train/losses"] = digest([(r.step, r.l_c, r.l_f1, r.l_f2, r.total, r.grad_norm) for r in curve])
    out["train/weights"] = hashlib.sha256(serialize_weights(matcher.named_tensors(), {})).hexdigest()
    return out


def digests_of_tree(tree: str, size: int, steps: int) -> dict[str, str]:
    """The digests that this script computes with ``tree/src`` on the import path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    argv = [sys.executable, os.path.abspath(__file__), "--size", str(size), "--steps", str(steps)]
    return json.loads(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=256, help="side of the matched pairs")
    parser.add_argument("--steps", type=int, default=4, help="training steps")
    parser.add_argument("--against", metavar="DIR", help="a checkout to compare with, digest by digest")
    args = parser.parse_args()
    if args.against is not None and not os.path.isdir(os.path.join(args.against, "src", "semimatch")):
        parser.error(f"--against {args.against}: no src/semimatch there")

    out = digests(args.size, args.steps)
    if args.against is None:
        print(json.dumps(out, indent=1, sort_keys=True))
        return 0
    other = digests_of_tree(args.against, args.size, args.steps)
    differ = sorted(key for key in out.keys() | other.keys() if out.get(key) != other.get(key))
    for key in differ:
        print(f"differs {key}")
    print(f"{len(differ)} of {len(out.keys() | other.keys())} keys differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
