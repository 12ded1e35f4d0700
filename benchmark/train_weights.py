"""Regenerate the trained toy weights the benchmark's toy workloads load.

Recipe (the one acceptance criterion 08 trains with): ``MatcherConfig.toy()``
initialised from seed 0, 800 AdamW steps of batch 2 on
``SyntheticPairs(500, seed=42)``. About two minutes on two cores.

    python3 benchmark/train_weights.py [--out benchmark/toy_weights.smw]

Prints the sha256 of the written container. The benchmark refuses weights
whose hash differs from ``WEIGHTS_SHA256`` in ``benchmark/env.py``; after a
deliberate regeneration, update that constant.
"""
from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402  (pins BLAS threads and puts src/ on sys.path before numpy)

from semimatch.pipeline import Matcher, MatcherConfig  # noqa: E402
from semimatch.synth import SyntheticPairs  # noqa: E402
from semimatch.train import TrainConfig, train_toy  # noqa: E402
from semimatch.weights import model_hash, save_matcher  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=env.WEIGHTS_PATH)
    args = parser.parse_args()
    matcher = Matcher(MatcherConfig.toy(), seed=0)
    train_toy(matcher, SyntheticPairs(500, seed=42), TrainConfig(steps=800, batch_size=2, seed=0))
    save_matcher(args.out, matcher)
    with open(args.out, "rb") as fh:
        print(model_hash(fh.read()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
