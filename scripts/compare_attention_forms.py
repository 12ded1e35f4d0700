"""A/B comparison of attention variants on matched token sets.

Contrasts vanilla attention with the normalized linear-attention kernel and
its unnormalized variant: output drift versus vanilla, plus scale
sensitivity (the unnormalized form is not scale-invariant, which is why it
stays behind a flag).

Usage: python3 scripts/compare_attention_forms.py [--tokens 256] [--dim 64]
"""
import argparse

import numpy as np

from semimatch import tensor as T


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tokens", type=int, default=256)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    q = T.tensor(rng.standard_normal((args.tokens, args.dim)).astype(np.float32))
    k = T.tensor(rng.standard_normal((args.tokens, args.dim)).astype(np.float32))
    v = T.tensor(rng.standard_normal((args.tokens, args.dim)).astype(np.float32))

    with T.no_grad():
        vanilla = T.vanilla_attention(q, k, v, heads=1).data
        linear = T.linear_attention(q, k, v).data
        literal = T.linear_attention(q, k, v, normalized=False).data
        linear_scaled = T.linear_attention(q, k, v * 10.0).data
        literal_scaled = T.linear_attention(q, k, v * 10.0, normalized=False).data

    def rms(x):
        return float(np.sqrt((x**2).mean()))

    print(f"{args.tokens} tokens, d={args.dim}")
    print(f"rms(vanilla)                     = {rms(vanilla):9.3f}")
    print(f"rms(linear - vanilla)            = {rms(linear - vanilla):9.3f}")
    print(f"rms(literal - vanilla)           = {rms(literal - vanilla):9.3f}")
    print("scaling V by 10 (outputs should scale by exactly 10):")
    print(f"  normalized linear scale factor = {rms(linear_scaled) / rms(linear):9.3f}")
    print(f"  unnormalized literal factor    = {rms(literal_scaled) / rms(literal):9.3f}")


if __name__ == "__main__":
    main()
