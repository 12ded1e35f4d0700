"""Shared oracles: central finite differences and gradient comparison."""
from collections import Counter

import numpy as np

from semimatch import tensor as T


def numeric_gradient(build_loss, arrays, which, h=1e-4):
    """Central-difference gradient of a scalar-valued graph builder.

    ``build_loss(*arrays) -> float`` re-evaluates the computation from plain
    numpy inputs; the result stays independent of the backward pass it checks.
    """
    base = [np.array(a, dtype=np.float64) for a in arrays]
    grad = np.zeros_like(base[which])
    flat = grad.reshape(-1)
    target = base[which].reshape(-1)
    for k in range(target.size):
        orig = target[k]
        target[k] = orig + h
        up = build_loss(*base)
        target[k] = orig - h
        down = build_loss(*base)
        target[k] = orig
        flat[k] = (up - down) / (2.0 * h)
    return grad


def assert_gradients_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    assert analytic.shape == numeric.shape
    bad = np.abs(analytic - numeric) > (atol + rtol * np.abs(numeric))
    if bad.any():
        worst = np.abs(analytic - numeric)[bad].max()
        raise AssertionError(
            f"{bad.sum()} of {bad.size} gradient entries differ (worst abs diff {worst:.3e})"
        )


def weighted_sum(out: T.Tensor, seed: int = 0) -> T.Tensor:
    """Scalar loss with non-uniform output weighting for gradient checks."""
    w = np.random.default_rng(seed).standard_normal(out.shape)
    return (out * T.tensor(w, dtype=out.dtype)).sum()


def op_census(out: T.Tensor) -> Counter:
    """Recorded ops reachable from ``out``, counted by op class name."""
    ops: dict[int, str] = {}
    stack = [out]
    while stack:
        node = stack.pop()
        if node._ctx is None or id(node) in ops:
            continue
        ops[id(node)] = type(node._ctx).__name__
        stack.extend(node._ctx.parents)
    return Counter(ops.values())


def tape_size(out: T.Tensor) -> int:
    """Number of recorded ops reachable from ``out``."""
    return sum(op_census(out).values())
