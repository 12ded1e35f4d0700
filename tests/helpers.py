"""Shared oracles: central finite differences, gradient comparison and the
plain weight serializer; switches for the lanes' pair rule."""
import ctypes
import json
import struct
from collections import Counter

import numpy as np

from semimatch import lanes
from semimatch import tensor as T
from semimatch.params import Params
from semimatch.weights import _DTYPES, FORMAT_VERSION, MAGIC


def parameter(data, dtype=None) -> T.Tensor:
    """A leaf tensor that records gradients."""
    return T.Tensor(data, requires_grad=True, dtype=dtype)


def drawn(rng: np.random.Generator, dtype=np.float32) -> Params:
    """A registry drawing from ``rng``, for building one module on its own."""
    return Params(dtype, rng, None)


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


def assert_batch_axis_exact(op, x, *shared, seed=0):
    """Check ``op`` on a (B, C, H, W) stack against B calls on its maps.

    ``op(x, *shared)`` takes a map or a stack as ``x`` and tensors (kernels)
    shared by every map. In float32 each map of the stacked output must
    equal the unbatched call on that map bitwise. In float64 the gradient
    of a weighted sum must equal the per-map gradients, stacked for ``x``
    and summed over the batch for each shared tensor, to 1e-10.
    """
    x = np.asarray(x, dtype=np.float64)
    with T.no_grad():
        stacked = op(T.tensor(x, dtype=np.float32), *(T.tensor(s, dtype=np.float32) for s in shared)).data
        for i, sample in enumerate(x):
            single = op(T.tensor(sample, dtype=np.float32), *(T.tensor(s, dtype=np.float32) for s in shared))
            np.testing.assert_array_equal(stacked[i], single.data)
    weights = np.random.default_rng(seed).standard_normal(stacked.shape)

    def gradients(inputs, w):
        leaves = [parameter(inputs, dtype=np.float64)] + [parameter(s, dtype=np.float64) for s in shared]
        (op(*leaves) * T.tensor(w)).sum().backward()
        return [leaf.grad for leaf in leaves]

    batched = gradients(x, weights)
    per_map = [gradients(sample, w) for sample, w in zip(x, weights)]
    assert np.abs(batched[0] - np.stack([g[0] for g in per_map])).max() <= 1e-10
    for j in range(1, len(batched)):
        assert np.abs(batched[j] - sum(g[j] for g in per_map)).max() <= 1e-10


def serialize_weights_oracle(named_tensors, config: dict | None = None) -> bytes:
    """The weight container built the plain way, holding three copies of the
    payload at once: each tensor's ``tobytes()``, their join, and the join
    with the header. ``weights.serialize_weights`` must return these bytes."""
    entries = []
    chunks = []
    offset = 0
    for name, tensor in named_tensors:
        arr = np.ascontiguousarray(tensor.data)
        code = "f4" if arr.dtype == np.float32 else "f8"
        raw = arr.astype(_DTYPES[code]).tobytes()
        entries.append({"name": name, "dtype": code, "shape": list(arr.shape), "offset": offset, "length": len(raw)})
        chunks.append(raw)
        offset += len(raw)
    manifest = {"format_version": FORMAT_VERSION, "config": config or {}, "tensors": entries}
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<I", len(body)) + body + b"".join(chunks)


def lanes_at_any_work(monkeypatch) -> None:
    """Every stage's pair rule holds at any work; recording, BLAS and free
    CPUs still count."""
    monkeypatch.setattr(lanes, "IN_ORDER_MACS", 0)
    monkeypatch.setattr(lanes, "STACKED_MACS", 0)


def lanes_never(monkeypatch) -> None:
    """No stage's pair rule holds: pairs run in order (the transform stacked)."""
    monkeypatch.setattr(lanes, "IN_ORDER_MACS", 2**62)
    monkeypatch.setattr(lanes, "STACKED_MACS", 2**62)


def set_openblas_threads(count: int) -> int | None:
    """Set the thread count of the OpenBLAS that numpy loaded (the library
    the pair rule asks) and return the count it had, or None (and set
    nothing) where the rule cannot ask it."""
    lib = lanes._openblas()
    if lib is None:
        return None
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    lib.scipy_openblas_set_num_threads64_(count)
    return previous
