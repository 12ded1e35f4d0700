"""Dense tensor kernels with reverse-mode differentiation on numpy storage.

Everything the matching pipeline computes is composed from the ops in this
module: convolutions, pooling, softmax, bilinear upsampling and the usual
elementwise/movement ops. The transformer and backbone op chains run as
single fused ops with hand-written backward passes: ``Linear``,
``LayerNorm``, ``Rotary``, ``Attention`` (softmax(q·kᵀ·scale)·v per head,
each head a contiguous slice of the feature axis, so callers never split
or merge heads), ``FoldKernels`` and ``FoldBiases`` (batch-normed conv
branches folded into one kernel and bias) and ``DualSoftmaxNLL`` (the
dual-softmax log-likelihood of picked score entries, from row and column
log-sum-exps). Values are float32 by default; build a graph from float64
leaves to run the same code in checking precision.

Spatial ops take (C, H, W) maps. Depthwise conv, max-pool and bilinear
upsampling also take a (B, C, H, W) stack in the same implementation:
channels sit at axis -3, and a kernel shared by the stack gets its gradient
summed over the batch. The fused transformer ops already run over any
leading axes, so a stack of maps passes through an attention block as one
batch.

``conv2d`` runs im2col and one GEMM, except for stride-1, pad-1 3x3
convolutions with at least ``WINOGRAD_MIN_CHANNELS`` input and output
channels: those run Winograd F(4x4, 3x3) (``WinogradConv2d``), which
multiplies a transformed 6x6 input tile by a transformed kernel in 36
products per 4x4 output tile instead of 144, one batched matmul over the
36 tile positions. Its backward is the adjoint of the same transforms, so
training and inference take the same path. The kernel is transformed once
per call; nothing is cached across calls. Both kernels build their scratch
(im2col columns, padded input rows, Winograd tiles) one band of output rows
at a time, each band within ``CONV_SCRATCH_BYTES``: a conv's transient
memory stays bounded at any map size. A recorded call keeps each band's
columns or transformed tiles for backward, which loops over the same bands;
an unrecorded call keeps nothing. Toy training maps fit in one band.

Gradients flow through an implicit tape: each op result keeps a context
pointing at its parents and a sequence number. An op is always recorded
after the ops that feed it, so ``Tensor.backward()`` visits the recorded
ops in descending sequence order, each once, with its gradient complete.
"""
from __future__ import annotations

import heapq
import itertools
import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .instrument import counters

DEFAULT_DTYPE = np.float32

_grad_enabled = True
_finite_checks = False
_op_sequence = itertools.count()


class NumericError(ArithmeticError):
    """An operation produced NaN or Inf while finite checks were enabled."""


def set_finite_checks(enabled: bool) -> bool:
    """Toggle NaN/Inf detection after every op. Returns the previous setting."""
    global _finite_checks
    previous = _finite_checks
    _finite_checks = enabled
    return previous


def grad_enabled() -> bool:
    """Whether ops record onto the tape (false inside ``no_grad``)."""
    return _grad_enabled


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference paths)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(DEFAULT_DTYPE)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_ctx")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._ctx: Function | None = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"

    # -- autodiff --------------------------------------------------------
    def backward(self) -> None:
        """Backpropagate from a scalar output to every reachable leaf."""
        if self._ctx is None:
            raise ValueError("backward() on a tensor that is not attached to a graph")
        if self.data.shape != ():
            raise ValueError(f"backward() requires a scalar output, got shape {self.shape}")
        pending: dict[int, np.ndarray] = {id(self): np.ones((), dtype=self.data.dtype)}
        # every consumer of a node has a larger sequence number, so a node's
        # gradient is complete when it leaves this max-heap
        ready = [(-self._ctx.seq, self)]
        leaves: list[Tensor] = []
        while ready:
            _, node = heapq.heappop(ready)
            ctx = node._ctx
            for parent, pgrad in zip(ctx.parents, ctx.backward(pending.pop(id(node)))):
                if pgrad is None or not (parent.requires_grad or parent._ctx is not None):
                    continue
                if pgrad.shape != parent.data.shape:
                    raise ValueError(
                        f"gradient shape {pgrad.shape} != value shape {parent.data.shape} "
                        f"in {type(ctx).__name__}"
                    )
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + pgrad
                    continue
                pending[key] = pgrad
                if parent._ctx is None:
                    leaves.append(parent)
                else:
                    heapq.heappush(ready, (-parent._ctx.seq, parent))
        for leaf in leaves:
            grad = pending[id(leaf)]
            leaf.grad = grad if leaf.grad is None else leaf.grad + grad

    # -- operators -------------------------------------------------------
    def __neg__(self):
        return Neg.apply(self)

    def __add__(self, other):
        return Add.apply(self, _wrap(other, self.dtype))

    __radd__ = __add__

    def __sub__(self, other):
        return Sub.apply(self, _wrap(other, self.dtype))

    def __rsub__(self, other):
        return Sub.apply(_wrap(other, self.dtype), self)

    def __mul__(self, other):
        return Mul.apply(self, _wrap(other, self.dtype))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Div.apply(self, _wrap(other, self.dtype))

    def __rtruediv__(self, other):
        return Div.apply(_wrap(other, self.dtype), self)

    def __pow__(self, exponent):
        return Pow.apply(self, exponent=float(exponent))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return Slice.apply(self, key=key)

    @property
    def T(self):
        if self.ndim != 2:
            raise ValueError("T is defined for 2-D tensors; use transpose(perm)")
        return Transpose.apply(self, perm=(1, 0))

    # -- method sugar ------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Reshape.apply(self, shape=shape)

    def transpose(self, *perm):
        if len(perm) == 1 and isinstance(perm[0], (tuple, list)):
            perm = tuple(perm[0])
        return Transpose.apply(self, perm=perm)

    def sum(self, axis=None, keepdims=False):
        return Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else _axis_size(self.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def exp(self):
        return Exp.apply(self)

    def log(self):
        return Log.apply(self)

    def sqrt(self):
        return Sqrt.apply(self)

    def relu(self):
        return ReLU.apply(self)

    def elu(self):
        return ELU.apply(self)

    def clamp_min(self, bound: float):
        return ClampMin.apply(self, bound=float(bound))


def _wrap(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _axis_size(shape, axis) -> int:
    if isinstance(axis, int):
        return shape[axis]
    n = 1
    for a in axis:
        n *= shape[a]
    return n


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Function:
    """One recorded op: forward computes, backward maps output grad to parents."""

    __slots__ = ("parents", "saved", "seq", "records")

    def __init__(self, *parents: Tensor):
        self.parents = parents
        self.saved: tuple = ()

    @classmethod
    def apply(cls, *args, **kwargs) -> Tensor:
        parents = []
        values = []
        record = False
        for a in args:
            if isinstance(a, Tensor):
                parents.append(a)
                values.append(a.data)
                record = record or a.requires_grad
            else:
                values.append(a)
        ctx = cls(*parents)
        # read by ops whose saved state is large: an unrecorded call keeps none
        ctx.records = _grad_enabled and record
        out_data = ctx.forward(*values, **kwargs)
        if _finite_checks and not np.all(np.isfinite(out_data)):
            raise NumericError(f"{cls.__name__} produced a non-finite value")
        out = Tensor.__new__(Tensor)
        out.data = out_data
        out.grad = None
        if ctx.records:
            ctx.seq = next(_op_sequence)
            out.requires_grad = True
            out._ctx = ctx
        else:
            out.requires_grad = False
            out._ctx = None
        return out

    def forward(self, *args, **kwargs) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray | None, ...]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


class Add(Function):
    def forward(self, a, b):
        self.saved = (a.shape, b.shape)
        return a + b

    def backward(self, grad):
        sa, sb = self.saved
        return _unbroadcast(grad, sa), _unbroadcast(grad, sb)


class Sub(Function):
    def forward(self, a, b):
        self.saved = (a.shape, b.shape)
        return a - b

    def backward(self, grad):
        sa, sb = self.saved
        return _unbroadcast(grad, sa), _unbroadcast(-grad, sb)


class Mul(Function):
    def forward(self, a, b):
        self.saved = (a, b)
        return a * b

    def backward(self, grad):
        a, b = self.saved
        return _unbroadcast(grad * b, a.shape), _unbroadcast(grad * a, b.shape)


class Div(Function):
    def forward(self, a, b):
        self.saved = (a, b)
        return a / b

    def backward(self, grad):
        a, b = self.saved
        return (
            _unbroadcast(grad / b, a.shape),
            _unbroadcast(-grad * a / (b * b), b.shape),
        )


class Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, grad):
        return (-grad,)


class Pow(Function):
    def forward(self, a, exponent):
        self.saved = (a, exponent)
        return a**exponent

    def backward(self, grad):
        a, p = self.saved
        return (grad * p * a ** (p - 1),)


class Exp(Function):
    def forward(self, a):
        out = np.exp(a)
        self.saved = (out,)
        return out

    def backward(self, grad):
        return (grad * self.saved[0],)


class Log(Function):
    def forward(self, a):
        self.saved = (a,)
        return np.log(a)

    def backward(self, grad):
        return (grad / self.saved[0],)


class Sqrt(Function):
    def forward(self, a):
        out = np.sqrt(a)
        self.saved = (out,)
        return out

    def backward(self, grad):
        return (grad / (2.0 * self.saved[0]),)


class ReLU(Function):
    def forward(self, a):
        out = np.maximum(a, 0)
        self.saved = (out,)
        return out

    def backward(self, grad):
        # out > 0 exactly where a > 0: false at zeros and NaNs alike
        return (grad * (self.saved[0] > 0),)


class ELU(Function):
    # alpha = 1: elu(x) = x for x > 0, exp(x) - 1 otherwise
    def forward(self, a):
        positive = a > 0
        out = np.where(positive, a, np.exp(np.minimum(a, 0.0)) - 1.0)
        self.saved = (positive, out)
        return out.astype(a.dtype, copy=False)

    def backward(self, grad):
        positive, out = self.saved
        return (grad * np.where(positive, 1.0, out + 1.0).astype(grad.dtype, copy=False),)


class ClampMin(Function):
    def forward(self, a, bound):
        self.saved = (a >= bound,)
        return np.maximum(a, bound)

    def backward(self, grad):
        return (grad * self.saved[0],)


# ---------------------------------------------------------------------------
# reductions and movement
# ---------------------------------------------------------------------------


class Sum(Function):
    def forward(self, a, axis, keepdims):
        self.saved = (a.shape, axis, keepdims)
        return np.asarray(a.sum(axis=axis, keepdims=keepdims))

    def backward(self, grad):
        shape, axis, keepdims = self.saved
        if axis is None:
            return (np.broadcast_to(grad, shape).astype(grad.dtype, copy=False).copy(),)
        if not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            axes = tuple(a % len(shape) for a in axes)
            expand = list(grad.shape)
            for a in sorted(axes):
                expand.insert(a, 1)
            grad = grad.reshape(expand)
        return (np.broadcast_to(grad, shape).copy(),)


class Reshape(Function):
    def forward(self, a, shape):
        self.saved = (a.shape,)
        return a.reshape(shape)

    def backward(self, grad):
        return (grad.reshape(self.saved[0]),)


class Transpose(Function):
    def forward(self, a, perm):
        self.saved = (tuple(np.argsort(perm)),)
        return np.ascontiguousarray(a.transpose(perm))

    def backward(self, grad):
        return (np.ascontiguousarray(grad.transpose(self.saved[0])),)


class Concat(Function):
    def forward(self, *parts, axis):
        self.saved = (axis, [p.shape[axis] for p in parts])
        return np.concatenate(parts, axis=axis)

    def backward(self, grad):
        axis, sizes = self.saved
        out = []
        start = 0
        for n in sizes:
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, start + n)
            out.append(np.ascontiguousarray(grad[tuple(index)]))
            start += n
        return tuple(out)


class Slice(Function):
    """Basic indexing only (ints and slices); advanced indexing uses gather_nd."""

    def forward(self, a, key):
        self.saved = (a.shape, key)
        return np.ascontiguousarray(a[key])

    def backward(self, grad):
        shape, key = self.saved
        out = np.zeros(shape, dtype=grad.dtype)
        out[key] += grad
        return (out,)


class GatherND(Function):
    def forward(self, a, index):
        self.saved = (a.shape, index)
        return np.ascontiguousarray(a[index])

    def backward(self, grad):
        shape, index = self.saved
        positions = np.arange(math.prod(shape)).reshape(shape)[index]
        return (_scatter_add(shape, positions, grad),)


def _scatter_add(shape, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A zero array of ``shape`` with ``values`` added at flat ``positions``;
    repeated positions accumulate. ``np.add.at`` with one index array into a
    1-D target takes numpy's fast path: 0.25 ms against 1.2 ms for a
    multi-dimensional index on a (16, 48, 64) patch scatter."""
    out = np.zeros(math.prod(shape), dtype=values.dtype)
    np.add.at(out, positions.ravel(), values.ravel())
    return out.reshape(shape)


class MatMul(Function):
    """(…, n, k) @ (…, k, m) with identical leading dims on both operands."""

    def forward(self, a, b):
        if a.ndim < 2 or b.ndim < 2 or a.shape[:-2] != b.shape[:-2]:
            raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
        self.saved = (a, b)
        return np.matmul(a, b)

    def backward(self, grad):
        a, b = self.saved
        return (
            np.matmul(grad, b.swapaxes(-1, -2)),
            np.matmul(a.swapaxes(-1, -2), grad),
        )


class Softmax(Function):
    def forward(self, a, axis):
        shifted = a - a.max(axis=axis, keepdims=True)
        np.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=axis, keepdims=True)
        self.saved = (shifted, axis)
        counters.add("softmax")
        return shifted

    def backward(self, grad):
        y, axis = self.saved
        inner = (grad * y).sum(axis=axis, keepdims=True)
        return (y * (grad - inner),)


# ---------------------------------------------------------------------------
# fused transformer and normalization ops
#
# Each replaces a chain of small ops with one tape node and a hand-written
# backward. Matmul operands are made C-contiguous first, as ``Transpose``
# does: numpy hands a transposed view to a different BLAS routine (syrk
# when both operands share one buffer), whose time under multi-threaded
# OpenBLAS is far less steady. On a 2-vCPU VM, 1600x64 @ its own
# transposed view took 6.2 ms median (25 ms worst of 20) against 2.6 ms
# with a contiguous copy.
# ---------------------------------------------------------------------------


def _swapped(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.swapaxes(-1, -2))


class Linear(Function):
    """x @ weightᵀ (+ bias) over the last axis of x; weight is (out, in)."""

    def forward(self, x, weight, bias):
        flat = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
        out = flat @ _swapped(weight)
        if bias is not None:
            out += bias
        self.saved = (flat, weight, x.shape, bias is not None)
        return out.reshape(*x.shape[:-1], weight.shape[0])

    def backward(self, grad):
        flat, weight, x_shape, has_bias = self.saved
        g2 = np.ascontiguousarray(grad).reshape(-1, weight.shape[0])
        grads = ((g2 @ weight).reshape(x_shape), _swapped(g2) @ flat)
        return grads + (g2.sum(axis=0),) if has_bias else grads


class LayerNorm(Function):
    """Parameter-free normalization over the last axis."""

    def forward(self, x, eps):
        centered = x - x.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
        out = centered * inv_std
        self.saved = (out, inv_std)
        return out

    def backward(self, grad):
        y, inv_std = self.saved
        inner = grad.mean(axis=-1, keepdims=True) + y * (grad * y).mean(axis=-1, keepdims=True)
        return (inv_std * (grad - inner),)


def _rotate_pairs(x: np.ndarray) -> np.ndarray:
    # (a, b) -> (-b, a) within each channel pair of the last axis
    pairs = x.reshape(*x.shape[:-1], -1, 2)
    out = np.empty_like(pairs)
    np.negative(pairs[..., 1], out=out[..., 0])
    out[..., 1] = pairs[..., 0]
    return out.reshape(x.shape)


class Rotary(Function):
    """x·cos + rot(x)·sin, rot turning each channel pair (a, b) into (-b, a)."""

    def forward(self, x, cos, sin):
        self.saved = (cos, sin)
        return x * cos + _rotate_pairs(x) * sin

    def backward(self, grad):
        cos, sin = self.saved
        # rot is orthogonal and antisymmetric: rotᵀ = -rot
        return (grad * cos - _rotate_pairs(grad * sin),)


def _heads_first(x: np.ndarray, heads: int) -> np.ndarray:
    # (…, n, heads·d) -> (…, heads, n, d): head i owns the i-th slice of the last axis
    return np.ascontiguousarray(np.swapaxes(x.reshape(*x.shape[:-1], heads, -1), -2, -3))


def _heads_last(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.swapaxes(x, -2, -3)).reshape(*x.shape[:-3], x.shape[-2], -1)


class Attention(Function):
    """softmax(q·kᵀ·scale)·v over (…, n, d) operands with equal leading dims,
    run per head on ``heads`` contiguous slices of the last axis."""

    def forward(self, q, k, v, scale, heads):
        q, k, v = (_heads_first(a, heads) for a in (q, k, v))
        probs = q @ _swapped(k)
        probs *= scale
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        self.saved = (q, k, v, probs, scale, heads)
        counters.add("softmax")
        return _heads_last(probs @ v)

    def backward(self, grad):
        q, k, v, probs, scale, heads = self.saved
        grad = _heads_first(grad, heads)
        dv = _swapped(probs) @ grad
        dscores = grad @ _swapped(v)
        dscores -= (dscores * probs).sum(axis=-1, keepdims=True)
        dscores *= probs
        dscores *= scale
        return _heads_last(dscores @ k), _heads_last(_swapped(dscores) @ q), _heads_last(dv)


def _centre(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[slice, ...]:
    # the (…, kh, kw) window of an outer kernel that an odd inner kernel fills
    return (slice(None), slice(None)) + tuple(
        slice((n - k) // 2, (n - k) // 2 + k) for n, k in zip(outer[2:], inner[2:]))


class FoldKernels(Function):
    """Σᵢ centred(kernelᵢ) · scaleᵢ / stdᵢ: odd (out, in, kh, kw) kernels, each
    scaled per output channel and added at the centre of the largest one."""

    def forward(self, *args, stds):
        kernels, scales = args[:len(stds)], args[len(stds):]
        shape = kernels[0].shape[:2] + tuple(max(k.shape[d] for k in kernels) for d in (2, 3))
        out = np.zeros(shape, dtype=kernels[0].dtype)
        for kernel, scale, std in zip(kernels, scales, stds):
            out[_centre(shape, kernel.shape)] += kernel * (scale / std)[:, None, None, None]
        self.saved = (kernels, scales, stds)
        return out

    def backward(self, grad):
        kernels, scales, stds = self.saved
        dkernels, dscales = [], []
        for kernel, scale, std in zip(kernels, scales, stds):
            window = grad[_centre(grad.shape, kernel.shape)]
            dkernels.append(window * (scale / std)[:, None, None, None])
            dscales.append((window * kernel).sum(axis=(1, 2, 3)) / std)
        return (*dkernels, *dscales)


class FoldBiases(Function):
    """Σᵢ (biasᵢ - meanᵢ) · scaleᵢ / stdᵢ + shiftᵢ: conv biases through their
    stored-statistics batch norms, summed over branches."""

    def forward(self, *args, means, stds):
        n = len(stds)
        biases, scales, shifts = args[:n], args[n:2 * n], args[2 * n:]
        out = None
        for bias, scale, shift, mean, std in zip(biases, scales, shifts, means, stds):
            term = (bias - mean) * (scale / std) + shift
            out = term if out is None else out + term
        self.saved = (biases, scales, means, stds)
        return out

    def backward(self, grad):
        biases, scales, means, stds = self.saved
        dbiases = [grad * (scale / std) for scale, std in zip(scales, stds)]
        dscales = [grad * (bias - mean) / std for bias, mean, std in zip(biases, means, stds)]
        return (*dbiases, *dscales, *(grad for _ in stds))


def _softmax_lse(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # softmax and log-sum-exp along the last axis
    peak = x.max(axis=-1, keepdims=True)
    e = np.exp(x - peak)
    total = e.sum(axis=-1, keepdims=True)
    return e / total, (peak + np.log(total))[..., 0]


class DualSoftmaxNLL(Function):
    """Mean over picked (k, a, b) of -max(log p, log floor), p the dual-softmax
    probability rowsoftmax(s[k])[a, b] · colsoftmax(s[k])[a, b] of (K, N, M)
    scores, so log p = 2·s[k, a, b] - LSE(row a) - LSE(column b).

    Reads only row a and column b of each picked matrix; picks may share rows
    and columns, and their gradients accumulate.
    """

    def forward(self, s, k, a, b, floor):
        scores = s.reshape(-1, *s.shape[-2:])
        row_p, row_lse = _softmax_lse(scores[k, a, :])
        col_p, col_lse = _softmax_lse(scores[k, :, b])
        log_p = 2.0 * scores[k, a, b] - row_lse - col_lse
        log_floor = math.log(floor)
        self.saved = (s.shape, k, a, b, row_p, col_p, log_p >= log_floor)
        return np.asarray(-np.maximum(log_p, log_floor).mean(), dtype=s.dtype)

    def backward(self, grad):
        shape, k, a, b, row_p, col_p, active = self.saved
        n, m = shape[-2:]
        c = np.where(active, grad / -len(k), 0.0).astype(row_p.dtype)  # dL/dlog p per pick
        # d log p / ds: -softmax(row) along row a, -softmax(column) down column b, +2 at (a, b)
        first = k * (n * m)
        positions = np.concatenate([
            ((first + a * m)[:, None] + np.arange(m)).ravel(),
            ((first + b)[:, None] + np.arange(n) * m).ravel(),
            first + a * m + b,
        ])
        values = np.concatenate([(-c[:, None] * row_p).ravel(), (-c[:, None] * col_p).ravel(), 2.0 * c])
        return (_scatter_add(shape, positions, values),)


# ---------------------------------------------------------------------------
# spatial ops on (C, H, W) maps and, where noted, (B, C, H, W) stacks
# ---------------------------------------------------------------------------


def _taps(x_shape, kh: int, kw: int, stride: int, pad: int):
    """Output size and per-tap strided views of a sliding window.

    For a (C, H, W) or (B, C, H, W) input zero-padded by ``pad``, returns
    ``((oh, ow), taps)`` where ``taps`` holds one index tuple per kernel
    element in row-major order; ``padded[taps[t]]`` is the (…, C, oh, ow)
    view of the values that kernel tap ``t`` reads at every output cell.
    Shared by conv, depthwise conv and max-pool: forward passes combine the
    views, backward passes add into them.
    """
    hp, wp = x_shape[-2] + 2 * pad, x_shape[-1] + 2 * pad
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"window {kh}x{kw} larger than padded input {hp}x{wp}")
    return (oh, ow), _tap_slices(oh, ow, kh, kw, stride)


def _tap_slices(oh: int, ow: int, kh: int, kw: int, stride: int) -> list[tuple]:
    rows = [slice(dr, dr + stride * (oh - 1) + 1, stride) for dr in range(kh)]
    cols = [slice(dc, dc + stride * (ow - 1) + 1, stride) for dc in range(kw)]
    return [(Ellipsis, r, c) for r in rows for c in cols]


# Conv2d and WinogradConv2d build their scratch (im2col columns, Winograd
# tiles) for one band of output rows at a time, each band within this many
# bytes, so a conv's transient memory does not grow with the map. Read at
# call time; the per-shape peaks are in CHANGES.md.
CONV_SCRATCH_BYTES = 16 * 2**20


def _row_bands(n_rows: int, row_bytes: int, fixed_bytes: int = 0) -> list[tuple[int, int]]:
    """``[start, stop)`` bands covering ``n_rows`` rows, each band's
    ``fixed_bytes + rows · row_bytes`` within ``CONV_SCRATCH_BYTES``; a band
    has at least one row."""
    step = max(1, (CONV_SCRATCH_BYTES - fixed_bytes) // row_bytes)
    return [(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


def _pad_plane(x: np.ndarray, pad: int) -> np.ndarray:
    # copy plus zeroed border strips: np.pad costs 45-65 us even on toy maps
    if pad == 0:
        return x
    *lead, h, w = x.shape
    out = np.empty((*lead, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    out[..., pad:-pad, pad:-pad] = x
    out[..., :pad, :] = 0
    out[..., -pad:, :] = 0
    out[..., pad:-pad, :pad] = 0
    out[..., pad:-pad, -pad:] = 0
    return out


def _unpad_plane(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.ascontiguousarray(x[..., pad:-pad, pad:-pad])


class Conv2d(Function):
    """im2col convolution of a (C, H, W) map, one GEMM per band of output rows.

    Each band pads its own input rows and builds its columns, (cin·kh·kw,
    band cells) ordered like the kernel's rows; the GEMM writes into the
    output. A recorded call keeps every band's columns, and backward loops
    over the same bands.
    """

    def forward(self, x, kernel, bias, stride, pad):
        cin, h, w = x.shape
        cout, _, kh, kw = kernel.shape
        (oh, ow), _ = _taps(x.shape, kh, kw, stride, pad)
        wp = w + 2 * pad
        weights = kernel.reshape(cout, -1)
        out = np.empty((cout, oh * ow), dtype=np.result_type(x, kernel))
        bands = []
        for r0, r1 in _row_bands(oh, x.itemsize * cin * (kh * kw * ow + stride * wp),
                                 x.itemsize * cin * wp * max(kh - stride, 0)):
            cols = _im2col_rows(x, r0, r1, kh, kw, stride, pad, ow)
            np.matmul(weights, cols, out=out[:, r0 * ow:r1 * ow])
            if self.records:
                bands.append((r0, r1, cols))
            del cols  # freed before the next band is built
        if bias is not None:
            out += bias[:, None]
        if self.records:
            self.saved = (bands, kernel, (cin, h + 2 * pad, wp), stride, pad, bias is not None)
        return out.reshape(cout, oh, ow)

    def backward(self, grad):
        bands, kernel, padded_shape, stride, pad, has_bias = self.saved
        cout, cin, kh, kw = kernel.shape
        ow = grad.shape[2]
        g2 = grad.reshape(cout, -1)
        weights_t = kernel.reshape(cout, -1).T
        dkernel = None
        dxp = np.zeros(padded_shape, dtype=grad.dtype)
        for r0, r1, cols in bands:
            g = g2[:, r0 * ow:r1 * ow]
            part = g @ cols.T
            dkernel = part if dkernel is None else dkernel + part
            dcols = (weights_t @ g).reshape(cin, kh * kw, r1 - r0, ow)
            dband = dxp[:, r0 * stride:(r1 - 1) * stride + kh]
            for t, tap in enumerate(_tap_slices(r1 - r0, ow, kh, kw, stride)):
                dband[tap] += dcols[:, t]
        dbias = grad.sum(axis=(1, 2)) if has_bias else None
        grads = (_unpad_plane(dxp, pad), dkernel.reshape(kernel.shape))
        return grads + (dbias,) if has_bias else grads


def _im2col_rows(x: np.ndarray, r0: int, r1: int, kh: int, kw: int, stride: int, pad: int,
                 ow: int) -> np.ndarray:
    """The im2col columns of output rows ``[r0, r1)``: (cin·kh·kw, (r1 − r0)·ow)."""
    cin, h, w = x.shape
    top = r0 * stride - pad  # the input row under the band's first padded row
    n_in = (r1 - r0 - 1) * stride + kh
    if pad == 0:
        xp = x[:, top:top + n_in]
    else:
        xp = np.zeros((cin, n_in, w + 2 * pad), dtype=x.dtype)
        lo, hi = max(top, 0), min(top + n_in, h)
        xp[:, lo - top:hi - top, pad:pad + w] = x[:, lo:hi]
    taps = _tap_slices(r1 - r0, ow, kh, kw, stride)
    return np.stack([xp[t] for t in taps], axis=1).reshape(cin * kh * kw, -1)


# Winograd F(4x4, 3x3) (Lavin & Gray, arXiv 1509.09308), interpolation points
# 0, ±1, ±2 and ∞: a 6x6 input tile d and a 3x3 kernel g correlate to the
# 4x4 output tile Aᵀ[(G g Gᵀ) ⊙ (Bᵀ d B)]A, 36 multiplies instead of 144.
_WINOGRAD_BT = np.array([[4, 0, -5, 0, 1, 0],
                         [0, -4, -4, 1, 1, 0],
                         [0, 4, -4, -1, 1, 0],
                         [0, -2, -1, 2, 1, 0],
                         [0, 2, -1, -2, 1, 0],
                         [0, 4, 0, -5, 0, 1]])
_WINOGRAD_G = np.array([[1 / 4, 0, 0],
                        [-1 / 6, -1 / 6, -1 / 6],
                        [-1 / 6, 1 / 6, -1 / 6],
                        [1 / 24, 1 / 12, 1 / 6],
                        [1 / 24, -1 / 12, 1 / 6],
                        [0, 0, 1]])
_WINOGRAD_AT = np.array([[1, 1, 1, 1, 1, 0],
                         [0, 1, -1, 2, -2, 0],
                         [0, 1, 1, 4, 4, 0],
                         [0, 1, -1, 8, -8, 1]])
# Stride-1, pad-1 3x3 convolutions with at least this many input and output
# channels take the Winograd path (the per-shape timings are in CHANGES.md).
WINOGRAD_MIN_CHANNELS = 64


@lru_cache(maxsize=None)
def _winograd_matrices(dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # kron(M, M) maps a row-major flattened tile X to the flattened M X Mᵀ:
    # kron(Bᵀ, Bᵀ) (36, 36), kron(G, G) (36, 9) and kron(Aᵀ, Aᵀ) (16, 36)
    return tuple(np.kron(m, m).astype(dtype) for m in (_WINOGRAD_BT, _WINOGRAD_G, _WINOGRAD_AT))


def _winograd(x: np.ndarray, kernel: np.ndarray, keep: list | None = None) -> np.ndarray:
    """Stride-1, pad-1 3x3 correlation of a (cin, H, W) map with a (cout, cin,
    3, 3) kernel: a (cout, H, W) view into whole 4x4 output tiles.

    The kernel is transformed once; the input tiles are transformed in bands
    of tile rows. Given ``keep``, each band appends ``(t0, t1, v)``: its tile
    rows and its transformed tiles V, (36, cin, (t1 − t0)·⌈W/4⌉).
    """
    bt, g, at = _winograd_matrices(x.dtype)
    cout, cin = kernel.shape[:2]
    _, h, w = x.shape
    th, tw = -(-h // 4), -(-w // 4)
    u = (g @ kernel.reshape(cout * cin, 9).T).reshape(36, cout, cin)
    y = np.empty((cout, th, 4, tw, 4), dtype=np.result_type(x, kernel))
    # per tile row: the padded rows, the tiles and V; then V, U·V and the output tiles
    row_bytes = x.itemsize * max(cin * (88 * tw + 8), tw * (36 * cin + 52 * cout))
    for t0, t1 in _row_bands(th, row_bytes, u.nbytes + x.itemsize * cin * (8 * tw + 4)):
        n = t1 - t0
        # input rows 4·t0 − 1 … 4·t1, zero outside the map: whole 6x6 tiles at stride 4
        xp = np.zeros((cin, 4 * n + 2, 4 * tw + 2), dtype=x.dtype)
        lo, hi = max(4 * t0 - 1, 0), min(4 * t1 + 1, h)
        xp[:, lo - 4 * t0 + 1:hi - 4 * t0 + 1, 1:w + 1] = x[:, lo:hi]
        sc, sh, sw = xp.strides
        tiles = np.lib.stride_tricks.as_strided(xp, (6, 6, cin, n, tw), (sh, sw, sc, 4 * sh, 4 * sw))
        v = (bt @ np.ascontiguousarray(tiles).reshape(36, -1)).reshape(36, cin, n * tw)
        del xp, tiles  # freed before U·V: the band budget counts one phase at a time
        m = (at @ (u @ v).reshape(36, -1)).reshape(4, 4, cout, n, tw)
        y[:, t0:t1] = m.transpose(2, 3, 0, 4, 1)
        if keep is not None:
            keep.append((t0, t1, v))
        del v, m
    return y.reshape(cout, 4 * th, 4 * tw)[:, :h, :w]


class WinogradConv2d(Function):
    """Stride-1, pad-1 3x3 convolution through Winograd F(4x4, 3x3).

    Backward is the adjoint of the same maps: dx is the Winograd correlation
    of the gradient with the flipped, in/out-swapped kernel; dkernel is
    kron(G, G)ᵀ applied to Σ over tiles of (kron(Aᵀ, Aᵀ)ᵀ · gradient tile)
    · Vᵀ, summed band by band over the V each band of the forward kept.
    """

    def forward(self, x, kernel, bias):
        bands = [] if self.records else None
        out = np.ascontiguousarray(_winograd(x, kernel, bands))  # a copy only for partial tiles
        if bias is not None:
            out += bias[:, None, None]
        if self.records:
            self.saved = (bands, kernel, bias is not None)
        return out

    def backward(self, grad):
        bands, kernel, has_bias = self.saved
        _, g, at = _winograd_matrices(grad.dtype)
        cout, h, w = grad.shape
        th, tw = -(-h // 4), -(-w // 4)
        gp = np.zeros((cout, th, 4, tw, 4), dtype=grad.dtype)
        gp.reshape(cout, 4 * th, 4 * tw)[:, :h, :w] = grad
        du = None
        for t0, t1, v in bands:
            gtiles = gp[:, t0:t1].transpose(2, 4, 0, 1, 3).reshape(16, -1)
            dm = (at.T @ gtiles).reshape(36, cout, (t1 - t0) * tw)
            part = dm @ v.swapaxes(1, 2)
            du = part if du is None else du + part
        dkernel = np.ascontiguousarray((g.T @ du.reshape(36, -1)).T).reshape(kernel.shape)
        dx = _winograd(grad, np.ascontiguousarray(kernel[:, :, ::-1, ::-1].swapaxes(0, 1)))
        grads = (np.ascontiguousarray(dx), dkernel)
        return grads + (grad.sum(axis=(1, 2)),) if has_bias else grads


class DepthwiseConv2d(Function):
    def forward(self, x, kernel, stride, pad):
        cin = x.shape[-3]
        kc, kh, kw = kernel.shape
        if kc != cin:
            raise ValueError(f"depthwise_conv2d: input has {cin} channels, kernel has {kc}")
        _, taps = _taps(x.shape, kh, kw, stride, pad)
        xp = _pad_plane(x, pad)
        weights = kernel.reshape(cin, -1, 1, 1)
        out = xp[taps[0]] * weights[:, 0]
        for t in range(1, len(taps)):
            out += xp[taps[t]] * weights[:, t]
        self.saved = (xp, kernel, taps, pad)
        counters.add("depthwise_conv2d")
        return out

    def backward(self, grad):
        xp, kernel, taps, pad = self.saved
        weights = kernel.reshape(kernel.shape[0], -1, 1, 1)
        # one kernel serves every map of a stack: sum over the batch and the cells
        cells = (*range(grad.ndim - 3), -2, -1)
        dkernel = np.stack([(grad * xp[t]).sum(axis=cells) for t in taps], axis=1)
        dxp = np.zeros(xp.shape, dtype=grad.dtype)
        for t, tap in enumerate(taps):
            dxp[tap] += grad * weights[:, t]
        return _unpad_plane(dxp, pad), dkernel.reshape(kernel.shape)


class MaxPool2d(Function):
    def forward(self, x, k, stride):
        h, w = x.shape[-2:]
        if k > h or k > w:
            raise ValueError(f"maxpool window {k} larger than input {h}x{w}")
        _, taps = _taps(x.shape, k, k, stride, 0)
        out = x[taps[0]].copy()
        for tap in taps[1:]:
            np.maximum(out, x[tap], out=out)
        self.saved = (x, out, taps)
        return out

    def backward(self, grad):
        x, out, taps = self.saved
        dx = np.zeros(x.shape, dtype=grad.dtype)
        unrouted = np.ones(out.shape, dtype=bool)
        for tap in taps:
            # the first max in row-major window order takes the gradient
            wins = unrouted & (x[tap] == out)
            dx[tap] += np.where(wins, grad, 0)
            unrouted &= ~wins
        return (dx,)


@lru_cache(maxsize=256)
def _interp_matrix(n_in: int, factor: int) -> np.ndarray:
    """Dense 1-D bilinear interpolation matrix, align-corners=false convention."""
    n_out = n_in * factor
    out = np.zeros((n_out, n_in))
    coords = np.clip((np.arange(n_out) + 0.5) / factor - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(coords).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    t = coords - lo
    out[np.arange(n_out), lo] += 1.0 - t
    out[np.arange(n_out), hi] += t
    return out


class BilinearUpsample2d(Function):
    def forward(self, x, factor):
        h, w = x.shape[-2:]
        ry = _interp_matrix(h, factor).astype(x.dtype)
        rx = _interp_matrix(w, factor).astype(x.dtype)
        self.saved = (ry, rx)
        # separable: rows then columns, as plain matmuls
        return np.matmul(ry, np.matmul(x, rx.T))

    def backward(self, grad):
        ry, rx = self.saved
        return (np.matmul(ry.T, np.matmul(grad, rx)),)


# ---------------------------------------------------------------------------
# functional surface
# ---------------------------------------------------------------------------


def tensor(data, dtype=None) -> Tensor:
    return Tensor(data, dtype=dtype)


def parameter(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


def concat(parts, axis: int = 0) -> Tensor:
    return Concat.apply(*parts, axis=axis)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return MatMul.apply(a, b)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Overflow-safe softmax along ``axis`` (max-subtracted)."""
    return Softmax.apply(x, axis=axis)


def gather_nd(x: Tensor, index: tuple) -> Tensor:
    """Advanced indexing with integer arrays; backward scatter-adds."""
    return GatherND.apply(x, index=index)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution over a (C, H, W) map with zero padding.

    Kernel is (out_c, in_c, kh, kw) with odd kh, kw; output spatial dims are
    floor((H + 2·pad − kh) / stride) + 1. Stride-1, pad-1 3x3 kernels with at
    least ``WINOGRAD_MIN_CHANNELS`` input and output channels run Winograd
    F(4x4, 3x3), the rest im2col; each call counts once under "conv2d".
    """
    kh, kw = kernel.shape[-2:]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv2d expects odd kernel sizes")
    if stride < 1 or pad < 0:
        raise ValueError("conv2d expects stride >= 1 and pad >= 0")
    cout, cin = kernel.shape[:2]
    if x.shape[0] != cin:
        raise ValueError(f"conv2d: input has {x.shape[0]} channels, kernel expects {cin}")
    counters.add("conv2d")
    if (kh, kw, stride, pad) == (3, 3, 1, 1) and min(cin, cout) >= WINOGRAD_MIN_CHANNELS:
        counters.add("conv2d_winograd")
        return WinogradConv2d.apply(x, kernel, bias)
    return Conv2d.apply(x, kernel, bias, stride=stride, pad=pad)


def depthwise_conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Per-channel convolution of a (C, H, W) map or a (B, C, H, W) stack with
    one (C, kh, kw) kernel: output channel c depends only on input channel c."""
    return DepthwiseConv2d.apply(x, kernel, stride=stride, pad=pad)


def maxpool2d(x: Tensor, k: int, stride: int | None = None) -> Tensor:
    """k×k max pooling over the last two axes; gradient routes to the first
    max of each window."""
    if k < 1:
        raise ValueError("maxpool2d expects k >= 1")
    return MaxPool2d.apply(x, k=k, stride=stride if stride is not None else k)


def bilinear_upsample(x: Tensor, factor: int) -> Tensor:
    """Integer-factor bilinear upsampling of the last two axes, align-corners=false
    sample centers."""
    if factor < 1:
        raise ValueError("bilinear_upsample expects factor >= 1")
    if factor == 1:
        return x
    return BilinearUpsample2d.apply(x, factor=factor)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight.T (+ bias) over the last axis; weight is (out, in)."""
    return Linear.apply(x, weight, bias)


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Parameter-free layer normalization over the last axis."""
    return LayerNorm.apply(x, eps=eps)


def rotary(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate each channel pair (a, b) of the last axis by the angle whose
    cos/sin are given, broadcast against ``x``: x·cos + (-b, a)·sin."""
    return Rotary.apply(x, cos=cos, sin=sin)


def fold_kernels(kernels, scales, stds) -> Tensor:
    """Σᵢ centred(kernelᵢ) · scaleᵢ / stdᵢ: batch-norm-scaled branch kernels
    summed into one, smaller odd kernels placed at the centre taps."""
    return FoldKernels.apply(*kernels, *scales, stds=tuple(stds))


def fold_biases(biases, scales, shifts, means, stds) -> Tensor:
    """Σᵢ (biasᵢ - meanᵢ) · scaleᵢ / stdᵢ + shiftᵢ over batch-normed branches."""
    return FoldBiases.apply(*biases, *scales, *shifts, means=tuple(means), stds=tuple(stds))


def dual_softmax_nll(s: Tensor, index: tuple, floor: float) -> Tensor:
    """Mean negative log dual-softmax probability, floored at ``floor``, of the
    picked entries: ``index`` is (a, b) into an (N, M) score matrix or
    (k, a, b) into a (K, N, M) batch. Never builds the dense softmaxes."""
    index = tuple(np.asarray(i, dtype=np.int64) for i in index)
    if len(index) == 2:
        index = (np.zeros_like(index[0]),) + index
    return DualSoftmaxNLL.apply(s, *index, floor=floor)


def vanilla_attention(q: Tensor, k: Tensor, v: Tensor, scale: float | None = None, heads: int = 1) -> Tensor:
    """softmax(q·kᵀ·scale)·v per head; scale defaults to 1/√(d/heads).

    Head i attends with the i-th of ``heads`` equal slices of the last axis
    of q, k and v and writes that slice of the output. The plain product
    form saturates for large feature dims, so the scaled variant is the
    default; pass scale=1.0 for the unscaled product.
    """
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(f"attention dim mismatch: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(f"key/value count mismatch: {k.shape} vs {v.shape}")
    if not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]:
        raise ValueError(f"attention leading dims differ: {q.shape}, {k.shape}, {v.shape}")
    if heads < 1 or q.shape[-1] % heads or v.shape[-1] % heads:
        raise ValueError(f"cannot split widths {q.shape[-1]} and {v.shape[-1]} into {heads} heads")
    if scale is None:
        scale = 1.0 / math.sqrt(q.shape[-1] // heads)
    out = Attention.apply(q, k, v, scale=scale, heads=heads)
    counters.add("attn_score_entries", math.prod(q.shape[:-2]) * q.shape[-2] * k.shape[-2])
    return out


def linear_attention(q: Tensor, k: Tensor, v: Tensor, normalized: bool = True) -> Tensor:
    """Kernelized attention with φ(x) = elu(x) + 1.

    The default computes φ(q)·(φ(k)ᵀv) with per-query normalization by
    φ(q)·Σφ(k). ``normalized=False`` computes the unnormalized variant
    φ(q)·(φ(k)ᵀφ(v)) for A/B comparison; it is not scale-invariant.
    """
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(f"attention dim mismatch: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(f"key/value count mismatch: {k.shape} vs {v.shape}")
    fq = q.elu() + 1.0
    fk = k.elu() + 1.0
    if not normalized:
        return matmul(fq, matmul(_swap_last(fk), v.elu() + 1.0))
    numerator = matmul(fq, matmul(_swap_last(fk), v))
    denominator = matmul(fq, fk.sum(axis=-2, keepdims=True).reshape((*fk.shape[:-2], fk.shape[-1], 1)))
    return numerator / denominator


def _swap_last(x: Tensor) -> Tensor:
    perm = list(range(x.ndim))
    perm[-1], perm[-2] = perm[-2], perm[-1]
    return x.transpose(perm)
