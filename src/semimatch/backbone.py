"""Reparameterizable convolutional backbone producing a 1/2, 1/4, 1/8 pyramid.

Each block is defined by parallel 3x3 / 1x1 / identity branches, each with
stored-statistics batch norm (``RepVGGBlock.forward``). Because the
statistics are stored, the branches fold exactly into one 3x3 kernel + bias
per block (``RepVGGBlock.fold``). Training folds inside the autodiff graph
(``Backbone.fold``) and runs one convolution per block, gradients reaching
every branch; ``fuse()`` is the same fold without gradients, for deployment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .tensor import Tensor

if TYPE_CHECKING:
    from .pipeline import MatcherConfig

BN_EPS = 1e-5
STAGE_STRIDES = (1, 2, 2, 2)  # a 1/2, 1/4, 1/8 pyramid
COARSE_STRIDE = math.prod(STAGE_STRIDES)  # full-resolution pixels per coarse cell side


@dataclass
class FeaturePyramid:
    f_half: Tensor
    f_quarter: Tensor
    f_coarse: Tensor


class BatchNormStats:
    """Per-channel normalization with stored statistics.

    Forward passes always normalize with the stored (mean, var); scale and
    shift are the trainable parameters. Stored statistics make the fused
    deploy network bit-for-bit comparable with the training-mode network.
    """

    def __init__(self, channels: int, dtype=np.float32):
        self.mean = T.tensor(np.zeros(channels), dtype=dtype)
        self.var = T.tensor(np.ones(channels), dtype=dtype)
        self.scale = T.parameter(np.ones(channels), dtype=dtype)
        self.shift = T.parameter(np.zeros(channels), dtype=dtype)
        self.eps = BN_EPS

    def apply(self, x: Tensor) -> Tensor:
        inv_std = 1.0 / np.sqrt(self.var.data + self.eps)
        weight = self.scale * T.tensor(inv_std, dtype=x.dtype)
        bias = self.shift - self.scale * T.tensor(self.mean.data * inv_std, dtype=x.dtype)
        return x * weight.reshape((-1, 1, 1)) + bias.reshape((-1, 1, 1))

    def named_tensors(self, prefix: str):
        yield f"{prefix}.bn_mean", self.mean
        yield f"{prefix}.bn_var", self.var
        yield f"{prefix}.bn_scale", self.scale
        yield f"{prefix}.bn_shift", self.shift


def he_normal(rng: np.random.Generator, out_c: int, in_c: int, k: int, dtype=np.float32) -> Tensor:
    """An (out_c, in_c, k, k) conv kernel parameter drawn from N(0, 2 / fan_in)."""
    std = math.sqrt(2.0 / (in_c * k * k))
    return T.parameter(rng.normal(0.0, std, size=(out_c, in_c, k, k)), dtype=dtype)


class ConvBranch:
    def __init__(self, in_c: int, out_c: int, k: int, rng: np.random.Generator, dtype=np.float32):
        self.kernel = he_normal(rng, out_c, in_c, k, dtype)
        self.bias = T.parameter(np.zeros(out_c), dtype=dtype)
        self.bn = BatchNormStats(out_c, dtype=dtype)
        self.k = k

    def apply(self, x: Tensor, stride: int) -> Tensor:
        out = T.conv2d(x, self.kernel, self.bias, stride=stride, pad=(self.k - 1) // 2)
        return self.bn.apply(out)

    def named_tensors(self, prefix: str):
        yield f"{prefix}.kernel", self.kernel
        yield f"{prefix}.bias", self.bias
        yield from self.bn.named_tensors(prefix)


class RepVGGBlock:
    """3x3 + 1x1 + optional identity branches, summed then ReLU."""

    def __init__(self, in_c: int, out_c: int, stride: int, rng: np.random.Generator, dtype=np.float32):
        self.in_c = in_c
        self.out_c = out_c
        self.stride = stride
        self.conv3x3 = ConvBranch(in_c, out_c, 3, rng, dtype)
        self.conv1x1 = ConvBranch(in_c, out_c, 1, rng, dtype)
        self.identity = BatchNormStats(out_c, dtype=dtype) if (in_c == out_c and stride == 1) else None

    def forward(self, x: Tensor) -> Tensor:
        out = self.conv3x3.apply(x, self.stride) + self.conv1x1.apply(x, self.stride)
        if self.identity is not None:
            out = out + self.identity.apply(x)
        return out.relu()

    def fold(self) -> tuple[Tensor, Tensor]:
        """All branches as one 3x3 kernel and bias: two ops on the tape.

        Batch norm folds into each branch, the 1x1 kernel lands on the
        centre tap and the identity branch is a centred Dirac kernel with a
        zero bias; gradients flow back to every branch's parameters.
        """
        branches = [(self.conv3x3.kernel, self.conv3x3.bias, self.conv3x3.bn),
                    (self.conv1x1.kernel, self.conv1x1.bias, self.conv1x1.bn)]
        if self.identity is not None:
            dtype = self.conv3x3.kernel.dtype
            dirac = T.tensor(np.eye(self.out_c)[:, :, None, None], dtype=dtype)
            branches.append((dirac, T.tensor(np.zeros(self.out_c), dtype=dtype), self.identity))
        kernels, biases, norms = zip(*branches)
        scales = [bn.scale for bn in norms]
        stds = [np.sqrt(bn.var.data + bn.eps) for bn in norms]
        kernel = T.fold_kernels(kernels, scales, stds)
        bias = T.fold_biases(biases, scales, [bn.shift for bn in norms], [bn.mean.data for bn in norms], stds)
        return kernel, bias

    def fuse(self) -> tuple[np.ndarray, np.ndarray]:
        """The folded 3x3 kernel and bias as plain arrays."""
        with T.no_grad():
            kernel, bias = self.fold()
        return kernel.data, bias.data

    def named_tensors(self, prefix: str):
        yield from self.conv3x3.named_tensors(f"{prefix}.conv3x3")
        yield from self.conv1x1.named_tensors(f"{prefix}.conv1x1")
        if self.identity is not None:
            yield from self.identity.named_tensors(f"{prefix}.identity")


@dataclass
class FusedBlock:
    kernel: Tensor
    bias: Tensor
    stride: int


class Backbone:
    """Built from a ``MatcherConfig``'s ``widths`` and ``blocks``."""

    def __init__(self, config: "MatcherConfig", rng: np.random.Generator, dtype=np.float32):
        self.stages: list[list[RepVGGBlock]] = []
        c_in = 1  # grayscale input
        for width, n_blocks, stride in zip(config.widths, config.blocks, STAGE_STRIDES):
            stage = []
            for b in range(n_blocks):
                stage.append(RepVGGBlock(c_in, width, stride if b == 0 else 1, rng, dtype))
                c_in = width
            self.stages.append(stage)

    def fold(self) -> "FusedBackbone":
        """Every block folded into one conv. With gradients on, the kernels
        and biases are graph tensors, so a loss through ``forward_deploy``
        reaches every branch; one fold serves both images of a pair."""
        return FusedBackbone([[FusedBlock(*block.fold(), block.stride) for block in stage]
                              for stage in self.stages])

    def fuse(self) -> "FusedBackbone":
        with T.no_grad():
            return self.fold()

    def named_tensors(self, prefix: str = "backbone"):
        for s, stage in enumerate(self.stages):
            for b, block in enumerate(stage):
                yield from block.named_tensors(f"{prefix}.stage{s}.block{b}")


class FusedBackbone:
    """Single-branch deployment form: one convolution per block."""

    def __init__(self, stages: list[list[FusedBlock]]):
        self.stages = stages

    def forward_deploy(self, image: Tensor) -> FeaturePyramid:
        _check_dims(image)
        x = image
        outputs = []
        for stage in self.stages:
            for block in stage:
                x = T.conv2d(x, block.kernel, block.bias, stride=block.stride, pad=1)
                if x.requires_grad:
                    x = x.relu()
                else:  # a fresh, unrecorded conv output: ReLU in place, no second map
                    np.maximum(x.data, 0, out=x.data)
            outputs.append(x)
        return FeaturePyramid(f_half=outputs[1], f_quarter=outputs[2], f_coarse=outputs[3])


def _check_dims(image: Tensor) -> None:
    if image.ndim != 3 or image.shape[0] != 1:
        raise ValueError(f"backbone expects a (1, H, W) grayscale map, got {image.shape}")
    _, h, w = image.shape
    if h % COARSE_STRIDE or w % COARSE_STRIDE:
        raise ValueError(f"image dims must be divisible by {COARSE_STRIDE}, got {h}x{w}; pad first")


def pad_to_multiple(image: np.ndarray, multiple: int = COARSE_STRIDE) -> tuple[np.ndarray, tuple[int, int]]:
    """Right/bottom zero-pad so both dims divide; returns (padded, original hw).

    The pipeline pads to ``COARSE_STRIDE * s`` so the coarse grid also
    divides the attention aggregation range.
    """
    h, w = image.shape
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph or pw:
        image = np.pad(image, ((0, ph), (0, pw)))
    return image, (h, w)

