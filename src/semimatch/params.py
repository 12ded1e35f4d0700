"""The model's tensors, each declared once, where it is made.

A module's ``__init__`` takes a ``Params`` scoped to its names and makes each
tensor there with ``make``: its name, shape, init (a constant or a draw rule
such as ``he_normal``) and whether it trains. Tensors are kept in the order
made, which is the draw order, the container order and the optimizer order.
"""
from __future__ import annotations

import copy
import math

import numpy as np

from .tensor import NumericError, Tensor


class WeightFormatError(ValueError):
    pass


def he_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """N(0, 2 / fan_in) for an (out_c, in_c, k, k) conv kernel."""
    return rng.normal(0.0, math.sqrt(2.0 / math.prod(shape[1:])), size=shape)


def xavier(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform within ±sqrt(6 / (in + out)) for an (out, in) matrix."""
    bound = math.sqrt(6.0 / sum(shape))
    return rng.uniform(-bound, bound, size=shape)


def box_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """A (d, s, s) depthwise kernel averaging its s-by-s window, plus N(0, 0.01) noise."""
    return np.full(shape, 1.0 / (shape[-2] * shape[-1])) + rng.normal(0.0, 0.01, size=shape)


class Params:
    """Tensors of one ``dtype``, drawn from ``rng`` or, when ``arrays`` (name -> array)
    is given, taken from it by name, checked and cast; ``arrays`` keeps what is not taken."""

    def __init__(self, dtype, rng: np.random.Generator | None, arrays: dict[str, np.ndarray] | None):
        self.dtype, self.rng, self.arrays = dtype, rng, arrays
        self.tensors: dict[str, Tensor] = {}
        self.prefix = ""

    def scope(self, name: str) -> Params:
        """The same registry, naming what it makes under ``name.``."""
        scoped = copy.copy(self)
        scoped.prefix = f"{self.prefix}{name}."
        return scoped

    def make(self, name: str, shape: tuple[int, ...], init, *, trainable: bool) -> Tensor:
        """The tensor ``name`` under this scope: drawn by ``init`` (a constant or a
        draw rule), or taken from ``arrays`` and checked; trained or a stored statistic."""
        name = self.prefix + name
        if self.arrays is None:
            data = init(self.rng, shape) if callable(init) else np.full(shape, init)
        elif name not in self.arrays:
            raise WeightFormatError(f"container is missing tensors: {[name]}")
        else:
            data = self.arrays.pop(name)
            if data.shape != shape:
                raise WeightFormatError(f"tensor {name} has shape {data.shape}, expected {shape}")
            if not np.isfinite(data).all():
                raise NumericError(f"tensor {name} holds non-finite values")
        self.tensors[name] = tensor = Tensor(data, requires_grad=trainable, dtype=self.dtype)
        return tensor
