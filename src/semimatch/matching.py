"""Coarse matching: dense correlation, dual-softmax, mutual nearest neighbors.

Full mode thresholds the dual-softmax probability matrix; optimized mode
runs MNN selection directly on the raw score matrix and never computes a
softmax (asserted by op counters in the tests).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import MatcherConfig
from .instrument import counters
from .tensor import Tensor

MODES = ("full", "optimized")


@dataclass
class ScoreMatrix:
    s: Tensor
    grid_a: tuple[int, int]
    grid_b: tuple[int, int]
    p: Tensor | None = None


@dataclass
class CoarseMatch:
    i: int
    j: int
    confidence: float


def correlate(f_a: Tensor, f_b: Tensor, inv_temperature: float) -> ScoreMatrix:
    """s(i, j) = inv_temperature * <f_i, f_j> over flattened coarse grids."""
    if f_a.shape[0] != f_b.shape[0]:
        raise ValueError(f"channel mismatch: {f_a.shape} vs {f_b.shape}")
    d = f_a.shape[0]
    # temperature folds into the small factor, saving a full-matrix pass
    ta = f_a.reshape((d, -1)).transpose((1, 0)) * inv_temperature
    tb = f_b.reshape((d, -1))
    scores = T.matmul(ta, tb)
    return ScoreMatrix(
        s=scores,
        grid_a=(f_a.shape[1], f_a.shape[2]),
        grid_b=(f_b.shape[1], f_b.shape[2]),
    )


def normalize_cells(features: Tensor) -> Tensor:
    """Scale each cell's feature vector to norm sqrt(d).

    Correlation scores then become d * cosine similarity, so the configured
    inverse temperature bounds the softmax logits regardless of raw feature
    magnitude. One fused op: refinement also normalizes every patch and
    pixel it blends, and a training step records each call.
    """
    return T.scale_to_norm(features, float(np.sqrt(features.shape[0])))


def dual_softmax(score: ScoreMatrix) -> ScoreMatrix:
    """Fill p = rowsoftmax(s) * colsoftmax(s), elementwise."""
    counters.add("dual_softmax")
    score.p = T.softmax(score.s, axis=1) * T.softmax(score.s, axis=0)
    return score


def mnn_select(m: np.ndarray, tau: float = float("-inf")) -> list[CoarseMatch]:
    """Mutual-argmax pairs of m with value >= tau, ties toward smaller index."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("mnn_select expects a 2-D matrix")
    rows = np.arange(m.shape[0])
    row_best = m.argmax(axis=1)  # first max on ties, row-major
    best = m[rows, row_best]
    col_max = m.max(axis=0)
    # column argmax via axis-0 reductions: np.argmax(axis=0) is an order of
    # magnitude slower than max+equality on large matrices
    at_max = m == col_max[None, :]
    col_counts = at_max.sum(axis=0)
    mutual = best == col_max[row_best]
    keep = mutual & (best >= tau) & np.isfinite(best)
    # ties: a kept row must be the first row attaining its column's max
    tied = np.flatnonzero(keep & (col_counts[row_best] > 1))
    keep[tied] = at_max[:, row_best[tied]].argmax(axis=0) == tied
    return [CoarseMatch(int(i), int(row_best[i]), float(best[i])) for i in np.flatnonzero(keep)]


def match_coarse(
    f_a: Tensor,
    f_b: Tensor,
    mode: str,
    tau: float = MatcherConfig.tau,
    *,
    inv_temperature: float,
    valid_a: np.ndarray | None = None,
    valid_b: np.ndarray | None = None,
) -> tuple[list[CoarseMatch], ScoreMatrix]:
    """Coarse matches plus the score matrix they were selected from.

    mode="full": correlate -> dual-softmax -> MNN on p with threshold tau;
    confidences are probabilities in [0, 1].
    mode="optimized": MNN directly on the raw scores, no softmax and no
    threshold; confidences are raw correlations (unbounded).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    score = correlate(f_a, f_b, inv_temperature)
    if mode == "full":
        dual_softmax(score)
        matrix = score.p.data
        threshold = tau
    else:
        matrix = score.s.data
        threshold = float("-inf")
    matrix = _mask_invalid(matrix, valid_a, valid_b)
    return mnn_select(matrix, threshold), score


def _mask_invalid(matrix: np.ndarray, valid_a: np.ndarray | None, valid_b: np.ndarray | None) -> np.ndarray:
    if valid_a is None and valid_b is None:
        return matrix
    matrix = matrix.copy()
    if valid_a is not None:
        matrix[~valid_a.reshape(-1), :] = -np.inf
    if valid_b is not None:
        matrix[:, ~valid_b.reshape(-1)] = -np.inf
    return matrix
