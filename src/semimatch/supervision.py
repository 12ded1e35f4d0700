"""Ground-truth construction and the three loss terms.

Coarse supervision is the negative log dual-softmax probability of the
coarse score matrix at warped cell pairs; fine supervision splits into the
same log-likelihood over each local score matrix (stage 1) and an L2
penalty on the sub-pixel points (stage 2). Both log-likelihoods come from
one op, ``tensor.dual_softmax_nll``, which reads only the picked rows and
columns of the scores and never builds the dense probability matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .geometry import apply_homography, normalize_homography
from .refine import COARSE_STRIDE, cell_centers, nearest_cells
from .tensor import Tensor

PROB_FLOOR = 1e-12


@dataclass
class LossWeights:
    alpha: float = 1.0
    beta: float = 0.25

    def __post_init__(self):
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):  # NaN fails too
            raise ValueError(f"loss weights must be finite and nonnegative, got alpha={self.alpha}, beta={self.beta}")


@dataclass
class GroundTruth:
    """Cell-level correspondence derived from a known warp.

    ``pairs_a``/``pairs_b`` are flat cell indices; ``warped_centers`` is the
    exact sub-pixel image-B location of each paired A cell center. The
    homography is kept so fine targets can be recomputed for any pixel.
    """

    homography: np.ndarray
    grid_a: tuple[int, int]
    grid_b: tuple[int, int]
    pairs_a: np.ndarray
    pairs_b: np.ndarray
    warped_centers: np.ndarray

    def __len__(self) -> int:
        return len(self.pairs_a)

    def warp(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return apply_homography(self.homography, pts)


def build_gt_homography(h: np.ndarray, dims_a: tuple[int, int], dims_b: tuple[int, int]) -> GroundTruth:
    """Warp every A cell center by h and pair it with the nearest B cell.

    dims are (height, width) in full-resolution pixels, divisible by the
    coarse stride. Cells whose center leaves image B are masked out.
    """
    h = normalize_homography(h)  # rejects singular warps up front
    hb, wb = dims_b
    grid_a, grid_b = (tuple(n // COARSE_STRIDE for n in dims) for dims in (dims_a, dims_b))
    flat_a = np.arange(grid_a[0] * grid_a[1])
    centers = cell_centers(flat_a, grid_a).astype(np.float64)
    warped, finite = apply_homography(h, centers)
    inside = (
        finite
        & (warped[:, 0] >= 0.0) & (warped[:, 0] < wb)
        & (warped[:, 1] >= 0.0) & (warped[:, 1] < hb)
    )
    flat_b = nearest_cells(warped, grid_b)
    return GroundTruth(
        homography=np.asarray(h, dtype=np.float64),
        grid_a=grid_a,
        grid_b=grid_b,
        pairs_a=flat_a[inside],
        pairs_b=flat_b[inside],
        warped_centers=warped[inside],
    )


class EmptySupervisionError(ValueError):
    """No supervised entries; returning 0 here would hide data bugs."""


def coarse_loss(s: Tensor, gt: GroundTruth) -> Tensor:
    """Mean negative log dual-softmax probability of the (Na, Nb) score
    matrix s at the ground-truth cell pairs, probabilities floored at PROB_FLOOR."""
    if len(gt) == 0:
        raise EmptySupervisionError("ground truth holds no coarse pairs")
    return T.dual_softmax_nll(s, (gt.pairs_a, gt.pairs_b), PROB_FLOOR)


def fine_loss_stage1(score_matrices: Tensor, idx_a: np.ndarray, idx_b: np.ndarray,
                     valid: np.ndarray) -> Tensor:
    """Mean negative log dual-softmax of each local matrix at its GT pair.

    ``score_matrices`` is (n, w^2, w^2); matches whose GT pixel fell outside
    the patch arrive with valid=False and are excluded. All-invalid input is
    an error.
    """
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        raise EmptySupervisionError("every fine ground-truth pixel fell outside its patch")
    keep = np.flatnonzero(valid)
    return T.dual_softmax_nll(score_matrices, (keep, np.asarray(idx_a)[keep], np.asarray(idx_b)[keep]),
                              PROB_FLOOR)


def fine_loss_stage2(pred_b: Tensor, target_b: np.ndarray) -> Tensor:
    """Mean squared Euclidean distance (px^2) between predictions and targets."""
    target_b = np.asarray(target_b, dtype=np.float64)
    if pred_b.shape != target_b.shape:
        raise ValueError(f"prediction/target shape mismatch: {pred_b.shape} vs {target_b.shape}")
    diff = pred_b - T.tensor(target_b, dtype=pred_b.dtype)
    return (diff * diff).sum(axis=1).mean()


def total_loss(l_c, l_f1, l_f2, weights: LossWeights = LossWeights()):
    """l_c + alpha * l_f1 + beta * l_f2."""
    for name, term in (("l_c", l_c), ("l_f1", l_f1), ("l_f2", l_f2)):
        value = term.data if isinstance(term, Tensor) else term
        if not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite loss component {name}")
    return l_c + weights.alpha * l_f1 + weights.beta * l_f2
