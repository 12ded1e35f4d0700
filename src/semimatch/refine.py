"""Fine feature fusion and two-stage sub-pixel match refinement.

Stage 1 picks the best mutual pixel pair inside a local patch (pure argmax,
no spatial averaging); stage 2 moves the point in B by a softmax-expectation
over a 3x3 correlation window, so the final offset is bounded by one pixel
per axis.

Every match is handled in one batch: patches and windows are read with one
index-array gather per image, so inference (``refine``) and training
(``train._fine_losses``, with gradients) run the same functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import COARSE_STRIDE
from .config import MatcherConfig
from .matching import CoarseMatch
from .params import Params, he_normal
from .tensor import Tensor

# window cell (row r, col c) corresponds to offset (dx, dy) = (c-1, r-1)
_OFFSET_GRID = np.array([[c - 1, r - 1] for r in range(3) for c in range(3)], dtype=np.int64)


@dataclass
class FineMatch:
    pt_a: tuple[int, int]  # integer pixel in A, (x, y)
    pt_b: tuple[float, float]  # sub-pixel point in B
    confidence: float


class FineFusion:
    """Ladder that lifts transformed 1/8 features to a full-resolution map.

    up x2 -> 1x1-projected skip-add with the 1/4 backbone features -> 3x3
    conv -> up x2 -> skip-add with the 1/2 features -> 3x3 conv -> up x2.
    Only feed-forward convolutions, no attention; every width comes from a ``MatcherConfig``.
    """

    def __init__(self, config: MatcherConfig, params: Params):
        d_model, c_quarter, c_half, d_fine = config.d_model, config.widths[2], config.widths[1], config.d_fine
        self.proj_quarter = params.make("proj_quarter.kernel", (d_model, c_quarter, 1, 1), he_normal, trainable=True)
        self.proj_quarter_bias = params.make("proj_quarter.bias", (d_model,), 0.0, trainable=True)
        self.conv_mid = params.make("conv_mid.kernel", (c_half, d_model, 3, 3), he_normal, trainable=True)
        self.conv_mid_bias = params.make("conv_mid.bias", (c_half,), 0.0, trainable=True)
        self.conv_out = params.make("conv_out.kernel", (d_fine, c_half, 3, 3), he_normal, trainable=True)
        self.conv_out_bias = params.make("conv_out.bias", (d_fine,), 0.0, trainable=True)

    def macs(self, height: int, width: int) -> int:
        """Multiply-adds of one image's fusion over a (height, width) coarse
        grid: each conv's kernel size times its output cells, the 1x1
        projection and ``conv_mid`` at 1/4 resolution (2x the grid) and
        ``conv_out`` at 1/2 (4x). Upsampling, adds and ReLUs are left out."""
        quarter, half = 4 * height * width, 16 * height * width
        return (self.proj_quarter.data.size + self.conv_mid.data.size) * quarter + self.conv_out.data.size * half

    def forward(self, f_coarse_t: Tensor, f_quarter: Tensor, f_half: Tensor) -> Tensor:
        if f_quarter.shape[1:] != tuple(2 * n for n in f_coarse_t.shape[1:]):
            raise ValueError("1/4 features do not match 2x the coarse grid")
        if f_half.shape[1:] != tuple(4 * n for n in f_coarse_t.shape[1:]):
            raise ValueError("1/2 features do not match 4x the coarse grid")
        x = T.bilinear_upsample(f_coarse_t, 2)
        x = x + T.conv2d(f_quarter, self.proj_quarter, self.proj_quarter_bias)
        x = T.conv2d(x.relu(), self.conv_mid, self.conv_mid_bias, pad=1)
        x = T.bilinear_upsample(x, 2)
        x = x + f_half
        x = T.conv2d(x.relu(), self.conv_out, self.conv_out_bias, pad=1)
        return T.bilinear_upsample(x, 2)


def cell_centers(cells: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """(n, 2) integer full-resolution (x, y) centres of flat cells of a (rows, cols) coarse grid."""
    rows, cols = np.divmod(cells, grid[1])
    return np.stack([cols, rows], axis=1) * COARSE_STRIDE + COARSE_STRIDE // 2


def nearest_cells(points: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Flat index of the cell whose centre is nearest each (x, y) point, clamped into the grid."""
    cols, rows = np.round((points - COARSE_STRIDE // 2) / COARSE_STRIDE).T
    return (np.clip(rows, 0, grid[0] - 1) * grid[1] + np.clip(cols, 0, grid[1] - 1)).astype(np.int64)


def patch_origins(cells: np.ndarray, grid: tuple[int, int], map_shape, w: int) -> np.ndarray:
    """(n, 2) top-left (x0, y0) of the w-by-w patches centred on flat coarse cells.

    Origins are clamped so every patch lies inside the (d, H, W) map.
    """
    if w % 2:
        raise ValueError("patch width must be even")
    _, height, width = map_shape
    if w > height or w > width:
        raise ValueError(f"patch width {w} exceeds map size {height}x{width}")
    return np.clip(cell_centers(cells, grid) - w // 2, 0, [width - w, height - w])


def local_scores(fine_a: Tensor, fine_b: Tensor, origins_a: np.ndarray, origins_b: np.ndarray,
                 w: int) -> Tensor:
    """(n, w^2, w^2) correlations of the patch pairs at the given origins, scaled by 1/sqrt(d).

    Patch pixels are numbered row-major; each image's patches come from one gather.
    """
    dy, dx = np.divmod(np.arange(w * w), w)
    d = fine_a.shape[0]
    # chained so no unscaled or untransposed copy outlives its use; the scale
    # folds into the small A operand, saving a pass over the scores
    ta = T.gather_nd(fine_a, (slice(None), origins_a[:, 1:] + dy, origins_a[:, :1] + dx)).transpose((1, 2, 0))
    ta = ta * (1.0 / math.sqrt(d))
    tb = T.gather_nd(fine_b, (slice(None), origins_b[:, 1:] + dy, origins_b[:, :1] + dx)).transpose((1, 0, 2))
    return T.matmul(ta, tb)


def stage1_pixels(scores: np.ndarray, origins_a: np.ndarray,
                  origins_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-scoring mutual pixel pair of each (w^2, w^2) local score matrix.

    The global argmax of a matrix is always mutual, so this is the argmax of
    the flattened matrix, ties broken toward the smallest row-major flat
    index. Returns (n, 2) integer (x, y) pixels in A and in B, and the (n,)
    scores.
    """
    n, w2, _ = scores.shape
    w = math.isqrt(w2)
    flat = scores.reshape(n, -1).argmax(axis=1)
    idx_a, idx_b = np.divmod(flat, w2)
    ar, ac = np.divmod(idx_a, w)
    br, bc = np.divmod(idx_b, w)
    pixels_a = origins_a + np.stack([ac, ar], axis=1)
    pixels_b = origins_b + np.stack([bc, br], axis=1)
    return pixels_a, pixels_b, scores.reshape(n, -1)[np.arange(n), flat]


def stage2_windows(fine_b: Tensor, pixels_b: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """(n, d, 9) 3x3 windows of fine_b around (n, 2) integer (x, y) pixels, and their (n, 9) in-image mask.

    Out-of-image cells are read from the nearest in-image pixel; the mask
    marks them so stage2_offsets pushes them to -inf before the softmax.
    """
    _, height, width = fine_b.shape
    xs = pixels_b[:, :1] + _OFFSET_GRID[:, 0]
    ys = pixels_b[:, 1:] + _OFFSET_GRID[:, 1]
    masks = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    windows = T.gather_nd(fine_b, (slice(None), ys.clip(0, height - 1), xs.clip(0, width - 1)))
    return windows.transpose((1, 0, 2)), masks


def stage2_offsets(feats_a: Tensor, windows: Tensor, masks: np.ndarray) -> Tensor:
    """Softmax-expectation offsets in [-1, 1]^2, differentiable.

    feats_a is (n, d), windows is (n, d, 9); out-of-image cells are masked
    to a large negative logit so the expectation stays inside the image.
    """
    n, d = feats_a.shape
    if not masks.any(axis=1).all():
        raise ValueError("a refinement window has no valid cell")
    scores = T.matmul(feats_a.reshape((n, 1, d)), windows).reshape((n, 9)) * (1.0 / math.sqrt(d))
    bias = np.where(masks, 0.0, -1e30)
    probs = T.softmax(scores + T.tensor(bias, dtype=scores.dtype), axis=1)
    return T.matmul(probs, T.tensor(_OFFSET_GRID, dtype=probs.dtype))


def stage2_pixel_offsets(fine_a: Tensor, fine_b: Tensor, pixels_a: np.ndarray,
                         pixels_b: np.ndarray) -> Tensor:
    """(n, 2) stage-2 offsets of the B pixels of stage-1 pairs, each given as (n, 2) integer (x, y)."""
    feats = T.gather_nd(fine_a, (slice(None), pixels_a[:, 1], pixels_a[:, 0])).transpose((1, 0))
    windows, masks = stage2_windows(fine_b, pixels_b)
    return stage2_offsets(feats, windows, masks)


def refine(matches: list[CoarseMatch], fine_a: Tensor, fine_b: Tensor,
           grid_a: tuple[int, int], grid_b: tuple[int, int], w: int,
           two_stage: bool = True) -> list[FineMatch]:
    """Refine coarse matches to one sub-pixel fine match per distinct stage-1 pixel pair.

    Point A is fixed at the stage-1 pixel; point B adds the stage-2 offset.
    Patches wider than the coarse stride can overlap, so two coarse matches
    may pick the same pixel pair; only the first of them is kept.
    ``two_stage=False`` stops after stage 1 (ablation baseline).
    """
    if not matches:
        return []
    cells = np.array([(m.i, m.j) for m in matches], dtype=np.int64)
    with T.no_grad():
        origins_a = patch_origins(cells[:, 0], grid_a, fine_a.shape, w)
        origins_b = patch_origins(cells[:, 1], grid_b, fine_b.shape, w)
        scores = local_scores(fine_a, fine_b, origins_a, origins_b, w).data
        pixels_a, pixels_b, confidence = stage1_pixels(scores, origins_a, origins_b)
        key = np.ravel_multi_index((pixels_a[:, 1], pixels_a[:, 0], pixels_b[:, 1], pixels_b[:, 0]),
                                   fine_a.shape[1:] + fine_b.shape[1:])
        first = np.sort(np.unique(key, return_index=True)[1])
        pixels_a, pixels_b, confidence = pixels_a[first], pixels_b[first], confidence[first]
        pts_b = pixels_b.astype(np.float64)
        if two_stage:
            pts_b += stage2_pixel_offsets(fine_a, fine_b, pixels_a, pixels_b).data
    return [
        FineMatch((xa, ya), (xb, yb), c)
        for (xa, ya), (xb, yb), c in zip(pixels_a.tolist(), pts_b.tolist(), confidence.tolist())
    ]
