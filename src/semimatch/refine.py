"""Fine feature fusion and two-stage sub-pixel match refinement.

Stage 1 picks the best mutual pixel pair inside a local patch (pure argmax,
no spatial averaging); stage 2 moves the point in B by a softmax-expectation
over a 3x3 correlation window, so the final offset is bounded by one pixel
per axis.

The fine map stays at 1/2 resolution. Refinement reads full-resolution
pixels from it through one reader: each pixel is the fixed x2 bilinear blend
of its 1/2-res taps (what ``tensor.bilinear_upsample(fine, 2)`` would hold
there), renormalized to norm sqrt(d). A w-by-w patch is one gather of its
(w/2 + 2)^2 taps and one matmul; a stage-2 pixel or window cell blends 4 taps.
Every match is handled in one batch, so inference (``refine``) and training
(``train._fine_losses``, with gradients) run the same functions.
``local_scores`` and ``stage2_windows`` read a full-resolution map directly;
the tests use them as the reader's oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import COARSE_STRIDE
from .config import MatcherConfig
from .matching import CoarseMatch, normalize_cells
from .params import Params, he_normal
from .tensor import Tensor

# window cell (row r, col c) corresponds to offset (dx, dy) = (c-1, r-1)
_OFFSET_GRID = np.array([[c - 1, r - 1] for r in range(3) for c in range(3)], dtype=np.int64)
# full-res pixel q sits at q/2 - 1/4 on the 1/2-res grid, between taps lo = (q - 1) // 2 and
# lo + 1: an odd q takes _NEAR of lo and _FAR of lo + 1, an even q _FAR of lo and _NEAR of lo + 1
_NEAR, _FAR = 0.75, 0.25


@dataclass
class FineMatch:
    pt_a: tuple[int, int]  # integer pixel in A, (x, y)
    pt_b: tuple[float, float]  # sub-pixel point in B
    confidence: float


class FineFusion:
    """Ladder that lifts transformed 1/8 features to a 1/2-resolution map.

    up x2 -> 1x1-projected skip-add with the 1/4 backbone features -> 3x3
    conv -> up x2 -> skip-add with the 1/2 features -> 3x3 conv. No
    full-resolution map is built: refinement blends the pixels it reads from
    the 1/2-res taps. Only feed-forward convolutions, no attention; every
    width comes from a ``MatcherConfig``.
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
        return T.conv2d(x.relu(), self.conv_out, self.conv_out_bias, pad=1)


def cell_centers(cells: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """(n, 2) integer full-resolution (x, y) centres of flat cells of a (rows, cols) coarse grid."""
    rows, cols = np.divmod(cells, grid[1])
    return np.stack([cols, rows], axis=1) * COARSE_STRIDE + COARSE_STRIDE // 2


def nearest_cells(points: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Flat index of the cell whose centre is nearest each (x, y) point, clamped into the grid."""
    cols, rows = np.round((points - COARSE_STRIDE // 2) / COARSE_STRIDE).T
    return (np.clip(rows, 0, grid[0] - 1) * grid[1] + np.clip(cols, 0, grid[1] - 1)).astype(np.int64)


def full_shape(fine: Tensor) -> tuple[int, int, int]:
    """(d, H, W) of the full-resolution map that a (d, H/2, W/2) fine map stands for."""
    d, height, width = fine.shape
    return d, 2 * height, 2 * width


def patch_origins(cells: np.ndarray, grid: tuple[int, int], map_shape, w: int) -> np.ndarray:
    """(n, 2) top-left (x0, y0) of the w-by-w patches centred on flat coarse cells.

    Origins are clamped so every patch lies inside the (d, H, W) full-resolution
    map, and are even, so a patch starts on a 1/2-res tap (for w = 2 mod 4 an
    interior patch sits one pixel up and left of centre).
    """
    if w % 2:
        raise ValueError("patch width must be even")
    _, height, width = map_shape
    if w > height or w > width:
        raise ValueError(f"patch width {w} exceeds map size {height}x{width}")
    return np.clip(cell_centers(cells, grid) - w // 2, 0, [width - w, height - w]) // 2 * 2


def _blend_weights(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower 1/2-res tap (q - 1) // 2 of full-res coordinates q, unclamped, and its weight;
    the tap above it takes the rest."""
    return (q - 1) // 2, np.where(q % 2 == 1, _NEAR, _FAR)


def _patch_blend_matrix(w: int) -> np.ndarray:
    """(w^2, t^2) weights, t = w/2 + 2, that take a patch's row-major t-by-t
    taps to its row-major w-by-w pixels, for an even origin: kron(R, R) of
    the (w, t) weights R of one row or column."""
    lo, weight = _blend_weights(np.arange(w))
    r = np.zeros((w, w // 2 + 2))
    r[np.arange(w), lo + 1] = weight
    r[np.arange(w), lo + 2] = 1.0 - weight
    return np.kron(r, r)


def _taps(fine: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """(d, *shape) values of a (d, h, w) map at integer (rows, cols) of one
    broadcast shape, clamped into the map, as one gather on the flattened plane."""
    d, height, width = fine.shape
    flat = np.clip(rows, 0, height - 1) * width + np.clip(cols, 0, width - 1)
    return T.gather_nd(fine.reshape((d, height * width)), (slice(None), flat))


def blend_patches(fine: Tensor, origins: np.ndarray, w: int) -> Tensor:
    """(d, n, w^2) renormalized full-res w-by-w patches, row-major, at even
    (n, 2) origins (x0, y0), read from a (d, H/2, W/2) fine map.

    Each patch is one gather of its t-by-t 1/2-res taps (t = w/2 + 2) and one
    matmul with the fixed blend weights.
    """
    taps = np.arange(w // 2 + 2) - 1
    rows, cols = (origins[:, 1:] // 2 + taps)[:, :, None], (origins[:, :1] // 2 + taps)[:, None, :]
    # chained, so the gathered taps are freed once blended
    return normalize_cells(T.linear(_taps(fine, rows, cols).reshape((fine.shape[0], len(origins), -1)),
                                    T.tensor(_patch_blend_matrix(w), dtype=fine.dtype)))


def blend_pixels(fine: Tensor, xs: np.ndarray, ys: np.ndarray) -> Tensor:
    """(d, *xs.shape) renormalized full-res pixels at in-image integer
    coordinates (xs, ys), each the blend of its 4 clamped 1/2-res taps of a
    (d, H/2, W/2) fine map."""
    lo_y, wy = _blend_weights(ys)
    lo_x, wx = _blend_weights(xs)
    # taps on two leading axes (row, col), so the blend sums whole slabs
    rows = np.stack([lo_y, lo_y + 1])[:, None]
    cols = np.stack([lo_x, lo_x + 1])[None]
    weights = np.stack([wy, 1.0 - wy])[:, None] * np.stack([wx, 1.0 - wx])[None]
    return normalize_cells((_taps(fine, rows, cols) * T.tensor(weights, dtype=fine.dtype)).sum(axis=(1, 2)))


def _scaled_rows(patches: Tensor) -> Tensor:
    """(n, w^2, d) of (d, n, w^2) patches, scaled by 1/sqrt(d): the A operand of
    the patch correlations, where the scale costs a pass over the patches
    rather than over the scores."""
    return patches.transpose((1, 2, 0)) * (1.0 / math.sqrt(patches.shape[0]))


def blended_scores(fine_a: Tensor, fine_b: Tensor, origins_a: np.ndarray, origins_b: np.ndarray,
                   w: int) -> Tensor:
    """``local_scores`` of the renormalized full-res patches at the given even
    origins, read from (d, H/2, W/2) fine maps by ``blend_patches``."""
    # A's patches are freed once scaled, before B's are read
    ta = _scaled_rows(blend_patches(fine_a, origins_a, w))
    return T.matmul(ta, blend_patches(fine_b, origins_b, w).transpose((1, 0, 2)))


def local_scores(fine_a: Tensor, fine_b: Tensor, origins_a: np.ndarray, origins_b: np.ndarray,
                 w: int) -> Tensor:
    """(n, w^2, w^2) correlations of the patch pairs of full-res (d, H, W) maps
    at the given origins, scaled by 1/sqrt(d).

    Patch pixels are numbered row-major; each image's patches come from one gather.
    """
    dy, dx = np.divmod(np.arange(w * w), w)
    ta = _scaled_rows(T.gather_nd(fine_a, (slice(None), origins_a[:, 1:] + dy, origins_a[:, :1] + dx)))
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


def _window_cells(pixels: np.ndarray, height: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, 9) x and y of the 3x3 windows around (n, 2) integer (x, y) pixels of a
    (height, width) image, each clamped to the nearest in-image pixel, and the
    (n, 9) mask of the cells that were in the image."""
    xs = pixels[:, :1] + _OFFSET_GRID[:, 0]
    ys = pixels[:, 1:] + _OFFSET_GRID[:, 1]
    masks = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    return xs.clip(0, width - 1), ys.clip(0, height - 1), masks


def stage2_windows(fine_b: Tensor, pixels_b: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """(n, d, 9) 3x3 windows of a full-res fine_b around (n, 2) integer (x, y) pixels, and their (n, 9) in-image mask.

    Out-of-image cells are read from the nearest in-image pixel; the mask
    marks them so stage2_offsets pushes them to -inf before the softmax.
    """
    xs, ys, masks = _window_cells(pixels_b, *fine_b.shape[1:])
    return T.gather_nd(fine_b, (slice(None), ys, xs)).transpose((1, 0, 2)), masks


def blended_windows(fine_b: Tensor, pixels_b: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """``stage2_windows`` of the renormalized full-res map, read from a
    (d, H/2, W/2) fine_b by ``blend_pixels``."""
    xs, ys, masks = _window_cells(pixels_b, *full_shape(fine_b)[1:])
    return blend_pixels(fine_b, xs, ys).transpose((1, 0, 2)), masks


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
    """(n, 2) stage-2 offsets of the B pixels of stage-1 pairs, each given as
    (n, 2) integer full-res (x, y), read from (d, H/2, W/2) fine maps."""
    feats = blend_pixels(fine_a, pixels_a[:, 0], pixels_a[:, 1]).transpose((1, 0))
    return stage2_offsets(feats, *blended_windows(fine_b, pixels_b))


def refine(matches: list[CoarseMatch], fine_a: Tensor, fine_b: Tensor,
           grid_a: tuple[int, int], grid_b: tuple[int, int], w: int,
           two_stage: bool = True) -> list[FineMatch]:
    """Refine coarse matches to one sub-pixel fine match per distinct stage-1 pixel pair.

    fine_a and fine_b are the (d, H/2, W/2) normalized fine maps; points are
    full-resolution pixels. Point A is fixed at the stage-1 pixel; point B
    adds the stage-2 offset.
    Patches wider than the coarse stride can overlap, so two coarse matches
    may pick the same pixel pair; only the first of them is kept.
    ``two_stage=False`` stops after stage 1 (ablation baseline).
    """
    if not matches:
        return []
    cells = np.array([(m.i, m.j) for m in matches], dtype=np.int64)
    with T.no_grad():
        shape_a, shape_b = full_shape(fine_a), full_shape(fine_b)
        origins_a = patch_origins(cells[:, 0], grid_a, shape_a, w)
        origins_b = patch_origins(cells[:, 1], grid_b, shape_b, w)
        scores = blended_scores(fine_a, fine_b, origins_a, origins_b, w).data
        pixels_a, pixels_b, confidence = stage1_pixels(scores, origins_a, origins_b)
        key = np.ravel_multi_index((pixels_a[:, 1], pixels_a[:, 0], pixels_b[:, 1], pixels_b[:, 0]),
                                   shape_a[1:] + shape_b[1:])
        first = np.sort(np.unique(key, return_index=True)[1])
        pixels_a, pixels_b, confidence = pixels_a[first], pixels_b[first], confidence[first]
        pts_b = pixels_b.astype(np.float64)
        if two_stage:
            pts_b += stage2_pixel_offsets(fine_a, fine_b, pixels_a, pixels_b).data
    return [
        FineMatch((xa, ya), (xb, yb), c)
        for (xa, ya), (xb, yb), c in zip(pixels_a.tolist(), pts_b.tolist(), confidence.tolist())
    ]
