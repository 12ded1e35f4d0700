"""End-to-end matcher: backbone -> transform -> coarse match -> refinement.

The Matcher owns every parameter tensor; inference runs the fused deploy
backbone and reports per-stage wall-clock in ``MatchResult.timings``, which
``evaluate.StageTimings`` summarizes for ``semimatch bench`` and
``semimatch eval-homography``. Where the work is large enough to gain, the
two images' backbone passes (``FusedBackbone.forward_pair``), their
transform block calls (``FeatureTransform.forward``) and their fine fusion
(``Matcher.fine_maps``) each run on two threads, each stage choosing
through ``lanes.pairs`` with its own threshold; such a stage's timing is the
two lanes' joint wall time. Coarse matching and refinement run on the
calling thread. The fine stage stops at 1/2 resolution: no full-resolution
fine map is built.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import lanes
from . import tensor as T
from .backbone import COARSE_STRIDE, Backbone, FeaturePyramid, FusedBackbone, pad_to_multiple
from .config import MatcherConfig
from .matching import MODES, CoarseMatch, match_coarse, normalize_cells
from .params import Params, WeightFormatError
from .refine import FineFusion, FineMatch, cell_centers, refine
from .tensor import Tensor
from .transform import FeatureTransform


@dataclass
class MatchResult:
    coarse: list[CoarseMatch]
    fine: list[FineMatch]
    grid_a: tuple[int, int]
    grid_b: tuple[int, int]
    dims_a: tuple[int, int]  # original (height, width), pre-padding
    dims_b: tuple[int, int]
    mode: str
    timings: dict[str, float] = field(default_factory=dict)


class Matcher:
    def __init__(self, config: MatcherConfig, seed: int, dtype=np.float32):
        """Every tensor drawn from the ``seed`` generator, in the order made."""
        self._build(config, Params(dtype, np.random.default_rng(seed), None))

    @classmethod
    def from_arrays(cls, config: MatcherConfig, arrays: dict[str, np.ndarray], dtype) -> Matcher:
        """Every tensor taken from ``arrays`` (name -> array), with no draw (``Params``
        checks each); a name that no tensor takes raises ``WeightFormatError``."""
        params = Params(dtype, None, dict(arrays))
        matcher = cls.__new__(cls)
        matcher._build(config, params)
        if params.arrays:
            raise WeightFormatError(f"container has unknown tensors: {sorted(params.arrays)[:5]}")
        return matcher

    def _build(self, config: MatcherConfig, params: Params) -> None:
        self.config, self.dtype, self.params = config, params.dtype, params
        self.backbone = Backbone(config, params.scope("backbone"))
        self.transform = FeatureTransform(config, params.scope("transform"))
        self.fusion = FineFusion(config, params.scope("fine_fusion"))

    @property
    def inv_temperature(self) -> float:
        if self.config.inv_temperature is not None:
            return self.config.inv_temperature
        return 10.0 / self.config.d_model

    @property
    def fine_patch_width(self) -> int:
        return self.config.fine_patch_width

    def named_tensors(self):
        """(name, tensor) of every tensor, in the order made."""
        return self.params.tensors.items()

    def trainable_parameters(self) -> list[Tensor]:
        return [t for t in self.params.tensors.values() if t.requires_grad]

    def fuse(self) -> FusedBackbone:
        return self.backbone.fuse()

    def fine_maps(self, fa_t: Tensor, pyr_a: FeaturePyramid, fb_t: Tensor,
                  pyr_b: FeaturePyramid) -> tuple[Tensor, Tensor]:
        """Both images' normalized (d_fine, H/2, W/2) fine maps from their
        transformed coarse maps and backbone pyramids; refinement reads
        full-resolution pixels from them as blends of their taps
        (``refine.blend_patches``). Image B's runs on a worker thread when one
        fusion over the smaller coarse grid (``FineFusion.macs``) reaches the
        pair rule (``lanes.pairs``) at ``lanes.IN_ORDER_MACS``."""
        work = self.fusion.macs(*min(fa_t.shape[1:], fb_t.shape[1:], key=math.prod))
        with lanes.pairs(work, lanes.IN_ORDER_MACS) as run:
            fine_a, fine_b = run(lambda: normalize_cells(self.fusion.forward(fa_t, pyr_a.f_quarter, pyr_a.f_half)),
                                 lambda: normalize_cells(self.fusion.forward(fb_t, pyr_b.f_quarter, pyr_b.f_half)))
        return fine_a, fine_b

    def match_pair(
        self,
        image_a: np.ndarray,
        image_b: np.ndarray,
        mode: str,
        tau: float | None = None,
        fused: FusedBackbone | None = None,
        two_stage: bool = True,
    ) -> MatchResult:
        """Match two grayscale [0, 1] images end to end (inference path).

        ``two_stage=False`` keeps stage-1 pixel matches only (ablation).
        ``tau`` overrides the config's and is checked by the same rule; it
        applies to full mode only, so passing it with ``mode="optimized"``
        (which keeps every mutual nearest neighbour) raises ``ValueError``.
        The two images' backbones, each transform layer's block calls for
        the two images and the two images' fine fusion may run on two threads
        (``lanes.pairs``), so ``timings["backbone"]``, ``timings["transform"]``
        and ``timings["fine_fusion"]`` are the two lanes' joint wall time;
        coarse matching and refinement run on the calling thread.
        Before anything is computed, an image that is not a 2-D array with
        both sides >= 1 raises ``ValueError``, non-finite pixels raise
        ``NumericError`` and then pixels outside [0, 1] raise ``ValueError``.
        """
        for name, image in (("image_a", image_a), ("image_b", image_b)):
            if np.ndim(image) != 2 or min(np.shape(image)) < 1:
                raise ValueError(f"{name} must be a 2-D (H, W) array with both sides >= 1, "
                                 f"got shape {np.shape(image)}")
            if not np.isfinite(image).all():
                raise T.NumericError(f"{name} holds non-finite pixels")
            low, high = np.min(image), np.max(image)
            if low < 0 or high > 1:
                raise ValueError(f"{name} has pixels in [{low}, {high}], outside [0, 1]: divide 8-bit pixels by 255")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if tau is not None and mode == "optimized":
            raise ValueError("tau applies to mode='full'; optimized mode keeps every mutual nearest neighbour")
        tau = (self.config if tau is None else replace(self.config, tau=tau)).tau
        multiple = COARSE_STRIDE * self.config.s  # coarse grid must divide s too
        padded_a, dims_a = pad_to_multiple(np.asarray(image_a, dtype=self.dtype), multiple)
        padded_b, dims_b = pad_to_multiple(np.asarray(image_b, dtype=self.dtype), multiple)
        with T.no_grad():
            if fused is None:
                fused = self.fuse()
            t0 = time.perf_counter()
            pyr_a, pyr_b = fused.forward_pair(T.tensor(padded_a[None]), T.tensor(padded_b[None]))
            t1 = time.perf_counter()
            fa_t, fb_t = self.transform.forward(pyr_a.f_coarse, pyr_b.f_coarse)
            t2 = time.perf_counter()
            coarse, score = match_coarse(
                normalize_cells(fa_t), normalize_cells(fb_t),
                mode=mode, tau=tau, inv_temperature=self.inv_temperature,
                valid_a=_valid_cells(padded_a.shape, dims_a),
                valid_b=_valid_cells(padded_b.shape, dims_b),
            )
            t3 = t4 = time.perf_counter()
            fine: list[FineMatch] = []
            if coarse:  # the fine maps are only read to refine coarse matches
                fine_a, fine_b = self.fine_maps(fa_t, pyr_a, fb_t, pyr_b)
                t4 = time.perf_counter()
                fine = refine(coarse, fine_a, fine_b, score.grid_a, score.grid_b,
                              w=self.fine_patch_width, two_stage=two_stage)
            t5 = time.perf_counter()
        fine = [m for m in fine if _in_bounds(m, dims_a, dims_b)]
        timings = dict(
            backbone=t1 - t0, transform=t2 - t1, coarse_match=t3 - t2,
            fine_fusion=t4 - t3, refinement=t5 - t4, total=t5 - t0,
        )
        return MatchResult(
            coarse=coarse, fine=fine, grid_a=score.grid_a, grid_b=score.grid_b,
            dims_a=dims_a, dims_b=dims_b, mode=mode, timings=timings,
        )


def _valid_cells(padded_shape: tuple[int, int], original: tuple[int, int]) -> np.ndarray | None:
    ph, pw = padded_shape
    oh, ow = original
    if (ph, pw) == (oh, ow):
        return None
    grid = (ph // COARSE_STRIDE, pw // COARSE_STRIDE)
    # a cell is valid when it ends inside the unpadded image on both axes
    x_end, y_end = (cell_centers(np.arange(grid[0] * grid[1]), grid) + COARSE_STRIDE // 2).T
    return (x_end <= ow) & (y_end <= oh)


def _in_bounds(match: FineMatch, dims_a: tuple[int, int], dims_b: tuple[int, int]) -> bool:
    (ha, wa), (hb, wb) = dims_a, dims_b
    xa, ya = match.pt_a
    xb, yb = match.pt_b
    return 0 <= xa < wa and 0 <= ya < ha and 0 <= xb <= wb - 1 and 0 <= yb <= hb - 1
