"""End-to-end matcher: backbone -> transform -> coarse match -> refinement.

The Matcher owns every parameter tensor; inference runs the fused deploy
backbone and reports per-stage wall-clock so the benchmark harness can
mirror the stage decomposition of the timing tables. Where the work is large
enough to gain, the two images' backbone passes (``backbone_pair``) and
their transform block calls (``FeatureTransform.forward``) each run on two
threads through ``lanes.run_pair``; everything later runs on the calling
thread.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .backbone import COARSE_STRIDE, STAGE_STRIDES, Backbone, FeaturePyramid, FusedBackbone, pad_to_multiple
from .lanes import run_pair
from .matching import MODES, CoarseMatch, match_coarse
from .refine import FineFusion, FineMatch, refine
from .tensor import Tensor
from .transform import FeatureTransform


@dataclass
class MatcherConfig:
    widths: tuple[int, ...] = (64, 64, 128, 256)
    blocks: tuple[int, ...] = (1, 2, 4, 14)
    n_layers: int = 4
    n_heads: int = 8
    s: int = 4
    d_fine: int = 64
    fine_patch_width: int = 8
    inv_temperature: float | None = None
    tau: float = 0.2

    def __post_init__(self):
        for key in ("widths", "blocks"):
            values = getattr(self, key)
            if len(values) != len(STAGE_STRIDES) or min(values) < 1:
                raise ValueError(f"{key} needs one value >= 1 for each of the four stages, got {values}")
        require_at_least(self, 0, "n_layers")
        require_at_least(self, 1, "n_heads", "s", "d_fine")
        if self.d_model % self.n_heads or (self.d_model // self.n_heads) % 4:
            raise ValueError(f"n_heads={self.n_heads} must split d_model={self.d_model} into heads "
                             "whose width is a multiple of 4 (2D rotary encoding)")
        if self.fine_patch_width < 2 or self.fine_patch_width % 2:
            raise ValueError(f"fine_patch_width must be even and >= 2, got {self.fine_patch_width}")
        if self.inv_temperature is not None and not 0 < self.inv_temperature < math.inf:
            raise ValueError(f"inv_temperature must be finite and > 0 when set, got {self.inv_temperature}")
        if not 0 <= self.tau <= 1:  # a dual-softmax probability threshold; NaN fails too
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")

    @property
    def d_model(self) -> int:
        return self.widths[-1]

    @classmethod
    def toy(cls) -> "MatcherConfig":
        return cls(widths=(8, 8, 16, 32), blocks=(1, 1, 2, 2), n_layers=2,
                   n_heads=4, s=2, d_fine=16)

    def to_dict(self) -> dict:
        return {
            "widths": ",".join(str(w) for w in self.widths),
            "blocks": ",".join(str(b) for b in self.blocks),
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "s": self.s,
            "d_fine": self.d_fine,
            "fine_patch_width": self.fine_patch_width,
            "inv_temperature": "" if self.inv_temperature is None else self.inv_temperature,
            "tau": self.tau,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatcherConfig":
        values = {}
        for key, value in data.items():
            if key not in cls.__dataclass_fields__:
                raise KeyError(f"unknown matcher config key {key!r}")
            values[key] = parse_setting(key, _MATCHER_PARSERS.get(key, int), value)
        return cls(**values)


_MATCHER_PARSERS = {
    "widths": lambda value: tuple(int(v) for v in str(value).split(",")),
    "blocks": lambda value: tuple(int(v) for v in str(value).split(",")),
    "inv_temperature": lambda value: None if value in ("", None, "none") else float(value),
    "tau": float,
}


def parse_setting(key: str, parse, value):
    """``parse(value)``, with a value that does not parse reported under its key.
    No setting takes a bool (JSON ``true``), and an int setting takes no float (``4.7``)."""
    try:
        if isinstance(value, bool) or parse is int and isinstance(value, float):
            raise TypeError
        return parse(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key}={value!r} is not a valid value") from None


def require_at_least(config, bound, *keys: str) -> None:
    """Raise ``ValueError`` naming the first of ``keys`` whose value is below ``bound`` or not finite."""
    for key in keys:
        value = getattr(config, key)
        if not bound <= value < math.inf:  # NaN fails too
            raise ValueError(f"{key} must be finite and >= {bound}, got {value}")


def normalize_cells(features: Tensor) -> Tensor:
    """Scale each cell's feature vector to norm sqrt(d).

    Correlation scores then become d * cosine similarity, so the configured
    inverse temperature bounds the softmax logits regardless of raw feature
    magnitude.
    """
    d = features.shape[0]
    sq = (features * features).sum(axis=0, keepdims=True)
    return features * (float(np.sqrt(d)) / (sq + 1e-12).sqrt())


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
    def __init__(self, config: MatcherConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        self.backbone = Backbone(config, rng, dtype=dtype)
        self.transform = FeatureTransform(config, rng, dtype=dtype)
        self.fusion = FineFusion(
            d_model=config.d_model, c_quarter=config.widths[2], c_half=config.widths[1],
            d_fine=config.d_fine, rng=rng, dtype=dtype,
        )

    @property
    def inv_temperature(self) -> float:
        if self.config.inv_temperature is not None:
            return self.config.inv_temperature
        return 10.0 / self.config.d_model

    @property
    def fine_patch_width(self) -> int:
        return self.config.fine_patch_width

    def named_tensors(self):
        yield from self.backbone.named_tensors()
        yield from self.transform.named_tensors()
        yield from self.fusion.named_tensors()

    def trainable_parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors() if t.requires_grad]

    def fuse(self) -> FusedBackbone:
        return self.backbone.fuse()

    def match_pair(
        self,
        image_a: np.ndarray,
        image_b: np.ndarray,
        mode: str = "full",
        tau: float | None = None,
        fused: FusedBackbone | None = None,
        two_stage: bool = True,
    ) -> MatchResult:
        """Match two grayscale [0, 1] images end to end (inference path).

        ``two_stage=False`` keeps stage-1 pixel matches only (ablation).
        ``tau`` overrides the config's and is checked by the same rule.
        The two images' backbones, and each transform layer's block calls
        for the two images, may run on two threads (``lanes.run_pair``), so
        ``timings["backbone"]`` and ``timings["transform"]`` are the two
        lanes' joint wall time; every later stage runs on the calling thread.
        Before anything is computed, an image that is not a 2-D array with
        both sides >= 1 raises ``ValueError`` and non-finite pixels raise
        ``NumericError``.
        """
        for name, image in (("image_a", image_a), ("image_b", image_b)):
            if np.ndim(image) != 2 or min(np.shape(image)) < 1:
                raise ValueError(f"{name} must be a 2-D (H, W) array with both sides >= 1, "
                                 f"got shape {np.shape(image)}")
            if not np.isfinite(image).all():
                raise T.NumericError(f"{name} holds non-finite pixels")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        tau = (self.config if tau is None else replace(self.config, tau=tau)).tau
        multiple = COARSE_STRIDE * self.config.s  # coarse grid must divide s too
        padded_a, dims_a = pad_to_multiple(np.asarray(image_a, dtype=self.dtype), multiple)
        padded_b, dims_b = pad_to_multiple(np.asarray(image_b, dtype=self.dtype), multiple)
        timings: dict[str, float] = {}
        with T.no_grad():
            if fused is None:
                fused = self.fuse()
            t0 = time.perf_counter()
            pyr_a, pyr_b = backbone_pair(fused, self.config, padded_a, padded_b)
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
                fine_a = normalize_cells(self.fusion.forward(fa_t, pyr_a.f_quarter, pyr_a.f_half))
                fine_b = normalize_cells(self.fusion.forward(fb_t, pyr_b.f_quarter, pyr_b.f_half))
                t4 = time.perf_counter()
                fine = refine(coarse, fine_a, fine_b, score.grid_a, score.grid_b,
                              w=self.fine_patch_width, two_stage=two_stage)
            t5 = time.perf_counter()
        fine = [m for m in fine if _in_bounds(m, dims_a, dims_b)]
        timings.update(
            backbone=t1 - t0, transform=t2 - t1, coarse_match=t3 - t2,
            fine_fusion=t4 - t3, refinement=t5 - t4, total=t5 - t0,
        )
        return MatchResult(
            coarse=coarse, fine=fine, grid_a=score.grid_a, grid_b=score.grid_b,
            dims_a=dims_a, dims_b=dims_b, mode=mode, timings=timings,
        )


def backbone_macs(config: MatcherConfig, height: int, width: int) -> int:
    """Multiply-adds of one deploy-backbone pass (one 3x3 conv per block) over
    a padded (height, width) image."""
    macs, c_in = 0, 1
    for c_out, n_blocks, stride in zip(config.widths, config.blocks, STAGE_STRIDES):
        height, width = height // stride, width // stride
        macs += 9 * height * width * c_out * (c_in + (n_blocks - 1) * c_out)
        c_in = c_out
    return macs


def backbone_pair(fused: FusedBackbone, config: MatcherConfig, padded_a: np.ndarray,
                  padded_b: np.ndarray) -> tuple[FeaturePyramid, FeaturePyramid]:
    """Both images' feature pyramids, image B on a worker thread when one pass
    over the smaller padded image reaches the pair rule (``lanes.run_pair``)."""

    def pyramid(padded: np.ndarray) -> FeaturePyramid:
        return fused.forward_deploy(T.tensor(padded[None]))

    work = min(backbone_macs(config, *padded.shape) for padded in (padded_a, padded_b))
    return run_pair(lambda: pyramid(padded_a), lambda: pyramid(padded_b), work)


def _valid_cells(padded_shape: tuple[int, int], original: tuple[int, int]) -> np.ndarray | None:
    ph, pw = padded_shape
    oh, ow = original
    if (ph, pw) == (oh, ow):
        return None
    rows = np.arange(ph // COARSE_STRIDE)
    cols = np.arange(pw // COARSE_STRIDE)
    ok_r = (rows + 1) * COARSE_STRIDE <= oh
    ok_c = (cols + 1) * COARSE_STRIDE <= ow
    return (ok_r[:, None] & ok_c[None, :]).reshape(-1)


def _in_bounds(match: FineMatch, dims_a: tuple[int, int], dims_b: tuple[int, int]) -> bool:
    (ha, wa), (hb, wb) = dims_a, dims_b
    xa, ya = match.pt_a
    xb, yb = match.pt_b
    return 0 <= xa < wa and 0 <= ya < ha and 0 <= xb <= wb - 1 and 0 <= yb <= hb - 1
