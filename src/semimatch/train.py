"""Toy end-to-end training on synthetic homography pairs.

Coarse and fine stages train together from scratch with an adaptive-moment
optimizer. Fine supervision teacher-forces the ground-truth coarse pairs so
the local patches always contain signal.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import refine as R
from . import tensor as T
from .backbone import COARSE_STRIDE
from .config import TrainConfig
from .matching import correlate, normalize_cells
from .supervision import (
    EmptySupervisionError,
    GroundTruth,
    build_gt_homography,
    coarse_loss,
    fine_loss_stage1,
    fine_loss_stage2,
    total_loss,
)
from .tensor import Tensor

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class DivergenceError(RuntimeError):
    """The total training loss became non-finite. Any non-finite term makes
    the total non-finite (``0 * inf`` is NaN), so this one check covers all three."""


@dataclass
class LossRow:
    step: int
    l_c: float
    l_f1: float
    l_f2: float
    total: float
    grad_norm: float  # global L2 norm of the step's gradients, before clipping
    step_s: float  # wall time of the step: batch, losses, backward, optimizer


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Moments decay at ``ADAM_BETAS``; ``ADAM_EPS`` guards the division. Decay
    applies to matrices/kernels only; biases and per-channel scales are exempt.
    """

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data, dtype=np.float64) for p in params]
        self.v = [np.zeros_like(p.data, dtype=np.float64) for p in params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self, lr_scale: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETAS
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        lr = self.lr * lr_scale
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
            if self.weight_decay and p.data.ndim >= 2:
                update = update + self.weight_decay * p.data
            p.data = (p.data - lr * update).astype(p.data.dtype)


def clip_gradients(params: list[Tensor], max_norm: float) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def pair_losses(matcher, image_a: np.ndarray, image_b: np.ndarray, h: np.ndarray,
                cfg: TrainConfig, rng: np.random.Generator):
    """Forward pass and the three loss terms for one training pair."""
    multiple = COARSE_STRIDE * matcher.config.s  # unpadded, so the coarse grid must divide s
    if any(side % multiple for side in (*image_a.shape, *image_b.shape)):
        raise ValueError(f"training image sides must be multiples of {multiple} (coarse stride {COARSE_STRIDE} "
                         f"x s={matcher.config.s}), got {image_a.shape} and {image_b.shape}")
    ta = T.tensor(image_a[None, :, :], dtype=matcher.dtype)
    tb = T.tensor(image_b[None, :, :], dtype=matcher.dtype)
    # one fold for both images; recorded, so A then B on this thread
    pyr_a, pyr_b = matcher.backbone.fold().forward_pair(ta, tb)
    fa_t, fb_t = matcher.transform.forward(pyr_a.f_coarse, pyr_b.f_coarse)
    score = correlate(normalize_cells(fa_t), normalize_cells(fb_t), matcher.inv_temperature)
    gt = build_gt_homography(h, image_a.shape, image_b.shape)
    l_c = coarse_loss(score.s, gt)

    fine_a, fine_b = matcher.fine_maps(fa_t, pyr_a, fb_t, pyr_b)
    l_f1, l_f2 = _fine_losses(fine_a, fine_b, gt, matcher.fine_patch_width, cfg, rng)
    return l_c, l_f1, l_f2


def _fine_losses(fine_a: Tensor, fine_b: Tensor, gt: GroundTruth, w: int,
                 cfg: TrainConfig, rng: np.random.Generator):
    n_pairs = len(gt)
    if n_pairs == 0:
        return None, None
    order = np.arange(n_pairs)
    if n_pairs > cfg.max_fine_matches:
        order = rng.choice(n_pairs, size=cfg.max_fine_matches, replace=False)
    cells_a = gt.pairs_a[order]
    origins_a = R.patch_origins(cells_a, gt.grid_a, R.full_shape(fine_a), w)
    origins_b = R.patch_origins(gt.pairs_b[order], gt.grid_b, R.full_shape(fine_b), w)
    scores = R.blended_scores(fine_a, fine_b, origins_a, origins_b, w)

    # stage-1 targets: patch-A center pixel against the rounded warp in B
    centers = R.cell_centers(cells_a, gt.grid_a)
    local_a = centers - origins_a
    target, ok = gt.warp(centers)
    local_b = np.round(target).astype(np.int64) - origins_b
    valid = ok & ((local_b >= 0) & (local_b < w)).all(axis=1)
    idx_a = local_a[:, 1] * w + local_a[:, 0]
    idx_b = np.where(valid, local_b[:, 1] * w + local_b[:, 0], 0)
    try:
        l_f1 = fine_loss_stage1(scores, idx_a, idx_b, valid)
    except EmptySupervisionError:
        l_f1 = None

    # stage-2: supervise the expectation only where the target is reachable
    pixels_a, pixels_b, _ = R.stage1_pixels(scores.data, origins_a, origins_b)
    target, ok = gt.warp(pixels_a)
    keep = np.flatnonzero(ok & (np.abs(target - pixels_b) <= 1.0).all(axis=1))
    if keep.size == 0:
        return l_f1, None
    offsets = R.stage2_pixel_offsets(fine_a, fine_b, pixels_a[keep], pixels_b[keep])
    pred_b = offsets + T.tensor(pixels_b[keep], dtype=offsets.dtype)
    l_f2 = fine_loss_stage2(pred_b, target[keep])
    return l_f1, l_f2


def train_toy(matcher, dataset, cfg: TrainConfig, log=None) -> list[LossRow]:
    """Gradient-descent training; deterministic for a fixed config and seed."""
    params = matcher.trainable_parameters()
    optimizer = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    curve: list[LossRow] = []
    for step in range(cfg.steps):
        start = time.perf_counter()
        lr_scale = min(1.0, (step + 1) / cfg.warmup_steps) if cfg.warmup_steps > 0 else 1.0
        optimizer.zero_grad()
        batch = [dataset[int(i)] for i in rng.integers(0, len(dataset), size=cfg.batch_size)]
        # per term, the pairs that gave it (a fine term may be None); l_c comes from every pair
        terms = zip(*[pair_losses(matcher, image_a, image_b, h, cfg, rng) for image_a, image_b, h in batch])
        l_c, l_f1, l_f2 = (_mean([t for t in term if t is not None]) for term in terms)
        loss = total_loss(l_c, l_f1, l_f2, cfg.weights)
        value = float(loss.data)
        if not math.isfinite(value):
            raise DivergenceError(f"loss became {value} at step {step}")
        loss.backward()
        grad_norm = clip_gradients(params, cfg.clip_norm)
        optimizer.step(lr_scale)
        row = LossRow(step, *(float(t.data if isinstance(t, Tensor) else t) for t in (l_c, l_f1, l_f2)),
                      total=value, grad_norm=grad_norm, step_s=time.perf_counter() - start)
        curve.append(row)
        if log is not None:
            log(row)
    return curve


def _mean(terms):
    """Mean of loss terms, added in order; 0.0 for none."""
    if not terms:
        return 0.0
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out * (1.0 / len(terms))


def loss_curve_csv(curve: list[LossRow]) -> str:
    lines = ["step,l_c,l_f1,l_f2,total,grad_norm,step_ms"]
    for row in curve:
        lines.append(f"{row.step},{row.l_c:.6f},{row.l_f1:.6f},{row.l_f2:.6f},{row.total:.6f},"
                     f"{row.grad_norm:.6f},{1e3 * row.step_s:.3f}")
    return "\n".join(lines) + "\n"
