"""Synthetic training pairs: multi-scale noise textures under random warps.

Each pair is rendered from one oversized texture so image B rarely samples
outside known content; B additionally gets photometric jitter. Generation
is deterministic per (seed, index).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import apply_homography, normalize_homography

# the random warp's ranges; every benchmark input and the toy weights' training data use them
SCALE_RANGE = (0.7, 1.4)
ROTATION_MAX_DEG = 15.0
PERSPECTIVE_MAX_DEG = 15.0
TRANSLATION_FRAC = 0.08  # of the image side
MARGIN_FRAC = 0.4  # texture border around A, of the image side, that B may sample
# B's photometric jitter: gain * B + bias + Gaussian noise
GAIN_RANGE = (0.85, 1.15)
BIAS_MAX = 0.08
NOISE_SIGMA = 0.01


@dataclass
class SynthConfig:
    """Image side; the warp and the jitter are fixed above."""
    size: int = 64


def bilinear_sample(image: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample image at float coordinates; outside points return 0."""
    h, w = image.shape
    inside = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)
    x = np.clip(xs, 0, w - 1)
    y = np.clip(ys, 0, h - 1)
    x0 = np.floor(x).astype(int)
    y0 = np.floor(y).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    tx = x - x0
    ty = y - y0
    out = (
        image[y0, x0] * (1 - ty) * (1 - tx)
        + image[y0, x1] * (1 - ty) * tx
        + image[y1, x0] * ty * (1 - tx)
        + image[y1, x1] * ty * tx
    )
    return np.where(inside, out, 0.0)


def _upscale(grid: np.ndarray, size: int) -> np.ndarray:
    gh, gw = grid.shape
    ys = np.linspace(0, gh - 1, size)
    xs = np.linspace(0, gw - 1, size)
    return bilinear_sample(grid, *np.meshgrid(xs, ys))


def make_texture(rng: np.random.Generator, size: int) -> np.ndarray:
    """Value noise summed over octaves, normalized to [0, 1]."""
    out = np.zeros((size, size))
    amplitude = 1.0
    cells = 4
    while cells <= size:
        out += amplitude * _upscale(rng.random((cells, cells)), size)
        amplitude *= 0.55
        cells *= 2
    out -= out.min()
    peak = out.max()
    if peak > 0:
        out /= peak
    return out


def random_homography(rng: np.random.Generator, size: int) -> np.ndarray:
    """Similarity + perspective jitter about the frame center.

    A final corrective scale pulls the warped frame corners inside the
    image, so nearly every A cell keeps a valid partner in B.
    """
    theta = math.radians(rng.uniform(-ROTATION_MAX_DEG, ROTATION_MAX_DEG))
    scale = math.exp(rng.uniform(math.log(SCALE_RANGE[0]), math.log(SCALE_RANGE[1])))
    tx, ty = rng.uniform(-TRANSLATION_FRAC, TRANSLATION_FRAC, size=2) * size
    c, s = math.cos(theta), math.sin(theta)
    similarity = np.array(
        [[scale * c, -scale * s, tx], [scale * s, scale * c, ty], [0.0, 0.0, 1.0]]
    )
    tilt = math.tan(math.radians(PERSPECTIVE_MAX_DEG))
    px, py = rng.uniform(-tilt, tilt, size=2) / size
    perspective = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [px, py, 1.0]])
    center = np.array([[1.0, 0.0, size / 2], [0.0, 1.0, size / 2], [0.0, 0.0, 1.0]])
    uncenter = center.copy()
    uncenter[:2, 2] *= -1
    h = center @ perspective @ similarity @ uncenter
    return _fit_corners(normalize_homography(h), size)


def _fit_corners(h: np.ndarray, size: int, margin: float = 0.02) -> np.ndarray:
    corners = np.array([[0, 0], [size, 0], [size, size], [0, size]], dtype=np.float64)
    warped, _ = apply_homography(h, corners)
    center = np.array([size / 2, size / 2])
    spread = np.abs(warped - center).max()
    limit = size / 2 * (1.0 - margin)
    if spread <= limit:
        return h
    shrink = limit / spread
    fix = np.array(
        [[shrink, 0.0, center[0] * (1 - shrink)], [0.0, shrink, center[1] * (1 - shrink)], [0.0, 0.0, 1.0]]
    )
    return normalize_homography(fix @ h)


def render_pair(seed: int, index: int, cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic (image_a, image_b, homography) triple for (seed, index)."""
    rng = np.random.default_rng([seed, index])
    size = cfg.size
    margin = int(round(MARGIN_FRAC * size))
    texture = make_texture(rng, size + 2 * margin)
    image_a = texture[margin:margin + size, margin:margin + size].copy()
    h = random_homography(rng, size)
    h_inv = np.linalg.inv(h)
    ys, xs = np.meshgrid(np.arange(size, dtype=np.float64), np.arange(size, dtype=np.float64), indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    src, _ = apply_homography(h_inv, pts)
    image_b = bilinear_sample(texture, src[:, 0] + margin, src[:, 1] + margin).reshape(size, size)
    gain = rng.uniform(*GAIN_RANGE)
    bias = rng.uniform(-BIAS_MAX, BIAS_MAX)
    image_b = gain * image_b + bias + rng.normal(0.0, NOISE_SIGMA, image_b.shape)
    return image_a.astype(np.float32), np.clip(image_b, 0.0, 1.0).astype(np.float32), h


class SyntheticPairs:
    """Indexable stream of rendered pairs, deterministic per (seed, index)."""

    def __init__(self, count: int, seed: int = 0, cfg: SynthConfig = SynthConfig()):
        self.count = count
        self.seed = seed
        self.cfg = cfg

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not 0 <= index < self.count:
            raise IndexError(index)
        return render_pair(self.seed, index, self.cfg)
