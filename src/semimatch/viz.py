"""Side-by-side match visualization rendered to a plain RGB array."""
from __future__ import annotations

import numpy as np

from .pipeline import MatchResult

MAX_LINES = 200


def render_matches(image_a: np.ndarray, image_b: np.ndarray, result: MatchResult) -> np.ndarray:
    """Stack the two images horizontally and draw the ``MAX_LINES`` most confident matches.

    Line color runs red (low confidence) to green (high); confidences are
    min-max normalized so the optimized mode's raw scores render too.
    """
    ha, wa = image_a.shape
    hb, wb = image_b.shape
    canvas = np.zeros((max(ha, hb), wa + wb, 3), dtype=np.float32)
    canvas[:ha, :wa] = image_a[:, :, None]
    canvas[:hb, wa:] = image_b[:, :, None]
    matches = sorted(result.fine, key=lambda m: -m.confidence)[:MAX_LINES]
    if not matches:
        return canvas
    confs = np.array([m.confidence for m in matches])
    lo, hi = confs.min(), confs.max()
    norm = (confs - lo) / (hi - lo) if hi > lo else np.ones_like(confs)
    for m, c in zip(matches, norm):
        _draw_line(
            canvas,
            (m.pt_a[0], m.pt_a[1]),
            (m.pt_b[0] + wa, m.pt_b[1]),
            color=(1.0 - c, c, 0.1),
        )
    return canvas


def _draw_line(canvas: np.ndarray, p0, p1, color) -> None:
    n = int(max(abs(p1[0] - p0[0]), abs(p1[1] - p0[1]), 1)) * 2
    xs = np.clip(np.round(np.linspace(p0[0], p1[0], n)).astype(int), 0, canvas.shape[1] - 1)
    ys = np.clip(np.round(np.linspace(p0[1], p1[1], n)).astype(int), 0, canvas.shape[0] - 1)
    canvas[ys, xs] = color
