"""Homography math, robust estimation and the reprojection-error metric.

Points are (x, y) in pixel coordinates everywhere in this module; a
homography is a 3x3 array normalized so h33 == 1 whenever it is nonzero.
"""
from __future__ import annotations

import math

import numpy as np

AUC_THRESHOLDS_PX = (3.0, 5.0, 10.0)  # the corner-error thresholds of every AUC report
# RANSAC's hypothesis cap, and the probability of having drawn one all-inlier
# sample that the adaptive budget aims for
RANSAC_MAX_ITERS = 10000
RANSAC_CONFIDENCE = 0.999


class DegenerateGeometryError(ValueError):
    """Raised when an estimation problem is rank-deficient."""


def normalize_homography(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64).reshape(3, 3)
    if abs(h[2, 2]) > 1e-12:
        h = h / h[2, 2]
    if abs(np.linalg.det(h)) <= 1e-12:
        raise DegenerateGeometryError("homography is singular")
    return h


def apply_homography(h: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map (N, 2) points through h. Returns (warped, valid).

    Points whose projective depth is ~0 (sent to infinity) are flagged
    invalid and their coordinates are undefined.
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    ones = np.ones((pts.shape[0], 1))
    proj = np.hstack([pts, ones]) @ np.asarray(h, dtype=np.float64).T
    depth = proj[:, 2]
    valid = np.abs(depth) > 1e-12
    safe = np.where(valid, depth, 1.0)
    return proj[:, :2] / safe[:, None], valid


def _hartley_normalization(pts: np.ndarray) -> np.ndarray:
    centroid = pts.mean(axis=0)
    dist = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
    if dist < 1e-12:
        raise DegenerateGeometryError("coincident points")
    s = np.sqrt(2.0) / dist
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def dlt_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Direct linear transform from >= 4 correspondences, Hartley-normalized.

    Exact (up to conditioning) for noise-free inputs; least-squares sense
    otherwise. Raises DegenerateGeometryError for rank-deficient input sets,
    e.g. when the source points are collinear.
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    if src.shape[0] < 4 or src.shape != dst.shape:
        raise ValueError("dlt_homography needs >= 4 point pairs of equal count")
    t_src = _hartley_normalization(src)
    t_dst = _hartley_normalization(dst)
    s, _ = apply_homography(t_src, src)
    d, _ = apply_homography(t_dst, dst)
    a = np.zeros((2 * src.shape[0], 9))
    a[0::2, 0:2] = -s
    a[0::2, 2] = -1.0
    a[0::2, 6:8] = s * d[:, 0:1]
    a[0::2, 8] = d[:, 0]
    a[1::2, 3:5] = -s
    a[1::2, 5] = -1.0
    a[1::2, 6:8] = s * d[:, 1:2]
    a[1::2, 8] = d[:, 1]
    _, sv, vt = np.linalg.svd(a)
    # rank 8 required for a unique (up to scale) solution
    if sv[-2] < 1e-9 * max(sv[0], 1e-30):
        raise DegenerateGeometryError("degenerate correspondence configuration")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h_norm @ t_src
    return normalize_homography(h)


def symmetric_transfer_errors(h: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per-pair max of forward and backward reprojection distance in px."""
    h = np.asarray(h, dtype=np.float64)
    h_inv = np.linalg.inv(h)
    fwd, fwd_ok = apply_homography(h, src)
    bwd, bwd_ok = apply_homography(h_inv, dst)
    err_f = np.sqrt(((fwd - dst) ** 2).sum(axis=1))
    err_b = np.sqrt(((bwd - src) ** 2).sum(axis=1))
    errors = np.maximum(err_f, err_b)
    errors[~(fwd_ok & bwd_ok)] = np.inf
    return errors


def ransac_homography(
    src: np.ndarray,
    dst: np.ndarray,
    *,
    threshold_px: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """4-point RANSAC with symmetric transfer error and an inlier refit.

    Deterministic for a fixed seed; the iteration budget shrinks adaptively
    from ``RANSAC_MAX_ITERS`` as better hypotheses are found. Returns
    (homography, inlier_mask). ``threshold_px`` must be finite and > 0;
    anything else raises ``ValueError``.
    """
    if not 0 < threshold_px < math.inf:  # NaN fails too
        raise ValueError(f"threshold_px must be finite and > 0, got {threshold_px}")
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    n = src.shape[0]
    if n < 4:
        raise ValueError(f"ransac_homography needs >= 4 matches, got {n}")
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = 0
    needed = RANSAC_MAX_ITERS
    it = 0
    while it < min(needed, RANSAC_MAX_ITERS):
        it += 1
        sample = rng.choice(n, size=4, replace=False)
        try:
            h = dlt_homography(src[sample], dst[sample])
        except DegenerateGeometryError:
            continue
        mask = symmetric_transfer_errors(h, src, dst) < threshold_px
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            ratio = count / n
            if ratio >= 1.0:
                break
            denom = np.log(max(1.0 - ratio**4, 1e-12))
            needed = int(np.ceil(np.log(1.0 - RANSAC_CONFIDENCE) / denom))
    if best_mask is None or best_count < 4:
        raise DegenerateGeometryError("no hypothesis reached 4 inliers")
    h = dlt_homography(src[best_mask], dst[best_mask])
    final_mask = symmetric_transfer_errors(h, src, dst) < threshold_px
    if final_mask.sum() >= 4:
        h = dlt_homography(src[final_mask], dst[final_mask])
    else:
        final_mask = best_mask
    return h, final_mask


def corner_reprojection_error(h_est: np.ndarray, h_gt: np.ndarray, width: int, height: int) -> float:
    """Mean distance between the two mappings of image A's four corners."""
    corners = np.array(
        [[0.0, 0.0], [width, 0.0], [width, height], [0.0, height]], dtype=np.float64
    )
    est, ok_e = apply_homography(h_est, corners)
    gt, ok_g = apply_homography(h_gt, corners)
    if not (ok_e.all() and ok_g.all()):
        return float("inf")
    return float(np.sqrt(((est - gt) ** 2).sum(axis=1)).mean())


def corner_auc(errors) -> dict[float, float]:
    """Area under the truncated cumulative error curve, per threshold of ``AUC_THRESHOLDS_PX``.

    Each pair contributes max(0, 1 - err/t); the mean over pairs equals the
    exact area under the empirical CDF clipped at t, normalized to [0, 1].
    """
    errors = np.asarray(list(errors), dtype=np.float64)
    if errors.size == 0:
        raise ValueError("corner_auc needs at least one error value")
    if (errors < 0).any():
        raise ValueError("errors must be nonnegative")
    return {float(t): float(np.clip(1.0 - errors / t, 0.0, 1.0).mean()) for t in AUC_THRESHOLDS_PX}
