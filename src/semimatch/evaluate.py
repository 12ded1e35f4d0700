"""Match dumps, synthetic-pair directories and the homography eval report."""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .bench import STAGES
from .geometry import apply_homography, corner_auc, corner_reprojection_error, ransac_homography
from .imageio import atomic_write, load_image
from .pipeline import MatchResult
from .supervision import build_gt_homography

DUMP_SCHEMA = 1


def coarse_precision(matcher, dataset, indices, mode: str = "full", within_cells: int = 1,
                     fused=None) -> tuple[int, int]:
    """(hits, total): predicted coarse matches landing within N cells of GT."""
    fused = matcher.fuse() if fused is None else fused
    hits = total = 0
    for i in indices:
        image_a, image_b, h = dataset[i]
        result = matcher.match_pair(image_a, image_b, mode=mode, fused=fused)
        gt = build_gt_homography(h, image_a.shape, image_b.shape)
        gt_map = dict(zip(gt.pairs_a.tolist(), gt.pairs_b.tolist()))
        cols = result.grid_b[1]
        for m in result.coarse:
            target = gt_map.get(m.i)
            if target is None:
                continue
            pr, pc = divmod(m.j, cols)
            tr, tc = divmod(target, cols)
            total += 1
            hits += abs(pr - tr) <= within_cells and abs(pc - tc) <= within_cells
    return hits, total


def fine_match_errors(matcher, dataset, indices, mode: str = "full", two_stage: bool = True,
                      fused=None) -> np.ndarray:
    """Distances |pt_B - H(pt_A)| in px over every fine match of the pairs."""
    fused = matcher.fuse() if fused is None else fused
    errors = []
    for i in indices:
        image_a, image_b, h = dataset[i]
        result = matcher.match_pair(image_a, image_b, mode=mode, fused=fused, two_stage=two_stage)
        if not result.fine:
            continue
        pts_a = np.array([m.pt_a for m in result.fine], dtype=np.float64)
        pts_b = np.array([m.pt_b for m in result.fine], dtype=np.float64)
        warped, ok = apply_homography(h, pts_a)
        errors.extend(np.sqrt(((warped - pts_b) ** 2).sum(axis=1))[ok].tolist())
    return np.asarray(errors)


def match_dump_csv(result: MatchResult, model: str) -> str:
    ha, wa = result.dims_a
    hb, wb = result.dims_b
    lines = [
        f"# schema={DUMP_SCHEMA}",
        f"# mode={result.mode}",
        f"# model={model}",
        f"# width_a={wa}",
        f"# height_a={ha}",
        f"# width_b={wb}",
        f"# height_b={hb}",
        "x_a,y_a,x_b,y_b,confidence",
    ]
    for m in result.fine:
        lines.append(
            f"{m.pt_a[0]},{m.pt_a[1]},{m.pt_b[0]:.4f},{m.pt_b[1]:.4f},{m.confidence:.6f}"
        )
    return "\n".join(lines) + "\n"


def parse_match_dump(text: str) -> tuple[dict[str, str], np.ndarray]:
    header: dict[str, str] = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key.strip()] = value.strip()
        elif line and not line.startswith("x_a"):
            rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows, dtype=np.float64).reshape(-1, 5)


def write_homography_csv(path: str, h: np.ndarray) -> None:
    atomic_write(path, "".join(",".join(repr(float(v)) for v in row) + "\n"
                               for row in np.asarray(h, dtype=np.float64)))


def read_homography_csv(path: str) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
    h = np.array(rows, dtype=np.float64)
    if h.shape != (3, 3):
        raise ValueError(f"homography file must hold a 3x3 matrix, got {h.shape}")
    return h


def pair_paths(directory: str, index: int) -> tuple[str, str, str]:
    stem = os.path.join(directory, f"pair{index:04d}")
    return f"{stem}_A.pgm", f"{stem}_B.pgm", f"{stem}_H.csv"


def list_pairs(directory: str) -> list[int]:
    indices = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("pair") and name.endswith("_A.pgm"):
            indices.append(int(name[4:-6]))
    return indices


class DirectoryPairs:
    """Dataset view over a synth output directory: (image A, image B, H) per pair."""

    def __init__(self, directory: str):
        self.directory = directory
        self.indices = list_pairs(directory)
        if not self.indices:
            raise FileNotFoundError(f"no pairXXXX_A.pgm files in {directory}")

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i: int):
        path_a, path_b, path_h = pair_paths(self.directory, self.indices[i])
        return load_image(path_a), load_image(path_b), read_homography_csv(path_h)


@dataclass
class EvalReport:
    mode: str
    corner_errors: list[float]
    auc: dict[float, float]
    n_matches: list[int]
    stage_means: dict[str, float] = field(default_factory=dict)

    def csv(self) -> str:
        lines = ["pair,corner_error_px,n_matches"]
        for i, (err, n) in enumerate(zip(self.corner_errors, self.n_matches)):
            lines.append(f"{i},{err:.5f},{n}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [
            f"homography evaluation ({self.mode} mode, {len(self.corner_errors)} pairs)",
            "  AUC@3px  {:.4f}".format(self.auc[3.0]),
            "  AUC@5px  {:.4f}".format(self.auc[5.0]),
            "  AUC@10px {:.4f}".format(self.auc[10.0]),
            f"  median corner error: {np.median(self.corner_errors):.3f} px",
            f"  mean matches per pair: {np.mean(self.n_matches):.1f}",
        ]
        if self.stage_means:
            lines.append("  mean stage times (ms): " + ", ".join(
                f"{k}={1e3 * v:.2f}" for k, v in self.stage_means.items()))
        return "\n".join(lines)


def eval_homography_dir(matcher, directory: str, mode: str = "full",
                        ransac_threshold: float = 3.0, seed: int = 0) -> EvalReport:
    """Match every stored pair, estimate H with RANSAC, report corner AUCs."""
    pairs = DirectoryPairs(directory)
    fused = matcher.fuse()
    corner_errors, n_matches = [], []
    stage_sums = dict.fromkeys((*STAGES, "total"), 0.0)
    for image_a, image_b, h_gt in pairs:
        result = matcher.match_pair(image_a, image_b, mode=mode, fused=fused)
        for stage in stage_sums:
            stage_sums[stage] += result.timings[stage]
        n_matches.append(len(result.fine))
        if len(result.fine) < 4:
            corner_errors.append(float("inf"))
            continue
        src = np.array([m.pt_a for m in result.fine], dtype=np.float64)
        dst = np.array([m.pt_b for m in result.fine], dtype=np.float64)
        try:
            h_est, _ = ransac_homography(src, dst, threshold_px=ransac_threshold, seed=seed)
            corner_errors.append(
                corner_reprojection_error(h_est, h_gt, width=image_a.shape[1], height=image_a.shape[0])
            )
        except ValueError:
            corner_errors.append(float("inf"))
    finite = [min(e, 1e6) for e in corner_errors]
    return EvalReport(
        mode=mode,
        corner_errors=finite,
        auc=corner_auc(finite),
        n_matches=n_matches,
        stage_means={k: v / len(pairs) for k, v in stage_sums.items()},
    )
