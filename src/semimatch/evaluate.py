"""Evaluation and timing reports, match dumps and synthetic-pair directories.

Every report (``coarse_precision``, ``fine_match_errors``,
``eval_homography_dir``, ``bench_pipeline``) matches its pairs through one
loop, ``_match_pairs``, which fuses the backbone once; ``bench_pipeline``
and ``eval_homography_dir`` summarize their results' per-stage wall-clock
with ``StageTimings.of``. Within one ``match_pair`` the two images'
backbone, transform and fine fusion may run on two threads
(``lanes.pairs``), and a stage's time is then their joint wall time.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .geometry import AUC_THRESHOLDS_PX, apply_homography, corner_auc, corner_reprojection_error, ransac_homography
from .imageio import atomic_write, check_image, load_image
from .pipeline import MatchResult
from .supervision import build_gt_homography

DUMP_SCHEMA = 1
RANSAC_THRESHOLD_PX = 3.0
STAGES = ("backbone", "transform", "coarse_match", "fine_fusion", "refinement")


@dataclass
class StageTimings:
    mode: str
    repetitions: int
    mean: dict[str, float]
    median: dict[str, float]

    @classmethod
    def of(cls, results: list[MatchResult]) -> "StageTimings":
        """Per-stage (and total) means and medians, in seconds, over match results of one mode."""
        samples = {stage: [r.timings[stage] for r in results] for stage in (*STAGES, "total")}
        return cls(
            mode=results[0].mode,
            repetitions=len(results),
            mean={k: float(np.mean(v)) for k, v in samples.items()},
            median={k: float(np.median(v)) for k, v in samples.items()},
        )

    def summary(self) -> str:
        lines = [f"pipeline timings ({self.mode} mode, {self.repetitions} reps), ms:"]
        for stage in (*STAGES, "total"):
            lines.append(
                f"  {stage:<12} mean {1e3 * self.mean[stage]:8.3f}   median {1e3 * self.median[stage]:8.3f}"
            )
        return "\n".join(lines)


def timings_csv(timings: StageTimings) -> str:
    lines = ["stage,mean_ms,median_ms"]
    for stage in (*STAGES, "total"):
        lines.append(f"{stage},{1e3 * timings.mean[stage]:.4f},{1e3 * timings.median[stage]:.4f}")
    return "\n".join(lines) + "\n"


def _match_pairs(matcher, pairs, mode: str, two_stage: bool = True):
    """Match each (image A, image B, H) of ``pairs`` with one fused backbone; yield (result, H)."""
    fused = matcher.fuse()
    for image_a, image_b, h in pairs:
        yield matcher.match_pair(image_a, image_b, mode=mode, fused=fused, two_stage=two_stage), h


def _fine_points(result: MatchResult) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst): the (n, 2) float64 fine-match points in A and in B."""
    src = np.array([m.pt_a for m in result.fine], dtype=np.float64).reshape(-1, 2)
    dst = np.array([m.pt_b for m in result.fine], dtype=np.float64).reshape(-1, 2)
    return src, dst


def bench_pipeline(matcher, image_a: np.ndarray, image_b: np.ndarray, *, mode: str,
                   repetitions: int, warmup: int) -> StageTimings:
    """Stage timings of ``repetitions`` matches of one pair, after ``warmup`` discarded ones."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    runs = _match_pairs(matcher, [(image_a, image_b, None)] * (warmup + repetitions), mode)
    return StageTimings.of([result for result, _ in runs][warmup:])


def coarse_precision(matcher, dataset, indices, mode: str) -> tuple[int, int]:
    """(hits, total): predicted coarse matches landing within one cell of GT, per axis.

    A match's cells are read on its own (padded) grids, ground truth on the
    unpadded ones; a match whose A cell has no ground-truth partner is not scored.
    """
    hits = total = 0
    for result, h in _match_pairs(matcher, (dataset[i] for i in indices), mode):
        gt = build_gt_homography(h, result.dims_a, result.dims_b)
        gt_cells = {divmod(a, gt.grid_a[1]): divmod(b, gt.grid_b[1])  # (row, col) in A -> in B
                    for a, b in zip(gt.pairs_a.tolist(), gt.pairs_b.tolist())}
        for m in result.coarse:
            target = gt_cells.get(divmod(m.i, result.grid_a[1]))
            if target is None:
                continue
            pr, pc = divmod(m.j, result.grid_b[1])
            total += 1
            hits += abs(pr - target[0]) <= 1 and abs(pc - target[1]) <= 1
    return hits, total


def fine_match_errors(matcher, dataset, indices, mode: str, two_stage: bool) -> np.ndarray:
    """Distances |pt_B - H(pt_A)| in px over every fine match of the pairs."""
    errors = []
    for result, h in _match_pairs(matcher, (dataset[i] for i in indices), mode, two_stage):
        src, dst = _fine_points(result)
        warped, ok = apply_homography(h, src)
        errors.extend(np.sqrt(((warped - dst) ** 2).sum(axis=1))[ok].tolist())
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


def write_homography_csv(path: str, h: np.ndarray) -> None:
    atomic_write(path, "".join(",".join(repr(float(v)) for v in row) + "\n"
                               for row in np.asarray(h, dtype=np.float64)))


def read_homography_csv(path: str) -> np.ndarray:
    """The 3x3 matrix in ``path``; a ``ValueError`` names the file (and the line that is not three numbers)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    row = [float(v) for v in line.split(",")]
                except ValueError:
                    row = []
                if len(row) != 3:
                    raise ValueError(f"homography file {path} line {lineno}: {line!r} is not 3 comma-separated numbers")
                rows.append(row)
    h = np.array(rows, dtype=np.float64)
    if h.shape != (3, 3):
        raise ValueError(f"homography file {path} must hold a 3x3 matrix, got {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError(f"homography file {path} holds non-finite entries")
    return h


def pair_paths(directory: str, index: int) -> tuple[str, str, str]:
    stem = os.path.join(directory, f"pair{index:04d}")
    return f"{stem}_A.pgm", f"{stem}_B.pgm", f"{stem}_H.csv"


def list_pairs(directory: str) -> list[int]:
    """Indices of the A images in ``directory`` named as ``pair_paths`` names them; other files are ignored."""
    names = (re.fullmatch(r"pair(\d{4}|[1-9]\d{4,})_A\.pgm", name) for name in os.listdir(directory))
    return sorted(int(m[1]) for m in names if m)


class DirectoryPairs:
    """Dataset view over a synth output directory: (image A, image B, H) per pair.

    Every image's header and payload size and every H file are read and
    checked here, so a missing or bad file fails, named, before any pair is used."""

    def __init__(self, directory: str):
        self.directory = directory
        self.indices = list_pairs(directory)
        if not self.indices:
            raise FileNotFoundError(f"no pairXXXX_A.pgm files in {directory}")
        for i in self.indices:
            for path in pair_paths(directory, i)[:2]:
                check_image(path)
        self.homographies = [read_homography_csv(pair_paths(directory, i)[2]) for i in self.indices]

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i: int):
        path_a, path_b, _ = pair_paths(self.directory, self.indices[i])
        return load_image(path_a), load_image(path_b), self.homographies[i]


@dataclass
class EvalReport:
    corner_errors: list[float]
    auc: dict[float, float]
    n_matches: list[int]
    timings: StageTimings

    def csv(self) -> str:
        lines = ["pair,corner_error_px,n_matches"]
        for i, (err, n) in enumerate(zip(self.corner_errors, self.n_matches)):
            lines.append(f"{i},{err:.5f},{n}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        return "\n".join([
            f"homography evaluation ({self.timings.mode} mode, {len(self.corner_errors)} pairs)",
            *(f"  {f'AUC@{t:g}px':<9}{self.auc[t]:.4f}" for t in AUC_THRESHOLDS_PX),
            f"  median corner error: {np.median(self.corner_errors):.3f} px",
            f"  mean matches per pair: {np.mean(self.n_matches):.1f}",
            "  mean stage times (ms): " + ", ".join(f"{k}={1e3 * v:.2f}" for k, v in self.timings.mean.items()),
        ])


def eval_homography_dir(matcher, directory: str, mode: str, seed: int) -> EvalReport:
    """Match every stored pair, estimate H with RANSAC (``RANSAC_THRESHOLD_PX``), report corner AUCs."""
    results, corner_errors = [], []
    for result, h_gt in _match_pairs(matcher, DirectoryPairs(directory), mode):
        results.append(result)
        src, dst = _fine_points(result)
        height, width = result.dims_a
        try:
            h_est, _ = ransac_homography(src, dst, threshold_px=RANSAC_THRESHOLD_PX, seed=seed)
            error = corner_reprojection_error(h_est, h_gt, width=width, height=height)
        except ValueError:  # under 4 matches, or no model: scored as a miss
            error = np.inf
        corner_errors.append(min(error, 1e6))
    return EvalReport(
        corner_errors=corner_errors,
        auc=corner_auc(corner_errors),
        n_matches=[len(r.fine) for r in results],
        timings=StageTimings.of(results),
    )
