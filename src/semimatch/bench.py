"""Per-stage wall-clock benchmark of the matching pipeline.

Each repetition times the five stages of one pair (backbone, transform,
coarse matching, fine fusion, refinement); warm-up repetitions are run and
discarded before measuring. Repetitions run one after another; within one,
``match_pair`` may run the two images' backbone and transform on two
threads (``lanes.run_pair``), and a stage's time is then their joint wall
time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STAGES = ("backbone", "transform", "coarse_match", "fine_fusion", "refinement")


@dataclass
class StageTimings:
    mode: str
    repetitions: int
    mean: dict[str, float]
    median: dict[str, float]
    samples: dict[str, list[float]]

    def summary(self) -> str:
        lines = [f"pipeline timings ({self.mode} mode, {self.repetitions} reps), ms:"]
        for stage in (*STAGES, "total"):
            lines.append(
                f"  {stage:<12} mean {1e3 * self.mean[stage]:8.3f}   median {1e3 * self.median[stage]:8.3f}"
            )
        return "\n".join(lines)


def bench_pipeline(matcher, image_a: np.ndarray, image_b: np.ndarray, mode: str = "full",
                   repetitions: int = 5, warmup: int = 1) -> StageTimings:
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    fused = matcher.fuse()
    for _ in range(warmup):
        matcher.match_pair(image_a, image_b, mode=mode, fused=fused)
    samples: dict[str, list[float]] = {stage: [] for stage in (*STAGES, "total")}
    for _ in range(repetitions):
        result = matcher.match_pair(image_a, image_b, mode=mode, fused=fused)
        for stage in samples:
            samples[stage].append(result.timings[stage])
    return StageTimings(
        mode=mode,
        repetitions=repetitions,
        mean={k: float(np.mean(v)) for k, v in samples.items()},
        median={k: float(np.median(v)) for k, v in samples.items()},
        samples=samples,
    )


def timings_csv(timings: StageTimings) -> str:
    lines = ["stage,mean_ms,median_ms"]
    for stage in (*STAGES, "total"):
        lines.append(f"{stage},{1e3 * timings.mean[stage]:.4f},{1e3 * timings.median[stage]:.4f}")
    return "\n".join(lines) + "\n"
