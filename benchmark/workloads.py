"""The benchmark's workloads: inputs, set-up, items, checks, traces.

An *item* is one ``Matcher.match_pair`` call (match workloads) or one
optimizer step of ``train_toy`` (training workload). Each workload runs as a
single-process closed loop: the next item starts only after the previous
one has returned. Inputs are rendered from the run's seed before anything
is timed; the program only ever sees the rendered arrays.

The traced variants re-compose ``Matcher.match_pair`` and the body of
``train_toy`` from the layers' public functions, in the same order, and time
each call from here. They never read ``MatchResult.timings``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import env
import numpy as np

from semimatch import tensor as T
from semimatch.backbone import pad_to_multiple
from semimatch.geometry import apply_homography, corner_auc, corner_reprojection_error, ransac_homography
from semimatch.matching import match_coarse
from semimatch.pipeline import Matcher, MatcherConfig, _in_bounds, _valid_cells, normalize_cells
from semimatch.refine import COARSE_STRIDE, refine
from semimatch.supervision import build_gt_homography, total_loss
from semimatch.synth import SynthConfig, render_pair
from semimatch.train import AdamW, TrainConfig, _mean, clip_gradients, pair_losses, train_toy
from semimatch.weights import load_matcher, model_hash, serialize_weights


class WeightsMismatch(RuntimeError):
    """The committed toy weights are not the ones the benchmark was defined on."""


# The harness self-check's shape (the TINY config of tests/test_bench.py).
TINY = MatcherConfig(widths=(4, 4, 8, 8), blocks=(1, 1, 1, 1), n_layers=1, n_heads=2, s=2,
                     d_fine=8, fine_patch_width=8)

# Pairs per optimizer step on the training workloads.
BATCH_SIZE = 2


@dataclass(frozen=True)
class MatchWorkload:
    name: str
    weights: str  # "toy": trained toy fixture; "paper"/"tiny": that config at seed 0
    size: int
    mode: str
    pool: int  # distinct pairs the closed loop cycles through
    quality: int  # pairs (the first of the pool) in the quality pass; 0 for none

    kind = "match"


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    weights: str  # "toy" or "tiny": that config at seed 0, trained from scratch
    size: int
    pool: int

    kind = "train"


WORKLOADS = {
    w.name: w
    for w in (
        MatchWorkload("toy-opt-256", "toy", 256, "optimized", pool=16, quality=6),
        MatchWorkload("paper-full-256", "paper", 256, "full", pool=2, quality=0),
        TrainWorkload("toy-train-64", "toy", 64, pool=64),
        # harness self-check only; not listed in BENCHMARK.json
        MatchWorkload("tiny-opt-64", "tiny", 64, "optimized", pool=2, quality=2),
        TrainWorkload("tiny-train-32", "tiny", 32, pool=4),
    )
}

_SEED_CONFIGS = {"paper": MatcherConfig, "toy": MatcherConfig.toy, "tiny": lambda: TINY}


# --------------------------------------------------------------------------
# inputs and set-up


def render_inputs(workload, seed: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Deterministic (image_a, image_b, H) triples for ``seed``."""
    return [render_pair(seed, i, SynthConfig(size=workload.size)) for i in range(workload.pool)]


def setup(workload):
    """What a user pays before the first item: weights (or init), then fuse().

    Returns (matcher, fused_backbone_or_None, weights_sha256).
    """
    if workload.kind == "train":
        return seed_matcher(workload), None, None
    if workload.weights == "toy":
        matcher, digest = load_matcher(env.WEIGHTS_PATH)
        if digest != env.WEIGHTS_SHA256:
            raise WeightsMismatch(
                f"{env.WEIGHTS_PATH} has sha256 {digest}, expected {env.WEIGHTS_SHA256}; "
                "regenerate it with benchmark/train_weights.py or restore the committed file"
            )
    else:
        matcher, digest = seed_matcher(workload), None
    return matcher, matcher.fuse(), digest


def seed_matcher(workload) -> Matcher:
    return Matcher(_SEED_CONFIGS[workload.weights](), seed=0)


def weights_sha256(matcher, digest: str | None) -> str:
    """sha256 of the weights container (serialised on the fly for seed inits)."""
    if digest is not None:
        return digest
    return model_hash(serialize_weights(matcher.named_tensors(), matcher.config.to_dict()))


# --------------------------------------------------------------------------
# output checks


def match_output_ok(result, shape_a: tuple[int, int], shape_b: tuple[int, int]) -> bool:
    """Finite confidences and points, every fine match inside its image.

    Image sizes come from the inputs, not from the result being checked.
    """
    conf = np.array([m.confidence for m in result.coarse] + [m.confidence for m in result.fine], dtype=np.float64)
    if not np.isfinite(conf).all():
        return False
    if not result.fine:
        return True
    pts_a = np.array([m.pt_a for m in result.fine], dtype=np.float64)
    pts_b = np.array([m.pt_b for m in result.fine], dtype=np.float64)
    return _inside(pts_a, shape_a) and _inside(pts_b, shape_b)


def _inside(pts: np.ndarray, shape: tuple[int, int]) -> bool:
    h, w = shape
    return bool(
        np.isfinite(pts).all()
        and (pts[:, 0] >= 0).all() and (pts[:, 0] <= w - 1).all()
        and (pts[:, 1] >= 0).all() and (pts[:, 1] <= h - 1).all()
    )


def brute_mnn(m: np.ndarray, tau: float) -> list[tuple[int, int]]:
    """Mutual-argmax oracle (first index wins ties), as in criterion 05."""
    out = []
    for i in range(m.shape[0]):
        j = int(np.argmax(m[i]))
        if int(np.argmax(m[:, j])) == i and m[i, j] >= tau and np.isfinite(m[i, j]):
            out.append((i, j))
    return out


# --------------------------------------------------------------------------
# match workloads


def run_match_item(matcher, fused, workload, pair):
    """One untraced item. Returns (seconds, result or None, error or None)."""
    a, b, _ = pair
    t0 = time.perf_counter()
    try:
        result = matcher.match_pair(a, b, mode=workload.mode, fused=fused)
    except Exception as exc:  # a failed item is counted, the loop goes on
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, result, None


def traced_match(tracer, matcher, fused, workload, pair) -> dict:
    """``Matcher.match_pair`` re-composed from public layer calls, with spans.

    The caller sets ``tracer.item`` first. Returns the coarse and fine
    matches, the intermediates the checks and computed sizes need, and
    ``wall_s``, the item's time on a clock read here, outside the tracer.
    """
    image_a, image_b, _ = pair
    multiple = COARSE_STRIDE * matcher.config.s
    start = time.perf_counter()
    with tracer.span("pipeline.item"):
        padded_a, dims_a = pad_to_multiple(np.asarray(image_a, dtype=matcher.dtype), multiple)
        padded_b, dims_b = pad_to_multiple(np.asarray(image_b, dtype=matcher.dtype), multiple)
        with T.no_grad():
            with tracer.span("backbone.forward"):
                pyr_a = fused.forward_deploy(T.tensor(padded_a[None]))
                pyr_b = fused.forward_deploy(T.tensor(padded_b[None]))
            with tracer.span("transform.forward"):
                fa_t, fb_t = matcher.transform.forward(pyr_a.f_coarse, pyr_b.f_coarse)
            cells_a, cells_b = normalize_cells(fa_t), normalize_cells(fb_t)
            valid_a = _valid_cells(padded_a.shape, dims_a)
            valid_b = _valid_cells(padded_b.shape, dims_b)
            with tracer.span("matching.match_coarse"):
                coarse, score = match_coarse(
                    cells_a, cells_b, mode=workload.mode, tau=matcher.config.tau,
                    inv_temperature=matcher.inv_temperature, valid_a=valid_a, valid_b=valid_b,
                )
            with tracer.span("refine.fusion"):
                fused_a = matcher.fusion.forward(fa_t, pyr_a.f_quarter, pyr_a.f_half)
                fused_b = matcher.fusion.forward(fb_t, pyr_b.f_quarter, pyr_b.f_half)
            fine_a, fine_b = normalize_cells(fused_a), normalize_cells(fused_b)
            with tracer.span("refine.refine"):
                fine = refine(coarse, fine_a, fine_b, score.grid_a, score.grid_b, w=matcher.fine_patch_width)
        fine = [m for m in fine if _in_bounds(m, dims_a, dims_b)]
    wall_s = time.perf_counter() - start
    return {
        "wall_s": wall_s, "coarse": coarse, "fine": fine, "score": score, "valid_a": valid_a, "valid_b": valid_b,
        "coarse_shapes": (pyr_a.f_coarse.shape, pyr_b.f_coarse.shape),
        "finite": all(np.isfinite(x.data).all() for x in (fa_t, fb_t, fine_a, fine_b, score.s)),
    }


def attention_score_bytes(matcher, coarse_shapes) -> int:
    """Bytes of every attention score array one item allocates, from shapes.

    Each of the n_layers rounds runs self(A), self(B), cross(A<-B) and
    cross(B<-A); a block's scores are (heads, tokens_q, tokens_kv) where
    tokens are the coarse grid aggregated by s in each axis.
    """
    s = matcher.config.s
    tokens = [(h // s) * (w // s) for (_, h, w) in coarse_shapes]
    ta, tb = tokens
    per_round = ta * ta + tb * tb + ta * tb + tb * ta
    itemsize = np.dtype(matcher.dtype).itemsize
    return matcher.config.n_layers * matcher.config.n_heads * per_round * itemsize


def oracle_ok(traced: dict, mode: str, tau: float) -> bool:
    """Coarse matches equal a brute-force mutual argmax over the same scores."""
    score = traced["score"]
    matrix = (score.p if mode == "full" else score.s).data.copy()
    if traced["valid_a"] is not None:
        matrix[~traced["valid_a"], :] = -np.inf
    if traced["valid_b"] is not None:
        matrix[:, ~traced["valid_b"]] = -np.inf
    threshold = tau if mode == "full" else -np.inf
    return [(m.i, m.j) for m in traced["coarse"]] == brute_mnn(matrix, threshold)


def traced_ransac(tracer, fine) -> tuple[int, int]:
    """RANSAC on one item's fine matches in a geometry span: (inliers, used)."""
    if len(fine) < 4:
        return 0, 0
    src = np.array([m.pt_a for m in fine], dtype=np.float64)
    dst = np.array([m.pt_b for m in fine], dtype=np.float64)
    with tracer.span("geometry.ransac"):
        try:
            _, mask = ransac_homography(src, dst, threshold_px=3.0, seed=0)
        except ValueError:  # includes DegenerateGeometryError
            return 0, len(fine)
    return int(mask.sum()), len(fine)


def quality(results: list, pairs: list) -> dict:
    """Deterministic match quality over a fixed list of pairs.

    coarse_precision: share of coarse matches (on cells with a ground-truth
    partner) within one cell of it. fine_err_px_p50: median |pt_B - H(pt_A)|.
    auc_*px: corner-reprojection AUC of ransac_homography(seed=0), with
    pairs under 4 matches or without a model scored as a miss.
    """
    hits = total = 0
    errors: list[float] = []
    corner_errors: list[float] = []
    for result, (a, b, h) in zip(results, pairs):
        gt = build_gt_homography(h, a.shape, b.shape)
        gt_map = dict(zip(gt.pairs_a.tolist(), gt.pairs_b.tolist()))
        cols = result.grid_b[1]
        for m in result.coarse:
            target = gt_map.get(m.i)
            if target is None:
                continue
            pr, pc = divmod(m.j, cols)
            tr, tc = divmod(target, cols)
            total += 1
            hits += abs(pr - tr) <= 1 and abs(pc - tc) <= 1
        corner = math.inf
        if result.fine:
            src = np.array([m.pt_a for m in result.fine], dtype=np.float64)
            dst = np.array([m.pt_b for m in result.fine], dtype=np.float64)
            warped, ok = apply_homography(h, src)
            errors.extend(np.sqrt(((warped - dst) ** 2).sum(axis=1))[ok].tolist())
            if len(src) >= 4:
                try:
                    h_est, _ = ransac_homography(src, dst, threshold_px=3.0, seed=0)
                    corner = corner_reprojection_error(h_est, h, width=a.shape[1], height=a.shape[0])
                except ValueError:  # includes DegenerateGeometryError: scored as a miss
                    pass
        corner_errors.append(min(corner, 1e6))
    auc = corner_auc(corner_errors)
    return {
        "coarse_precision": hits / total if total else 0.0,
        "coarse_scored": total,
        "fine_err_px_p50": float(np.median(errors)) if errors else None,
        "fine_scored": len(errors),
        "auc_3px": auc[3.0],
        "auc_5px": auc[5.0],
        "auc_10px": auc[10.0],
    }


# --------------------------------------------------------------------------
# training workload


class _Deadline(Exception):
    """Raised from train_toy's log callback to end the closed loop."""


def train_config(seed: int) -> TrainConfig:
    """Runs until the closed loop's deadline stops it, not for a step count."""
    return TrainConfig(steps=10**9, batch_size=BATCH_SIZE, seed=seed)


def run_train_steps(workload, dataset, seed: int, running):
    """Untraced items: ``train_toy`` steps while ``running()`` is true.

    ``running`` is called between steps, outside every step's time; the
    first step runs before it is asked. Step times are the gaps between
    consecutive log callbacks. A step that raises ends that ``train_toy``
    call; it is counted as failed and a fresh call continues on the same
    parameters. Returns (times, rows, failed).
    """
    matcher = seed_matcher(workload)
    times: list[float] = []
    rows: list = []
    failed = 0
    while True:
        last = [time.perf_counter()]

        def log(row):
            now = time.perf_counter()
            times.append(now - last[0])
            rows.append(row)
            if not math.isfinite(row.total):
                raise FloatingPointError(f"non-finite loss at step {row.step}")
            if not running():
                raise _Deadline
            last[0] = time.perf_counter()

        try:
            train_toy(matcher, dataset, train_config(seed), log=log)
        except _Deadline:
            break
        except Exception:  # a failed step is counted, the loop goes on
            failed += 1
        if not running():
            break
    return times, rows, failed


def traced_train(tracer, workload, dataset, seed: int, deadline: float):
    """``train_toy``'s loop body re-composed with spans, until the deadline.

    Same fresh seed-0 init, optimizer, batch sampling and loss arithmetic,
    so the loss rows must equal ``train_toy``'s curve for the seed.
    Returns (step times, [(l_c, l_f1, l_f2, total)], failed).
    """
    matcher = seed_matcher(workload)
    cfg = train_config(seed)
    params = matcher.trainable_parameters()
    optimizer = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    times, rows = [], []
    failed = 0
    step = 0
    while time.perf_counter() < deadline:
        tracer.item = step
        t0 = time.perf_counter()
        try:
            with tracer.span("train.step"):
                lr_scale = _lr_scale(cfg, step)
                optimizer.zero_grad()
                batch = [dataset[int(i)] for i in rng.integers(0, len(dataset), size=cfg.batch_size)]
                terms = {"l_c": [], "l_f1": [], "l_f2": []}
                for image_a, image_b, h in batch:
                    with tracer.span("train.pair_losses"):
                        l_c, l_f1, l_f2 = pair_losses(matcher, image_a, image_b, h, cfg, rng)
                    terms["l_c"].append(l_c)
                    if l_f1 is not None:
                        terms["l_f1"].append(l_f1)
                    if l_f2 is not None:
                        terms["l_f2"].append(l_f2)
                l_c = _mean(terms["l_c"])
                l_f1 = _mean(terms["l_f1"]) if terms["l_f1"] else 0.0
                l_f2 = _mean(terms["l_f2"]) if terms["l_f2"] else 0.0
                loss = total_loss(l_c, l_f1, l_f2, cfg.weights)
                value = float(loss.data)
                if not math.isfinite(value):
                    raise FloatingPointError(f"non-finite loss at step {step}")
                with tracer.span("train.backward"):
                    loss.backward()
                with tracer.span("train.optimizer"):
                    clip_gradients(params, cfg.clip_norm)
                    optimizer.step(lr_scale)
        except Exception:  # a failed step is counted, the loop goes on
            failed += 1
            step += 1
            continue
        times.append(time.perf_counter() - t0)
        rows.append((_value(l_c), _value(l_f1), _value(l_f2), value))
        step += 1
    return times, rows, failed


def _lr_scale(cfg: TrainConfig, step: int) -> float:
    if cfg.lr == 0.0:
        return 0.0
    if cfg.warmup_steps > 0 and step < cfg.warmup_steps:
        return (step + 1) / cfg.warmup_steps
    return 1.0


def _value(x) -> float:
    return float(x.data) if isinstance(x, T.Tensor) else float(x)
