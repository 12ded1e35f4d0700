"""Release acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them live). Training-based checks share one session-scoped toy model.
"""
import time

import numpy as np
import pytest

from semimatch import tensor as T
from semimatch.backbone import RepVGGBlock
from semimatch.evaluate import coarse_precision, fine_match_errors
from semimatch.geometry import apply_homography, corner_reprojection_error, ransac_homography
from semimatch.instrument import counters
from semimatch.matching import match_coarse, mnn_select
from semimatch.pipeline import Matcher, MatcherConfig
from semimatch.refine import local_scores, stage1_pixels, stage2_offsets
from semimatch.supervision import total_loss
from semimatch.synth import SynthConfig, SyntheticPairs
from semimatch.train import TrainConfig, pair_losses, train_toy
from semimatch.transform import rope_encode

from conftest import ACCEPTANCE_LINES
from helpers import drawn, numeric_gradient, parameter, weighted_sum

TOY_TRAIN_STEPS = 800
TOY_HELDOUT = 50


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {status}" + (f" ({detail})" if detail else "")
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {number} {name}: {detail}"


# -- 1. reparameterization losslessness -------------------------------------


def test_criterion_01_reparameterization_losslessness(rng):
    def worst_gap(dtype, tol_seed):
        worst = 0.0
        gen = np.random.default_rng(tol_seed)
        for trial in range(100):
            in_c = int(gen.integers(1, 7))
            out_c = in_c if trial % 2 == 0 else int(gen.integers(1, 7))
            stride = 1 if trial % 3 else 2
            block = RepVGGBlock(in_c, out_c, stride, drawn(gen, dtype))
            for stats in (block.conv3x3.bn, block.conv1x1.bn, block.identity):
                if stats is None:
                    continue
                stats.mean.data[:] = gen.normal(0, 0.6, stats.mean.shape).astype(dtype)
                stats.var.data[:] = gen.uniform(0.2, 2.5, stats.var.shape).astype(dtype)
                stats.scale.data[:] = gen.normal(1.0, 0.3, stats.scale.shape).astype(dtype)
                stats.shift.data[:] = gen.normal(0, 0.3, stats.shift.shape).astype(dtype)
            kernel, bias = block.fuse()
            kt, bt = T.tensor(kernel), T.tensor(bias)
            for _ in range(10):
                x = T.tensor(gen.standard_normal((in_c, 8, 8)).astype(dtype))
                with T.no_grad():
                    multi = block.forward(x)
                    fused = T.conv2d(x, kt, bt, stride=block.stride, pad=1).relu()
                worst = max(worst, float(np.abs(multi.data - fused.data).max()))
        return worst

    start = time.perf_counter()
    gap32 = worst_gap(np.float32, 11)
    gap64 = worst_gap(np.float64, 12)
    elapsed = time.perf_counter() - start
    report(
        1, "reparameterization-losslessness",
        gap32 <= 1e-4 and gap64 <= 1e-10 and elapsed < 60.0,
        f"f32 {gap32:.2e} <= 1e-4, f64 {gap64:.2e} <= 1e-10, {elapsed:.1f}s",
    )


# -- 2. gradient correctness --------------------------------------------------


def _op_cases(rng):
    def away_from_zero(shape, margin=0.15):
        x = rng.standard_normal(shape)
        return x + np.sign(x) * margin

    a23 = rng.standard_normal((2, 3))
    b23 = rng.standard_normal((2, 3))
    pos = rng.uniform(0.5, 2.0, (2, 3))
    m1 = rng.standard_normal((3, 4))
    m2 = rng.standard_normal((4, 2))
    bm1 = rng.standard_normal((2, 3, 4))
    bm2 = rng.standard_normal((2, 4, 2))
    img = rng.standard_normal((2, 5, 5))
    kern = rng.standard_normal((3, 2, 3, 3)) * 0.5
    dw_kern = rng.standard_normal((2, 3, 3)) * 0.5
    bias = rng.standard_normal(3)
    pool_in = rng.permutation(36).reshape(1, 6, 6).astype(np.float64)
    q = rng.standard_normal((3, 8))
    k = rng.standard_normal((4, 8))
    v = rng.standard_normal((4, 8))
    positions = rng.uniform(-5, 5, (3, 2))

    return [
        ("add", [a23, b23], lambda x, y: weighted_sum(x + y)),
        ("add_broadcast", [a23, rng.standard_normal((1, 3))], lambda x, y: weighted_sum(x + y)),
        ("sub", [a23, b23], lambda x, y: weighted_sum(x - y)),
        ("mul", [a23, b23], lambda x, y: weighted_sum(x * y)),
        ("div", [a23, pos], lambda x, y: weighted_sum(x / y)),
        ("neg", [a23], lambda x: weighted_sum(-x)),
        ("pow", [pos], lambda x: weighted_sum(x ** 2.7)),
        ("exp", [a23], lambda x: weighted_sum(x.exp())),
        ("log", [pos], lambda x: weighted_sum(x.log())),
        ("sqrt", [pos], lambda x: weighted_sum(x.sqrt())),
        ("relu", [away_from_zero((3, 4))], lambda x: weighted_sum(x.relu())),
        ("elu", [away_from_zero((3, 4))], lambda x: weighted_sum(x.elu())),
        ("clamp_min", [away_from_zero((3, 4))], lambda x: weighted_sum(x.clamp_min(0.0))),
        ("sum_all", [a23], lambda x: x.sum()),
        ("sum_axis", [bm1], lambda x: weighted_sum(x.sum(axis=1, keepdims=True))),
        ("mean", [a23], lambda x: weighted_sum(x.mean(axis=0))),
        ("reshape", [bm1], lambda x: weighted_sum(x.reshape((6, 4)))),
        ("transpose", [bm1], lambda x: weighted_sum(x.transpose((2, 0, 1)))),
        ("concat", [a23, b23], lambda x, y: weighted_sum(T.concat([x, y], axis=0))),
        ("slice", [img], lambda x: weighted_sum(x[:, 1:4, 2:5])),
        ("gather_nd", [m1], lambda x: weighted_sum(T.gather_nd(x, (np.array([0, 2, 1]), np.array([3, 1, 1]))))),
        ("matmul", [m1, m2], lambda x, y: weighted_sum(T.matmul(x, y))),
        ("matmul_batched", [bm1, bm2], lambda x, y: weighted_sum(T.matmul(x, y))),
        ("softmax", [m1], lambda x: weighted_sum(T.softmax(x, axis=-1))),
        ("conv2d", [img, kern, bias], lambda x, w, b: weighted_sum(T.conv2d(x, w, b, stride=2, pad=1))),
        ("depthwise_conv2d", [img, dw_kern], lambda x, w: weighted_sum(T.depthwise_conv2d(x, w, stride=1, pad=1))),
        ("maxpool2d", [pool_in], lambda x: weighted_sum(T.maxpool2d(x, 2, 2))),
        ("bilinear_upsample", [img], lambda x: weighted_sum(T.bilinear_upsample(x, 2))),
        ("layer_norm", [m1], lambda x: weighted_sum(T.layer_norm(x))),
        ("vanilla_attention", [q, k, v], lambda a, b, c: weighted_sum(T.vanilla_attention(a, b, c, heads=1))),
        ("linear_attention", [q, k, v], lambda a, b, c: weighted_sum(T.linear_attention(a, b, c))),
        ("linear_attention_literal", [q, k, v],
         lambda a, b, c: weighted_sum(T.linear_attention(a, b, c, normalized=False))),
        ("rope_encode", [q], lambda x: weighted_sum(rope_encode(x, positions, heads=1))),
    ]


def test_criterion_02_gradient_correctness(rng):
    start = time.perf_counter()
    failures = []
    for name, arrays, fn in _op_cases(rng):
        leaves = [parameter(a, dtype=np.float64) for a in arrays]
        fn(*leaves).backward()
        for which, leaf in enumerate(leaves):
            fd = numeric_gradient(
                lambda *arrs: float(fn(*(T.tensor(a, dtype=np.float64) for a in arrs)).data),
                arrays, which,
            )
            got = leaf.grad if leaf.grad is not None else np.zeros_like(fd)
            bad = np.abs(got - fd) > (1e-7 + 1e-4 * np.abs(fd))
            if bad.any():
                failures.append(f"{name}[arg{which}]")

    # full toy pipeline loss against finite differences, sampled entries
    matcher = Matcher(
        MatcherConfig(widths=(4, 4, 8, 8), blocks=(1, 1, 1, 1), n_layers=1, n_heads=2, s=2,
                      d_fine=8, fine_patch_width=8),
        seed=3, dtype=np.float64,
    )
    image_a, image_b, h = SyntheticPairs(1, seed=21, cfg=SynthConfig(size=32))[0]

    def pipeline_loss() -> T.Tensor:
        l_c, l_f1, l_f2 = pair_losses(matcher, image_a, image_b, h,
                                      TrainConfig(max_fine_matches=6), np.random.default_rng(0))
        return total_loss(l_c, l_f1 if l_f1 is not None else 0.0, l_f2 if l_f2 is not None else 0.0)

    loss = pipeline_loss()
    loss.backward()
    sampler = np.random.default_rng(99)
    pipeline_bad = []
    h_step = 1e-4
    for name, tensor in matcher.named_tensors():
        if not tensor.requires_grad:
            continue
        flat = tensor.data.reshape(-1)
        grad = (tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)).reshape(-1)
        for idx in sampler.choice(flat.size, size=min(2, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h_step
            up = float(pipeline_loss().data)
            flat[idx] = orig - h_step
            down = float(pipeline_loss().data)
            flat[idx] = orig
            fd = (up - down) / (2 * h_step)
            if abs(grad[idx] - fd) > 1e-6 + 1e-3 * abs(fd):
                pipeline_bad.append(f"{name}[{idx}] an={grad[idx]:.3e} fd={fd:.3e}")
    elapsed = time.perf_counter() - start
    report(
        2, "gradient-correctness",
        not failures and not pipeline_bad and elapsed < 300.0,
        f"ops bad={failures or 'none'}, pipeline bad={pipeline_bad or 'none'}, {elapsed:.0f}s",
    )


# -- 3. token-reduction arithmetic -------------------------------------------


def test_criterion_03_token_reduction(rng):
    d, grid = 64, 40
    f = T.tensor(rng.standard_normal((d, grid, grid)).astype(np.float32))
    kern4 = T.tensor(np.full((d, 4, 4), 1 / 16, dtype=np.float32))
    kern1 = T.tensor(np.full((d, 1, 1), 1.0, dtype=np.float32))

    def score_pass(s, kern):
        with T.no_grad():
            q_map = T.depthwise_conv2d(f, kern, stride=s)
            kv_map = f if s == 1 else T.maxpool2d(f, s, s)
            q = q_map.reshape((d, -1)).transpose((1, 0))
            kv = kv_map.reshape((d, -1)).transpose((1, 0))
            return T.vanilla_attention(q, kv, kv, heads=1)

    counters.reset("attn_score_entries")
    score_pass(4, kern4)
    agg_entries = counters["attn_score_entries"]
    counters.reset("attn_score_entries")
    score_pass(1, kern1)
    full_entries = counters["attn_score_entries"]

    def best_time(s, kern, reps=5):
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            score_pass(s, kern)
            best = min(best, time.perf_counter() - t0)
        return best

    score_pass(4, kern4), score_pass(1, kern1)  # warm
    t_agg = best_time(4, kern4)
    t_full = best_time(1, kern1)
    ratio = t_full / t_agg
    report(
        3, "token-reduction",
        agg_entries == 100 * 100 and full_entries == 1600 * 1600 and ratio >= 4.0,
        f"entries {agg_entries} vs {full_entries}, speedup {ratio:.1f}x >= 4x",
    )


# -- 4. optimized-inference speedup ------------------------------------------


def test_criterion_04_optimized_inference_speedup(rng):
    d = 32
    fa = T.tensor(rng.standard_normal((d, 60, 80)).astype(np.float32))
    fb = T.tensor(rng.standard_normal((d, 60, 80)).astype(np.float32))

    def run(mode):
        with T.no_grad():
            return match_coarse(fa, fb, mode=mode, inv_temperature=0.1)

    run("full"), run("optimized")  # warm
    counters.reset("softmax", "dual_softmax")
    run("optimized")
    softmax_calls = counters["softmax"] + counters["dual_softmax"]

    def median_time(mode, reps=7):
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            run(mode)
            ts.append(time.perf_counter() - t0)
        return float(np.median(ts))

    t_full = median_time("full")
    t_opt = median_time("optimized")
    ratio = t_full / t_opt
    report(
        4, "optimized-inference-speedup",
        softmax_calls == 0 and ratio >= 2.0,
        f"softmax ops {softmax_calls}, speedup {ratio:.2f}x >= 2x "
        f"(full {1e3 * t_full:.0f} ms, optimized {1e3 * t_opt:.0f} ms)",
    )


# -- 5. MNN oracle equivalence --------------------------------------------


def test_criterion_05_mnn_oracle_equivalence():
    start = time.perf_counter()

    def brute_mnn(m):
        out = []
        for i in range(m.shape[0]):
            j = int(np.argmax(m[i]))
            if int(np.argmax(m[:, j])) == i:
                out.append((i, j))
        return out

    coarse_ok = True
    for seed in range(1000):
        m = np.random.default_rng(seed).standard_normal((20, 30))
        if [(c.i, c.j) for c in mnn_select(m)] != brute_mnn(m):
            coarse_ok = False
            break

    def brute_stage1(patch_a, patch_b):
        a = patch_a.reshape(patch_a.shape[0], -1)
        b = patch_b.reshape(patch_b.shape[0], -1)
        scores = (a.T @ b) / np.sqrt(a.shape[0])
        best = None
        for ai in range(scores.shape[0]):
            for bi in range(scores.shape[1]):
                if np.argmax(scores[ai]) == bi and np.argmax(scores[:, bi]) == ai:
                    key = (scores[ai, bi], -(ai * scores.shape[1] + bi))
                    if best is None or key > best[0]:
                        best = (key, ai, bi)
        w = patch_a.shape[1]
        ar, ac = divmod(best[1], w)
        br, bc = divmod(best[2], w)
        return (ac, ar), (bc, br)

    fine_ok = True
    for seed in range(1000):
        gen = np.random.default_rng(10_000 + seed)
        patch_a = gen.standard_normal((5, 4, 4)).astype(np.float32)
        patch_b = gen.standard_normal((5, 4, 4)).astype(np.float32)
        origin = np.zeros((1, 2), dtype=np.int64)
        scores = local_scores(T.tensor(patch_a), T.tensor(patch_b), origin, origin, w=4).data
        pixels_a, pixels_b, _ = stage1_pixels(scores, origin, origin)
        got = tuple(pixels_a[0]), tuple(pixels_b[0])
        if got != brute_stage1(patch_a, patch_b):
            fine_ok = False
            break
    elapsed = time.perf_counter() - start
    report(
        5, "mnn-oracle-equivalence",
        coarse_ok and fine_ok and elapsed < 60.0,
        f"coarse {coarse_ok}, stage-1 {fine_ok}, {elapsed:.1f}s over 2x1000 seeds",
    )


# -- 6. two-stage refinement bound ---------------------------------------


def test_criterion_06_stage2_offset_bound(rng):
    n, d = 10_000, 6
    feats = T.tensor((rng.standard_normal((n, d)) * 20).astype(np.float32))
    windows = T.tensor((rng.standard_normal((n, d, 9)) * 20).astype(np.float32))
    offsets = stage2_offsets(feats, windows, np.ones((n, 9), dtype=bool)).data
    bounded = bool(np.all(np.abs(offsets) <= 1.0 + 1e-6))

    window = np.zeros((9, 3, 3), dtype=np.float32)
    for r in range(3):
        for c in range(3):
            window[r * 3 + c, r, c] = 1.0
    feat = np.zeros(9, dtype=np.float32)
    feat[2 * 3 + 0] = 1e6  # cell (r=2, c=0): corner offset (-1, +1)
    all_in = np.ones((1, 9), dtype=bool)
    corner = stage2_offsets(T.tensor(feat.reshape(1, 9)), T.tensor(window.reshape(1, 9, 9)), all_in).data
    dx, dy = float(corner[0, 0]), float(corner[0, 1])
    corner_exact = (dx, dy) == (-1.0, 1.0)
    report(
        6, "two-stage-refinement-bound",
        bounded and corner_exact,
        f"max |offset| {np.abs(offsets).max():.4f} <= 1, one-hot corner ({dx}, {dy})",
    )


# -- 7. rotary encoding properties ----------------------------------------


def test_criterion_07_rope_properties(rng):
    d = 32
    worst_shift = 0.0
    worst_norm = 0.0
    for _ in range(1000):
        q = rng.standard_normal((1, d))
        k = rng.standard_normal((1, d))
        p_q = rng.uniform(-40, 40, 2)
        p_k = rng.uniform(-40, 40, 2)
        t = rng.uniform(-60, 60, 2)
        enc = lambda x, p: rope_encode(T.tensor(x, dtype=np.float64), p.reshape(1, 2), heads=1).data
        s0 = float((enc(q, p_q) * enc(k, p_k)).sum())
        s1 = float((enc(q, p_q + t) * enc(k, p_k + t)).sum())
        worst_shift = max(worst_shift, abs(s0 - s1))
        worst_norm = max(worst_norm, abs(np.linalg.norm(enc(q, p_q)) - np.linalg.norm(q)))
    report(
        7, "rope-properties",
        worst_shift < 1e-5 and worst_norm < 1e-6,
        f"shift invariance {worst_shift:.2e} < 1e-5, norm drift {worst_norm:.2e} < 1e-6",
    )


# -- 8. end-to-end toy training --------------------------------------------


@pytest.fixture(scope="module")
def trained_toy():
    matcher = Matcher(MatcherConfig.toy(), seed=0)
    train_data = SyntheticPairs(500, seed=42)
    curve = train_toy(matcher, train_data, TrainConfig(steps=TOY_TRAIN_STEPS, batch_size=2, seed=0))
    return matcher, curve


def test_criterion_08_toy_training(trained_toy):
    start = time.perf_counter()
    matcher, curve = trained_toy
    totals = np.array([row.total for row in curve])
    window = 100
    smoothed = np.convolve(totals, np.ones(window) / window, mode="valid")
    quarters = np.array_split(smoothed, 4)
    monotone = all(quarters[k + 1].mean() < quarters[k].mean() for k in range(3))
    decreased = smoothed[-1] < 0.85 * smoothed[0]

    held = SyntheticPairs(550, seed=42)
    indices = list(range(500, 500 + TOY_HELDOUT))
    hits, total = coarse_precision(matcher, held, indices, mode="full")
    precision = hits / max(total, 1)

    errors_two_stage = fine_match_errors(matcher, held, indices, mode="full", two_stage=True)
    errors_stage1 = fine_match_errors(matcher, held, indices, mode="full", two_stage=False)
    median_two = float(np.median(errors_two_stage))
    median_one = float(np.median(errors_stage1))
    elapsed = time.perf_counter() - start
    report(
        8, "toy-training-end-to-end",
        monotone and decreased and precision >= 0.70 and median_two <= 2.0 and median_two < median_one,
        f"smoothed loss {smoothed[0]:.2f}->{smoothed[-1]:.2f} (monotone {monotone}), "
        f"coarse precision {precision:.1%} >= 70%, fine median {median_two:.3f}px <= 2px, "
        f"two-stage {median_two:.3f} < stage-1 {median_one:.3f}, eval {elapsed:.0f}s",
    )


def test_paired_mode_reports_agree_on_easy_pairs(trained_toy, tmp_path):
    """Not a numbered criterion: on self pairs the two inference modes find
    the same points, so their eval reports differ only in timing and
    confidence fields."""
    from semimatch.evaluate import eval_homography_dir, pair_paths, write_homography_csv
    from semimatch.imageio import save_pgm

    matcher, _ = trained_toy
    for index in range(4):
        image, _, _ = SyntheticPairs(4, seed=77)[index]
        path_a, path_b, path_h = pair_paths(str(tmp_path), index)
        save_pgm(path_a, image)
        save_pgm(path_b, image)
        write_homography_csv(path_h, np.eye(3))
    # tau filtering would make the full-mode set a strict subset; the paired
    # check compares the unthresholded selections
    old_tau = matcher.config.tau
    matcher.config.tau = 0.0
    try:
        full = eval_homography_dir(matcher, str(tmp_path), mode="full", seed=1)
        fast = eval_homography_dir(matcher, str(tmp_path), mode="optimized", seed=1)
    finally:
        matcher.config.tau = old_tau
    assert full.n_matches == fast.n_matches
    np.testing.assert_allclose(full.corner_errors, fast.corner_errors, atol=1e-9)
    for report in (full, fast):
        assert report.auc[3.0] <= report.auc[5.0] <= report.auc[10.0]
        assert report.auc[10.0] > 0.9  # identity pairs recover near-zero error


# -- 9. homography round trip -----------------------------------------------


def test_criterion_09_homography_round_trip():
    gen = np.random.default_rng(7)
    h = np.eye(3) + gen.normal(0, 0.1, (3, 3))
    h[2, :2] *= 0.01
    h[2, 2] = 1.0
    src = gen.uniform(0, 256, (120, 2))
    dst, _ = apply_homography(h, src)
    est, mask = ransac_homography(src, dst, threshold_px=3.0, seed=0)
    clean_err = corner_reprojection_error(est, h, 256, 256)
    clean_ok = clean_err < 1e-3 and mask.all()

    worst = 0.0
    for seed in range(20):
        gen = np.random.default_rng(100 + seed)
        h = np.eye(3) + gen.normal(0, 0.1, (3, 3))
        h[2, :2] *= 0.01
        h[2, 2] = 1.0
        src = gen.uniform(0, 256, (200, 2))
        dst, _ = apply_homography(h, src)
        outliers = gen.choice(200, size=100, replace=False)
        dst[outliers] = gen.uniform(0, 256, (100, 2))
        est, _ = ransac_homography(src, dst, threshold_px=3.0, seed=seed)
        worst = max(worst, corner_reprojection_error(est, h, 256, 256))
    report(
        9, "homography-round-trip",
        clean_ok and worst < 1.0,
        f"noise-free corner error {clean_err:.2e} < 1e-3, 50%-outlier worst {worst:.3f}px < 1px",
    )


# -- 10. loss unit values ------------------------------------------------------


def test_criterion_10_loss_unit_values():
    value = total_loss(1.0, 1.0, 1.0)
    report(10, "loss-unit-values", value == 2.25, f"total_loss(1,1,1) = {value}")
