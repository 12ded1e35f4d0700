import numpy as np
import pytest

from semimatch import tensor as T
from semimatch.matching import CoarseMatch, normalize_cells
from semimatch.pipeline import MatcherConfig
from semimatch.refine import (
    FineFusion,
    blend_patches,
    blend_pixels,
    blended_scores,
    blended_windows,
    cell_centers,
    full_shape,
    local_scores,
    nearest_cells,
    patch_origins,
    refine,
    stage1_pixels,
    stage2_offsets,
    stage2_pixel_offsets,
    stage2_windows,
)

from helpers import assert_gradients_close, drawn, numeric_gradient, parameter, weighted_sum


def make_fusion(rng):
    # the coarse, 1/4 and 1/2 widths (d_model=8, 6, 4) that pyramid_inputs builds, and d_fine=5
    return FineFusion(MatcherConfig(widths=(4, 4, 6, 8), n_heads=2, d_fine=5), drawn(rng))


def pyramid_inputs(rng, d_model=8, c_quarter=6, c_half=4, h8=4, w8=4):
    f_t = T.tensor(rng.standard_normal((d_model, h8, w8)).astype(np.float32))
    f_q = T.tensor(rng.standard_normal((c_quarter, 2 * h8, 2 * w8)).astype(np.float32))
    f_h = T.tensor(rng.standard_normal((c_half, 4 * h8, 4 * w8)).astype(np.float32))
    return f_t, f_q, f_h


def random_pair(rng, d=6, w=8):
    pa = rng.standard_normal((d, w, w)).astype(np.float32)
    pb = rng.standard_normal((d, w, w)).astype(np.float32)
    return pa, pb


def tile(patches):
    """Patches side by side in one (d, w, n*w) map; patch k has origin (k*w, 0)."""
    w = patches[0].shape[1]
    return T.tensor(np.concatenate(patches, axis=2)), np.array([[k * w, 0] for k in range(len(patches))])


def embed(patch, origin):
    """A zero map holding the (d, w, w) patch with its top-left corner at origin (x0, y0)."""
    d, w, _ = patch.shape
    x0, y0 = origin
    fine = np.zeros((d, y0 + w, x0 + w), dtype=patch.dtype)
    fine[:, y0:, x0:] = patch
    return T.tensor(fine)


def stage1_single(patch_a, patch_b, origin_a=(0, 0), origin_b=(0, 0)):
    """Stage 1 of one patch pair through the batched functions: ((x_a, y_a), (x_b, y_b), score)."""
    oa, ob = np.array([origin_a]), np.array([origin_b])
    scores = local_scores(embed(patch_a, origin_a), embed(patch_b, origin_b), oa, ob, patch_a.shape[1])
    pa, pb, score = stage1_pixels(scores.data, oa, ob)
    return tuple(pa[0]), tuple(pb[0]), score[0]


def brute_force_stage1(patch_a, patch_b, origin_a=(0, 0), origin_b=(0, 0)):
    a = patch_a.reshape(patch_a.shape[0], -1)
    b = patch_b.reshape(patch_b.shape[0], -1)
    w = patch_a.shape[1]
    scores = (a.T @ b) / np.sqrt(a.shape[0])
    best = None
    for ai in range(scores.shape[0]):
        for bi in range(scores.shape[1]):
            if np.argmax(scores[ai]) == bi and np.argmax(scores[:, bi]) == ai:
                key = (scores[ai, bi], -(ai * scores.shape[1] + bi))
                if best is None or key > best[0]:
                    best = (key, ai, bi)
    _, ai, bi = best
    ar, ac = divmod(ai, w)
    br, bc = divmod(bi, w)
    return (
        (origin_a[0] + ac, origin_a[1] + ar),
        (origin_b[0] + bc, origin_b[1] + br),
        scores[ai, bi],
    )


def brute_force_window(fine, x, y):
    """3x3 window around pixel (x, y), zero outside the image, and its in-image mask."""
    d, height, width = fine.shape
    window = np.zeros((d, 9), dtype=fine.dtype)
    mask = np.zeros(9, dtype=bool)
    for r in range(3):
        for c in range(3):
            yy, xx = y + r - 1, x + c - 1
            if 0 <= yy < height and 0 <= xx < width:
                window[:, r * 3 + c] = fine[:, yy, xx]
                mask[r * 3 + c] = True
    return window, mask


class TestFineFusion:
    def test_output_is_4x_coarse_dims(self, rng):
        # the 1/2-res map: refinement blends the full-res pixels it reads
        fusion = make_fusion(rng)
        f_t, f_q, f_h = pyramid_inputs(rng)
        with T.no_grad():
            out = fusion.forward(f_t, f_q, f_h)
        assert out.shape == (5, 16, 16)

    def test_zero_input_gives_constant_bias_output(self, rng):
        fusion = make_fusion(rng)
        f_t = T.tensor(np.zeros((8, 4, 4), dtype=np.float32))
        f_q = T.tensor(np.zeros((6, 8, 8), dtype=np.float32))
        f_h = T.tensor(np.zeros((4, 16, 16), dtype=np.float32))
        with T.no_grad():
            out = fusion.forward(f_t, f_q, f_h)
        spread = out.data.max(axis=(1, 2)) - out.data.min(axis=(1, 2))
        np.testing.assert_allclose(spread, 0.0, atol=1e-6)

    def test_pyramid_shape_mismatch_rejected(self, rng):
        fusion = make_fusion(rng)
        f_t, f_q, f_h = pyramid_inputs(rng)
        bad_q = T.tensor(np.zeros((6, 9, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="1/4"):
            fusion.forward(f_t, bad_q, f_h)

    def test_receptive_field_bounded(self, rng):
        fusion = make_fusion(rng)
        f_t, f_q, f_h = pyramid_inputs(rng, h8=6, w8=6)
        with T.no_grad():
            base = fusion.forward(f_t, f_q, f_h).data
            bumped = f_t.data.copy()
            bumped[:, 3, 2] += 1.0
            out = fusion.forward(T.tensor(bumped), f_q, f_h).data
        changed = np.abs(out - base).max(axis=0) > 1e-7
        rows, cols = np.nonzero(changed)
        # support through up2/conv3/up2/conv3 starting from one cell, each up2
        # taking [a, b] to [2a - 2, 2b + 3] and each conv3 widening by one:
        # [i, i] -> [4i - 9, 4i + 12]
        assert rows.min() >= 4 * 3 - 9 and rows.max() <= 4 * 3 + 12
        assert cols.min() >= 4 * 2 - 9 and cols.max() <= 4 * 2 + 12
        assert changed.any()


class TestCropPatches:
    def test_corner_cells_clamp_into_map(self):
        origins = patch_origins(np.array([0, 15]), (4, 4), (3, 32, 32), w=8)
        np.testing.assert_array_equal(origins, [[0, 0], [24, 24]])

    def test_interior_origin_arithmetic(self):
        cells_a = np.array([1 * 4 + 2])  # cell (1,2)
        cells_b = np.array([2 * 4 + 1])  # cell (2,1)
        assert patch_origins(cells_a, (4, 4), (3, 32, 32), w=8).tolist() == [[2 * 8 + 4 - 4, 1 * 8 + 4 - 4]]
        assert patch_origins(cells_b, (4, 4), (3, 32, 32), w=8).tolist() == [[1 * 8 + 4 - 4, 2 * 8 + 4 - 4]]

    def test_patch_content_matches_direct_slice(self, rng):
        # non-square map, clamped and interior origins on both sides
        fine_a = rng.standard_normal((3, 24, 40)).astype(np.float32)
        fine_b = rng.standard_normal((3, 24, 40)).astype(np.float32)
        origins_a = patch_origins(np.array([0, 4, 7, 14]), (3, 5), fine_a.shape, w=8)
        origins_b = patch_origins(np.array([14, 12, 0, 6]), (3, 5), fine_b.shape, w=8)
        got = local_scores(T.tensor(fine_a), T.tensor(fine_b), origins_a, origins_b, w=8).data
        for k, ((xa, ya), (xb, yb)) in enumerate(zip(origins_a, origins_b)):
            a = fine_a[:, ya:ya + 8, xa:xa + 8].reshape(3, -1)
            b = fine_b[:, yb:yb + 8, xb:xb + 8].reshape(3, -1)
            np.testing.assert_allclose(got[k], a.T @ b / np.sqrt(3), atol=1e-6)

    def test_cell_center(self):
        # flat cells 0 and 13 of a 4x5 grid: (row, col) (0, 0) and (2, 3)
        np.testing.assert_array_equal(cell_centers(np.array([0, 13]), (4, 5)), [[4, 4], [28, 20]])

    def test_nearest_cell_inverts_cell_center_and_clamps(self):
        cells = np.arange(4 * 5)
        centers = cell_centers(cells, (4, 5))
        np.testing.assert_array_equal(nearest_cells(centers.astype(np.float64), (4, 5)), cells)
        np.testing.assert_array_equal(nearest_cells(centers + 3.4, (4, 5)), cells)
        # past the border a point goes to the nearest edge cell
        np.testing.assert_array_equal(nearest_cells(np.array([[-20.0, -3.0], [70.0, 99.0]]), (4, 5)), [0, 19])

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            patch_origins(np.array([], dtype=np.int64), (4, 4), (3, 32, 32), w=7)

    def test_width_larger_than_map_rejected(self):
        with pytest.raises(ValueError, match="exceeds map size"):
            patch_origins(np.array([0]), (1, 1), (3, 8, 16), w=10)


class TestStage1:
    def test_identical_patches_with_distinct_features(self, rng):
        d = 16
        feats = np.linalg.qr(rng.standard_normal((16, 16)))[0].astype(np.float32) * np.linspace(
            1.0, 2.0, 16
        ).astype(np.float32)
        patch = feats.T.reshape(d, 4, 4)
        pa, pb, score = stage1_single(patch, patch, (8, 8), (8, 8))
        assert pa == pb  # self match
        assert brute_force_stage1(patch, patch, (8, 8), (8, 8))[:2] == (pa, pb)

    def test_one_hot_score_matrix(self, rng):
        d, w = 4, 4
        a = np.zeros((d, w, w), dtype=np.float32)
        b = np.zeros((d, w, w), dtype=np.float32)
        a[:, 1, 2] = [10, 0, 0, 0]
        b[:, 3, 0] = [10, 0, 0, 0]
        pa, pb, _ = stage1_single(a, b, (0, 0), (16, 8))
        assert pa == (2, 1)
        assert pb == (16 + 0, 8 + 3)

    def test_matches_brute_force_over_seeds(self):
        pairs = [random_pair(np.random.default_rng(seed), d=5, w=4) for seed in range(1000)]
        fine_a, origins = tile([a for a, _ in pairs])
        fine_b, _ = tile([b for _, b in pairs])
        scores = local_scores(fine_a, fine_b, origins, origins, w=4).data
        pixels_a, pixels_b, got_scores = stage1_pixels(scores, origins, origins)
        for seed, (a, b) in enumerate(pairs):
            want = brute_force_stage1(a, b, tuple(origins[seed]), tuple(origins[seed]))
            assert (tuple(pixels_a[seed]), tuple(pixels_b[seed])) == want[:2], f"seed {seed}"
            assert np.isclose(got_scores[seed], want[2], atol=1e-6)

    def test_invariant_under_monotone_transform_of_features(self, rng):
        # argmax selection: scaling all features scales scores monotonically
        a, b = random_pair(rng, d=6, w=6)
        before = stage1_single(a, b)[:2]
        assert stage1_single(a * 3.0, b * 1.0)[:2] == before


class TestStage2:
    def test_uniform_scores_give_zero_offset(self):
        d = 4
        feat = T.tensor(np.zeros((1, d), dtype=np.float32))
        window = T.tensor(np.ones((1, d, 9), dtype=np.float32))
        dx, dy = stage2_offsets(feat, window, np.ones((1, 9), dtype=bool)).data[0]
        assert abs(dx) < 1e-6 and abs(dy) < 1e-6

    def test_one_hot_corner_offset_is_exact(self):
        d = 9
        window = np.zeros((d, 3, 3), dtype=np.float32)
        for r in range(3):
            for c in range(3):
                window[r * 3 + c, r, c] = 1.0
        feat = np.zeros(d, dtype=np.float32)
        feat[1 * 3 + 2] = 1e6  # cell (r=1, c=2) => offset (+1, 0)
        offsets = stage2_offsets(
            T.tensor(feat.reshape(1, d)), T.tensor(window.reshape(1, d, 9)), np.ones((1, 9), dtype=bool)
        ).data
        assert (float(offsets[0, 0]), float(offsets[0, 1])) == (1.0, 0.0)

    def test_matches_float64_softmax_expectation(self, rng):
        d = 8
        feat = rng.standard_normal(d)
        window = rng.standard_normal((d, 3, 3))
        dx, dy = stage2_offsets(
            T.tensor(feat.reshape(1, d), dtype=np.float64),
            T.tensor(window.reshape(1, d, 9), dtype=np.float64),
            np.ones((1, 9), dtype=bool),
        ).data[0]
        scores = np.einsum("d,drc->rc", feat, window).reshape(9) / np.sqrt(d)
        p = np.exp(scores - scores.max())
        p /= p.sum()
        want = p @ np.array([[c - 1, r - 1] for r in range(3) for c in range(3)], dtype=np.float64)
        assert abs(dx - want[0]) < 1e-6 and abs(dy - want[1]) < 1e-6

    def test_offsets_bounded(self, rng):
        n, d = 500, 6
        feats = T.tensor(rng.standard_normal((n, d)).astype(np.float32) * 10)
        windows = T.tensor(rng.standard_normal((n, d, 9)).astype(np.float32) * 10)
        out = stage2_offsets(feats, windows, np.ones((n, 9), dtype=bool)).data
        assert np.all(np.abs(out) <= 1.0 + 1e-6)

    def test_masked_cells_get_no_weight(self, rng):
        d = 4
        feat = T.tensor(np.ones((1, d), dtype=np.float32))
        window = T.tensor(rng.standard_normal((1, d, 9)).astype(np.float32))
        mask = np.ones((1, 9), dtype=bool)
        mask[0, :3] = False  # top row out of image => dy expectation >= 0
        out = stage2_offsets(feat, window, mask).data
        assert out[0, 1] >= 0.0

    def test_all_masked_raises(self, rng):
        with pytest.raises(ValueError, match="no valid cell"):
            stage2_offsets(
                T.tensor(np.ones((1, 4), dtype=np.float32)),
                T.tensor(np.ones((1, 4, 9), dtype=np.float32)),
                np.zeros((1, 9), dtype=bool),
            )

    def test_window_extraction_masks_borders(self, rng):
        fine = T.tensor(rng.standard_normal((3, 16, 16)).astype(np.float32))
        windows, masks = stage2_windows(fine, np.array([(0, 0), (8, 8), (15, 15)]))
        assert windows.shape == (3, 3, 9)
        assert masks[0].sum() == 4  # corner pixel: only 2x2 in-image
        assert masks[1].all()
        assert masks[2].sum() == 4

    def test_windows_match_per_pixel_oracle(self, rng):
        d, height, width = 5, 12, 16  # non-square, so swapped axes show
        fine = rng.standard_normal((d, height, width)).astype(np.float32)
        corners = [(0, 0), (width - 1, 0), (0, height - 1), (width - 1, height - 1)]
        edges = [(7, 0), (0, 5), (width - 1, 6), (9, height - 1)]
        interior = [(1, 1), (8, 5), (width - 2, height - 2), (3, 9)]
        pixels = np.array(corners + edges + interior)
        windows, masks = stage2_windows(T.tensor(fine), pixels)
        feats = rng.standard_normal((len(pixels), d)).astype(np.float32)
        got = stage2_offsets(T.tensor(feats), windows, masks).data
        oracle = [brute_force_window(fine, x, y) for x, y in pixels]
        want_windows = np.stack([w for w, _ in oracle])
        want_masks = np.stack([m for _, m in oracle])
        np.testing.assert_array_equal(masks, want_masks)
        np.testing.assert_array_equal(np.where(masks[:, None, :], windows.data, 0.0), want_windows)
        assert [int(m.sum()) for m in masks] == [4] * 4 + [6] * 4 + [9] * 4
        # out-of-image cells get no weight, whatever the gather put there
        want = stage2_offsets(T.tensor(feats), T.tensor(want_windows), want_masks).data
        np.testing.assert_array_equal(got, want)


class TestRefine:
    def test_self_pair_mean_error_below_hundredth_pixel(self, rng):
        # stage 1 only: neighbouring full-res pixels blend shared 1/2-res taps,
        # so stage 2 on a self pair leans toward the heavier shared tap;
        # TestHalfResReader checks stage 2 against the full-res read instead
        fine = T.tensor(rng.standard_normal((64, 16, 16)).astype(np.float32))
        matches = [CoarseMatch(i, i, 1.0) for i in range(16)]
        out = refine(matches, fine, fine, (4, 4), (4, 4), w=8, two_stage=False)
        assert len(out) == 16
        errs = [np.hypot(m.pt_b[0] - m.pt_a[0], m.pt_b[1] - m.pt_a[1]) for m in out]
        assert np.mean(errs) < 0.01

    def test_at_most_one_fine_match_per_coarse(self, rng):
        fine_a = T.tensor(rng.standard_normal((6, 16, 16)).astype(np.float32))
        fine_b = T.tensor(rng.standard_normal((6, 16, 16)).astype(np.float32))
        matches = [CoarseMatch(i, (i * 5) % 16, 0.5) for i in range(16)]
        out = refine(matches, fine_a, fine_b, (4, 4), (4, 4), w=8)
        assert len(out) <= len(matches)

    def test_one_fine_match_per_distinct_pixel_pair(self, rng):
        # a 16-px patch spans the whole 16x16 image (an 8x8 map), so every coarse match reads one patch pair
        fine_a = T.tensor(rng.standard_normal((6, 8, 8)).astype(np.float32))
        fine_b = T.tensor(rng.standard_normal((6, 8, 8)).astype(np.float32))
        matches = [CoarseMatch(0, 0, 0.9), CoarseMatch(1, 3, 0.8), CoarseMatch(2, 1, 0.7)]
        out = refine(matches, fine_a, fine_b, (2, 2), (2, 2), w=16)
        assert out == refine(matches[:1], fine_a, fine_b, (2, 2), (2, 2), w=16) and len(out) == 1

    def test_final_point_within_patch_footprint(self, rng):
        fine_a = T.tensor(rng.standard_normal((6, 16, 16)).astype(np.float32))
        fine_b = T.tensor(rng.standard_normal((6, 16, 16)).astype(np.float32))
        matches = [CoarseMatch(i, j, 0.5) for i in range(16) for j in [(i * 7) % 16]]
        w = 8
        out = refine(matches, fine_a, fine_b, (4, 4), (4, 4), w=w)
        for match, coarse in zip(out, matches):
            cx, cy = cell_centers(np.array([coarse.j]), (4, 4))[0]
            assert abs(match.pt_b[0] - cx) <= w / 2 * np.sqrt(2) + 1
            assert abs(match.pt_b[1] - cy) <= w / 2 * np.sqrt(2) + 1

    def test_mirrored_inputs_give_mirrored_stage1(self, rng):
        fine_a = T.tensor(rng.standard_normal((6, 16, 16)).astype(np.float32))
        fine_b = T.tensor(rng.standard_normal((6, 16, 16)).astype(np.float32))
        matches = [CoarseMatch(3, 9, 1.0), CoarseMatch(12, 2, 1.0)]
        fwd = refine(matches, fine_a, fine_b, (4, 4), (4, 4), w=8, two_stage=False)
        mirrored = [CoarseMatch(m.j, m.i, m.confidence) for m in matches]
        bwd = refine(mirrored, fine_b, fine_a, (4, 4), (4, 4), w=8, two_stage=False)
        for f, b in zip(fwd, bwd):
            assert f.pt_a == tuple(int(v) for v in b.pt_b)
            assert tuple(int(v) for v in f.pt_b) == b.pt_a

    def test_stage1_only_returns_integer_points(self, rng):
        fine = T.tensor(rng.standard_normal((6, 8, 8)).astype(np.float32))
        out = refine([CoarseMatch(0, 3, 1.0)], fine, fine, (2, 2), (2, 2), w=8, two_stage=False)
        assert float(out[0].pt_b[0]).is_integer() and float(out[0].pt_b[1]).is_integer()

    def test_batched_score_matrices_match_single(self, rng):
        pairs = [random_pair(np.random.default_rng(s), d=5, w=4) for s in range(3)]
        fine_a, origins = tile([a for a, _ in pairs])
        fine_b, _ = tile([b for _, b in pairs])
        batch = local_scores(fine_a, fine_b, origins, origins, w=4).data
        for k, (a, b) in enumerate(pairs):
            single = local_scores(T.tensor(a), T.tensor(b), np.zeros((1, 2), int), np.zeros((1, 2), int), w=4)
            np.testing.assert_allclose(batch[k], single.data[0], atol=1e-6)


def half_and_full(rng, d, height, width, dtype=np.float32):
    """A normalized seeded (d, height, width) map, as refinement receives it,
    and the renormalized full-res map its reader stands for."""
    half = normalize_cells(T.tensor(rng.standard_normal((d, height, width)).astype(dtype)))
    return half, normalize_cells(T.bilinear_upsample(half, 2))


def even_origins(full, w):
    """Every even (x0, y0) at which a w-by-w patch fits the (d, H, W) map, all four borders included."""
    _, height, width = full.shape
    ys, xs = np.meshgrid(np.arange(0, height - w + 1, 2), np.arange(0, width - w + 1, 2), indexing="ij")
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


class TestHalfResReader:
    """The reader against a direct read of normalize(upsample x2(map)), odd and even sizes."""

    @pytest.mark.parametrize("height,width", [(4, 4), (7, 9), (8, 5)])
    @pytest.mark.parametrize("w", [2, 8])
    def test_patches_and_scores_match_full_res_oracle(self, rng, height, width, w):
        half, full = half_and_full(rng, 5, height, width)
        assert full.shape == full_shape(half)
        origins = even_origins(full, w)
        dy, dx = np.divmod(np.arange(w * w), w)
        want = full.data[:, origins[:, 1:] + dy, origins[:, :1] + dx]
        np.testing.assert_allclose(blend_patches(half, origins, w).data, want, rtol=0, atol=1e-5)
        others = origins[rng.permutation(len(origins))]
        np.testing.assert_allclose(blended_scores(half, half, origins, others, w).data,
                                   local_scores(full, full, origins, others, w).data, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("height,width", [(4, 4), (7, 9), (8, 5)])
    def test_pixels_and_windows_match_full_res_oracle(self, rng, height, width):
        half, full = half_and_full(rng, 5, height, width)
        _, full_h, full_w = full.shape
        ys, xs = np.divmod(np.arange(full_h * full_w), full_w)  # every pixel: windows on all borders leave the map
        np.testing.assert_allclose(blend_pixels(half, xs, ys).data, full.data[:, ys, xs], rtol=0, atol=1e-5)
        pixels = np.stack([xs, ys], axis=1)
        windows, masks = blended_windows(half, pixels)
        want_windows, want_masks = stage2_windows(full, pixels)
        np.testing.assert_array_equal(masks, want_masks)
        assert not masks.all()
        np.testing.assert_allclose(windows.data, want_windows.data, rtol=0, atol=1e-5)
        feats = full.data[:, ys, xs].T
        want = stage2_offsets(T.tensor(feats), want_windows, want_masks).data
        got = stage2_pixel_offsets(half, half, pixels, pixels).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)

    def test_gradients_through_the_blended_path_match_finite_differences(self, rng):
        # training backpropagates stage 1 and stage 2 through the reader into the 1/2-res map
        d, height, width, w = 3, 5, 6, 4
        raw = rng.standard_normal((d, height, width))
        origins = np.array([[0, 0], [8, 6], [4, 2]])
        pixels_a = np.array([[0, 0], [11, 9], [5, 4]])
        pixels_b = np.array([[11, 0], [0, 9], [6, 3]])

        def loss(raw_a):
            fine = normalize_cells(raw_a)
            scores = blended_scores(fine, fine, origins, origins[::-1].copy(), w)
            return weighted_sum(scores, 1) + weighted_sum(stage2_pixel_offsets(fine, fine, pixels_a, pixels_b), 2)

        leaf = parameter(raw, dtype=np.float64)
        loss(leaf).backward()
        numeric = numeric_gradient(lambda a: float(loss(T.tensor(a)).data), [raw], 0, h=1e-6)
        assert_gradients_close(leaf.grad, numeric, rtol=1e-5, atol=1e-8)
