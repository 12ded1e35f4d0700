import numpy as np

from semimatch import synth
from semimatch.geometry import apply_homography
from semimatch.refine import cell_centers
from semimatch.supervision import build_gt_homography
from semimatch.synth import SynthConfig, SyntheticPairs, make_texture, random_homography, render_pair


class TestTexture:
    def test_range_and_shape(self, rng):
        tex = make_texture(rng, 64)
        assert tex.shape == (64, 64)
        assert tex.min() >= 0.0 and tex.max() <= 1.0
        assert tex.std() > 0.05  # actual content, not a constant


class TestRandomHomography:
    def test_corners_stay_inside_frame(self):
        inside = 0
        n = 200
        corners = np.array([[0, 0], [64, 0], [64, 64], [0, 64]], dtype=np.float64)
        for seed in range(n):
            h = random_homography(np.random.default_rng(seed), 64)
            warped, valid = apply_homography(h, corners)
            ok = valid.all() and (warped >= 0).all() and (warped <= 64).all()
            inside += ok
        assert inside / n >= 0.9

    def test_produces_usable_ground_truth(self):
        for seed in range(20):
            h = random_homography(np.random.default_rng(seed), 64)
            gt = build_gt_homography(h, (64, 64), (64, 64))
            assert len(gt) >= 16  # enough supervised cells to train on


class TestRenderPair:
    def test_deterministic_per_seed_and_index(self):
        a1, b1, h1 = render_pair(3, 7, SynthConfig())
        a2, b2, h2 = render_pair(3, 7, SynthConfig())
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(h1, h2)

    def test_different_indices_differ(self):
        a1, _, _ = render_pair(3, 0, SynthConfig())
        a2, _, _ = render_pair(3, 1, SynthConfig())
        assert np.abs(a1 - a2).max() > 0.01

    def test_images_in_unit_range(self):
        a, b, _ = render_pair(0, 0, SynthConfig())
        for img in (a, b):
            assert img.shape == (64, 64)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_warp_consistency_photometry_aside(self, monkeypatch):
        """Sampling A at H^{-1}(q) approximates B up to the photometric jitter."""
        monkeypatch.setattr(synth, "GAIN_RANGE", (1.0, 1.0))
        monkeypatch.setattr(synth, "BIAS_MAX", 0.0)
        monkeypatch.setattr(synth, "NOISE_SIGMA", 0.0)
        a, b, h = render_pair(11, 2, SynthConfig())
        gt = build_gt_homography(h, (64, 64), (64, 64))
        # compare at warped cell centers, bilinear interpolation of B
        errs = []
        warped, _ = gt.warp(cell_centers(gt.pairs_a, gt.grid_a))
        for (i, center) in zip(gt.pairs_a, warped):
            r, c = divmod(int(i), 8)
            x, y = center
            if 1 <= x <= 62 and 1 <= y <= 62:
                x0, y0 = int(x), int(y)
                tx, ty = x - x0, y - y0
                val = (
                    b[y0, x0] * (1 - ty) * (1 - tx)
                    + b[y0, x0 + 1] * (1 - ty) * tx
                    + b[y0 + 1, x0] * ty * (1 - tx)
                    + b[y0 + 1, x0 + 1] * ty * tx
                )
                errs.append(abs(val - a[r * 8 + 4, c * 8 + 4]))
        assert np.median(errs) < 0.08


class TestDataset:
    def test_len_and_indexing(self):
        data = SyntheticPairs(5, seed=1)
        assert len(data) == 5
        a, b, h = data[4]
        assert a.shape == (64, 64) and h.shape == (3, 3)

    def test_out_of_range(self):
        data = SyntheticPairs(2, seed=1)
        try:
            data[2]
            assert False
        except IndexError:
            pass
