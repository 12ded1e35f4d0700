import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimatch.geometry import (
    DegenerateGeometryError,
    apply_homography,
    corner_auc,
    corner_reprojection_error,
    dlt_homography,
    normalize_homography,
    ransac_homography,
    symmetric_transfer_errors,
)


def random_homography(rng, scale=0.15):
    h = np.eye(3) + rng.normal(0, scale, (3, 3))
    h[2, :2] *= 0.01
    h[2, 2] = 1.0
    return h


class TestApplyHomography:
    def test_identity(self, rng):
        pts = rng.uniform(-10, 10, (7, 2))
        out, valid = apply_homography(np.eye(3), pts)
        np.testing.assert_array_equal(out, pts)
        assert valid.all()

    def test_pure_translation(self, rng):
        h = np.eye(3)
        h[:2, 2] = [3.0, -2.0]
        pts = rng.uniform(0, 5, (4, 2))
        out, _ = apply_homography(h, pts)
        np.testing.assert_allclose(out, pts + [3.0, -2.0], atol=1e-12)

    def test_matches_matrix_divide_oracle(self, rng):
        h = random_homography(rng)
        pts = rng.uniform(-20, 20, (50, 2))
        out, _ = apply_homography(h, pts)
        for p, q in zip(pts, out):
            v = h @ np.array([p[0], p[1], 1.0])
            np.testing.assert_allclose(q, v[:2] / v[2], atol=1e-9)

    def test_point_at_infinity_flagged(self):
        h = np.eye(3)
        h[2] = [1.0, 0.0, 0.0]  # depth = x
        _, valid = apply_homography(h, np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert not valid[0] and valid[1]

    def test_inverse_round_trip(self, rng):
        h = random_homography(rng)
        pts = rng.uniform(0, 100, (30, 2))
        fwd, _ = apply_homography(h, pts)
        back, _ = apply_homography(np.linalg.inv(h), fwd)
        np.testing.assert_allclose(back, pts, atol=1e-6)


class TestDlt:
    def test_recovers_known_homography_from_square(self, rng):
        h = random_homography(rng)
        src = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        dst, _ = apply_homography(h, src)
        got = dlt_homography(src, dst)
        np.testing.assert_allclose(got, normalize_homography(h), atol=1e-6)

    def test_identity_correspondences(self, rng):
        pts = rng.uniform(0, 50, (8, 2))
        got = dlt_homography(pts, pts)
        np.testing.assert_allclose(got, np.eye(3), atol=1e-8)

    def test_collinear_sources_degenerate(self):
        src = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        dst = src + 1.0
        with pytest.raises(DegenerateGeometryError):
            dlt_homography(src, dst)

    def test_needs_four_pairs(self, rng):
        pts = rng.uniform(0, 5, (3, 2))
        with pytest.raises(ValueError, match=">= 4"):
            dlt_homography(pts, pts)

    def test_noise_free_corner_error_tiny(self, rng):
        h = random_homography(rng)
        src = rng.uniform(0, 256, (40, 2))
        dst, _ = apply_homography(h, src)
        got = dlt_homography(src, dst)
        assert corner_reprojection_error(got, h, 256, 256) < 1e-6


class TestRansac:
    def test_noise_free_recovery(self, rng):
        h = random_homography(rng)
        src = rng.uniform(0, 256, (60, 2))
        dst, _ = apply_homography(h, src)
        got, inliers = ransac_homography(src, dst, threshold_px=3.0, seed=5)
        assert inliers.all()
        assert corner_reprojection_error(got, h, 256, 256) < 1e-3

    def test_half_outliers_twenty_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            h = random_homography(rng, scale=0.1)
            src = rng.uniform(0, 256, (200, 2))
            dst, _ = apply_homography(h, src)
            outliers = rng.choice(200, size=100, replace=False)
            dst[outliers] = rng.uniform(0, 256, (100, 2))
            got, _ = ransac_homography(src, dst, threshold_px=3.0, seed=seed)
            assert corner_reprojection_error(got, h, 256, 256) < 1.0, f"seed {seed}"

    def test_deterministic_given_seed(self, rng):
        src = rng.uniform(0, 100, (50, 2))
        dst, _ = apply_homography(random_homography(rng), src)
        dst[::7] += 20.0
        h1, m1 = ransac_homography(src, dst, threshold_px=3.0, seed=3)
        h2, m2 = ransac_homography(src, dst, threshold_px=3.0, seed=3)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(m1, m2)

    def test_too_few_matches(self, rng):
        pts = rng.uniform(0, 5, (3, 2))
        with pytest.raises(ValueError, match=">= 4"):
            ransac_homography(pts, pts, threshold_px=3.0, seed=0)

    @pytest.mark.parametrize("setting,value", [
        ("threshold_px", 0.0), ("threshold_px", -1.0), ("threshold_px", float("inf")), ("threshold_px", float("nan")),
    ])
    def test_unusable_setting_raises_value_error_naming_it(self, rng, setting, value):
        src = rng.uniform(0, 100, (20, 2))
        dst, _ = apply_homography(random_homography(rng), src)
        with pytest.raises(ValueError, match=setting):
            ransac_homography(src, dst, **{"threshold_px": 3.0, "seed": 0, setting: value})

    def test_symmetric_transfer_error_is_max_of_directions(self, rng):
        h = random_homography(rng)
        src = rng.uniform(0, 64, (10, 2))
        dst, _ = apply_homography(h, src)
        dst[0] += [5.0, 0.0]
        errs = symmetric_transfer_errors(h, src, dst)
        assert errs[0] >= 5.0 - 1e-6
        np.testing.assert_allclose(errs[1:], 0.0, atol=1e-9)


class TestCornerAuc:
    def test_zero_errors_give_one(self):
        auc = corner_auc([0.0, 0.0, 0.0])
        assert auc == {3.0: 1.0, 5.0: 1.0, 10.0: 1.0}

    def test_all_errors_beyond_thresholds_give_zero(self):
        auc = corner_auc([10.0, 25.0, 1e6])
        assert auc[3.0] == 0.0 and auc[5.0] == 0.0 and auc[10.0] == 0.0

    def test_closed_form_half_area(self):
        auc = corner_auc([0.0, 5.0])
        assert np.isclose(auc[5.0], 0.5)

    @given(st.lists(st.floats(0, 50), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_threshold(self, errors):
        auc = corner_auc(errors)
        assert auc[3.0] <= auc[5.0] + 1e-12
        assert auc[5.0] <= auc[10.0] + 1e-12

    def test_empty_errors_rejected(self):
        with pytest.raises(ValueError):
            corner_auc([])

    def test_negative_errors_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            corner_auc([-1.0])
