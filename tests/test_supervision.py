import numpy as np
import pytest

from semimatch import tensor as T
from semimatch.matching import ScoreMatrix, dual_softmax
from semimatch.refine import cell_centers
from semimatch.supervision import (
    EmptySupervisionError,
    LossWeights,
    build_gt_homography,
    coarse_loss,
    fine_loss_stage1,
    fine_loss_stage2,
    total_loss,
)

from helpers import parameter


class TestBuildGtHomography:
    def test_identity_maps_diagonal(self):
        gt = build_gt_homography(np.eye(3), (32, 32), (32, 32))
        assert len(gt) == 16
        np.testing.assert_array_equal(gt.pairs_a, gt.pairs_b)
        centers, _ = gt.warp(cell_centers(gt.pairs_a, gt.grid_a))
        np.testing.assert_array_equal(centers[0], [4.0, 4.0])

    def test_translation_by_one_cell_shifts_column(self):
        h = np.eye(3)
        h[0, 2] = 8.0  # +8 px in x: one coarse column
        gt = build_gt_homography(h, (32, 32), (32, 32))
        grid_w = 4
        for i, j in zip(gt.pairs_a, gt.pairs_b):
            assert j == i + 1  # same row, next column
            assert (i % grid_w) < grid_w - 1  # last column warps out and is masked
        assert len(gt) == 12

    def test_matches_pointwise_warp_oracle(self, rng):
        h = np.eye(3) + rng.normal(0, 0.02, (3, 3))
        h[2, 2] = 1.0
        gt = build_gt_homography(h, (48, 40), (40, 48))
        centers, _ = gt.warp(cell_centers(gt.pairs_a, gt.grid_a))
        for i, j, center in zip(gt.pairs_a, gt.pairs_b, centers):
            r, c = divmod(i, 5)
            p = np.array([c * 8 + 4, r * 8 + 4, 1.0])
            q = h @ p
            q = q[:2] / q[2]
            np.testing.assert_allclose(center, q, atol=1e-9)
            assert 0 <= q[0] < 48 and 0 <= q[1] < 40
            jr, jc = divmod(j, 6)
            assert jc == np.clip(round((q[0] - 4) / 8), 0, 5)
            assert jr == np.clip(round((q[1] - 4) / 8), 0, 4)

    def test_warped_pair_centers_within_half_cell(self, rng):
        h = np.eye(3) + rng.normal(0, 0.01, (3, 3))
        h[2, 2] = 1.0
        gt = build_gt_homography(h, (64, 64), (64, 64))
        centers, _ = gt.warp(cell_centers(gt.pairs_a, gt.grid_a))
        for j, center in zip(gt.pairs_b, centers):
            jr, jc = divmod(j, 8)
            target = np.array([jc * 8 + 4, jr * 8 + 4])
            interior = (center > 4).all() and (center < 60).all()
            if interior:
                assert np.abs(center - target).max() <= 4.0 + 1e-9

    def test_gt_consistent_under_integer_cell_translation(self, rng):
        h = np.eye(3) + rng.normal(0, 0.005, (3, 3))
        h[2, 2] = 1.0
        shift = np.eye(3)
        shift[0, 2] = 16.0  # two cells right
        gt_base = build_gt_homography(h, (64, 64), (64, 64))
        gt_shift = build_gt_homography(shift @ h, (64, 64), (64, 64))
        shifted = {}
        for i, j in zip(gt_base.pairs_a, gt_base.pairs_b):
            jr, jc = divmod(j, 8)
            if jc + 2 < 8:
                shifted[i] = jr * 8 + jc + 2
        moved = dict(zip(gt_shift.pairs_a, gt_shift.pairs_b))
        agree = sum(moved.get(i) == j for i, j in shifted.items())
        # boundary rounding can flip nearest-cell picks; the bulk must agree
        assert agree >= 0.9 * len(shifted)

    def test_singular_homography_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            build_gt_homography(np.zeros((3, 3)), (32, 32), (32, 32))


def dual_softmax_probs(s: np.ndarray) -> np.ndarray:
    return dual_softmax(ScoreMatrix(T.tensor(s, dtype=np.float64), (1, 1), (1, 1))).p.data


class TestCoarseLoss:
    # coarse_loss takes the (Na, Nb) score matrix; expected values go
    # through matching.dual_softmax
    def test_probability_one_gives_zero(self):
        gt = build_gt_homography(np.eye(3), (16, 16), (16, 16))
        s = np.where(np.eye(4, dtype=bool), 1e4, -1e4).astype(np.float32)
        assert np.all(dual_softmax_probs(s)[gt.pairs_a, gt.pairs_b] == 1.0)
        assert float(coarse_loss(T.tensor(s), gt).data) == 0.0

    def test_log_identity(self):
        # 4x4 scores, diagonal d, zero elsewhere: both softmaxes put e^d / (e^d + 3)
        # on the diagonal, so d = log(3q / (1 - q)) with q = e^(-1/2) gives p = e^-1
        gt = build_gt_homography(np.eye(3), (16, 16), (16, 16))
        q = np.exp(-0.5)
        s = np.eye(4) * np.log(3.0 * q / (1.0 - q))
        assert np.allclose(dual_softmax_probs(s)[gt.pairs_a, gt.pairs_b], np.exp(-1.0), atol=1e-12)
        assert np.isclose(float(coarse_loss(T.tensor(s, dtype=np.float64), gt).data), 1.0, atol=1e-12)

    def test_matches_float64_summation(self, rng):
        gt = build_gt_homography(np.eye(3), (32, 32), (32, 32))
        s = rng.standard_normal((16, 16)) * 3.0
        p = dual_softmax_probs(s)
        got = float(coarse_loss(T.tensor(s, dtype=np.float64), gt).data)
        want = -np.mean([np.log(p[i, j]) for i, j in zip(gt.pairs_a, gt.pairs_b)])
        assert abs(got - want) < 1e-6

    def test_empty_gt_is_an_error(self):
        h = np.eye(3)
        h[0, 2] = 1e5  # everything warps out of B
        gt = build_gt_homography(h, (16, 16), (16, 16))
        with pytest.raises(EmptySupervisionError):
            coarse_loss(T.tensor(np.ones((4, 4), dtype=np.float32)), gt)

    def test_gradient_finite_under_probability_floor(self):
        gt = build_gt_homography(np.eye(3), (16, 16), (16, 16))
        s_data = np.where(np.eye(4, dtype=bool), -100.0, 0.0)
        assert np.all(dual_softmax_probs(s_data)[gt.pairs_a, gt.pairs_b] < 1e-30)
        s = parameter(s_data, dtype=np.float64)
        loss = coarse_loss(s, gt)
        assert np.isfinite(float(loss.data))
        loss.backward()
        assert np.all(np.isfinite(s.grad))


class TestFineLosses:
    def test_one_hot_probability_gives_zero_stage1(self):
        s = np.full((1, 4, 4), -1e4, dtype=np.float32)
        s[0, 2, 3] = 1e4
        loss = fine_loss_stage1(T.tensor(s), np.array([2]), np.array([3]), np.array([True]))
        assert float(loss.data) < 1e-5

    def test_all_masked_is_error(self, rng):
        s = T.tensor(rng.standard_normal((2, 4, 4)).astype(np.float32))
        with pytest.raises(EmptySupervisionError):
            fine_loss_stage1(s, np.zeros(2, int), np.zeros(2, int), np.zeros(2, bool))

    def test_stage1_matches_float64_oracle(self, rng):
        n, w2 = 3, 9
        s = rng.standard_normal((n, w2, w2))
        ia = rng.integers(0, w2, n)
        ib = rng.integers(0, w2, n)
        got = float(fine_loss_stage1(T.tensor(s, dtype=np.float64), ia, ib, np.ones(n, bool)).data)
        want = 0.0
        for k in range(n):
            row = np.exp(s[k] - s[k].max(axis=1, keepdims=True))
            row /= row.sum(axis=1, keepdims=True)
            col = np.exp(s[k] - s[k].max(axis=0, keepdims=True))
            col /= col.sum(axis=0, keepdims=True)
            want -= np.log(row[ia[k], ib[k]] * col[ia[k], ib[k]]) / n
        assert abs(got - want) < 1e-6

    def test_stage2_exact_prediction_is_zero(self):
        pred = T.tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert float(fine_loss_stage2(pred, np.array([[1.0, 2.0], [3.0, 4.0]])).data) == 0.0

    def test_stage2_unit_offset(self):
        pred = T.tensor(np.array([[1.0, 0.0]]))
        assert float(fine_loss_stage2(pred, np.array([[0.0, 0.0]])).data) == 1.0

    def test_stage2_matches_direct_computation(self, rng):
        pred = rng.standard_normal((6, 2))
        target = rng.standard_normal((6, 2))
        got = float(fine_loss_stage2(T.tensor(pred, dtype=np.float64), target).data)
        assert np.isclose(got, ((pred - target) ** 2).sum(axis=1).mean())

    def test_stage2_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            fine_loss_stage2(T.tensor(np.zeros((2, 2))), np.zeros((3, 2)))


class TestTotalLoss:
    def test_unit_components_with_default_weights(self):
        assert total_loss(1.0, 1.0, 1.0) == 2.25

    def test_zero_components(self):
        assert total_loss(0.0, 0.0, 0.0) == 0.0

    def test_zero_weights_leave_coarse_only(self):
        assert total_loss(3.0, 10.0, 10.0, LossWeights(alpha=0.0, beta=0.0)) == 3.0

    def test_linear_in_components(self, rng):
        w = LossWeights(alpha=0.7, beta=0.2)
        a, b, c = rng.uniform(0, 5, 3)
        assert np.isclose(total_loss(a, b, c, w), a + 0.7 * b + 0.2 * c)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LossWeights(alpha=-1.0)
