import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimatch import tensor as T
from semimatch.instrument import counters
from semimatch.matching import correlate, dual_softmax, match_coarse, mnn_select


def brute_force_mnn(m, tau=-np.inf):
    out = []
    for i in range(m.shape[0]):
        j = int(np.argmax(m[i]))
        if int(np.argmax(m[:, j])) == i and m[i, j] >= tau and np.isfinite(m[i, j]):
            out.append((i, j))
    return out


def feature_map(rng, d, h, w):
    return T.tensor(rng.standard_normal((d, h, w)).astype(np.float32))


class TestCorrelate:
    def test_orthonormal_features_give_scaled_identity(self):
        d = 4
        f = np.eye(d, dtype=np.float32).reshape(d, 2, 2)
        score = correlate(T.tensor(f), T.tensor(f), inv_temperature=7.0)
        np.testing.assert_allclose(score.s.data, 7.0 * np.eye(4), atol=1e-5)

    def test_single_cell_grids(self, rng):
        a = rng.standard_normal((5, 1, 1)).astype(np.float32)
        b = rng.standard_normal((5, 1, 1)).astype(np.float32)
        score = correlate(T.tensor(a), T.tensor(b), inv_temperature=2.0)
        assert score.s.shape == (1, 1)
        assert np.isclose(score.s.data[0, 0], 2.0 * float(a.ravel() @ b.ravel()), atol=1e-5)

    def test_matches_double_loop_oracle(self, rng):
        a = rng.standard_normal((6, 3, 4))
        b = rng.standard_normal((6, 2, 5))
        score = correlate(T.tensor(a), T.tensor(b), inv_temperature=1.3)
        fa = a.reshape(6, -1).T
        fb = b.reshape(6, -1).T
        want = np.zeros((12, 10))
        for i in range(12):
            for j in range(10):
                want[i, j] = 1.3 * float(fa[i] @ fb[j])
        np.testing.assert_allclose(score.s.data, want, atol=1e-5)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="channel"):
            correlate(feature_map(rng, 4, 2, 2), feature_map(rng, 5, 2, 2), 1.0)


class TestDualSoftmax:
    def test_single_entry(self):
        score = correlate(T.tensor(np.ones((1, 1, 1))), T.tensor(np.ones((1, 1, 1))), 1.0)
        dual_softmax(score)
        np.testing.assert_allclose(score.p.data, [[1.0]])

    def test_diagonal_dominant_closed_form(self):
        s = np.array([[10.0, 0.0], [0.0, 10.0]], dtype=np.float64)
        score = correlate(T.tensor(np.eye(2).reshape(2, 2, 1) * np.sqrt(10)),
                          T.tensor(np.eye(2).reshape(2, 2, 1) * np.sqrt(10)), 1.0)
        np.testing.assert_allclose(score.s.data, s, atol=1e-4)
        dual_softmax(score)
        expected_diag = (1.0 / (1.0 + np.exp(-10.0))) ** 2
        np.testing.assert_allclose(np.diag(score.p.data), expected_diag, atol=1e-5)
        assert score.p.data[0, 1] < 1e-4

    def test_probabilities_bounded_by_row_and_col_softmax(self, rng):
        s = T.tensor(rng.standard_normal((7, 9)))
        row = T.softmax(s, axis=1).data
        col = T.softmax(s, axis=0).data
        score = dual_softmax(correlate(feature_map(rng, 3, 1, 7), feature_map(rng, 3, 3, 3), 1.0))
        p = score.p.data
        assert np.all(p >= 0) and np.all(p <= 1)
        rp = T.softmax(score.s, axis=1).data
        cp = T.softmax(score.s, axis=0).data
        assert np.all(p <= np.minimum(rp, cp) + 1e-7)
        assert np.allclose(row.sum(axis=1), 1.0, atol=1e-6)
        assert np.allclose(col.sum(axis=0), 1.0, atol=1e-6)


class TestMnnSelect:
    def test_diagonal_dominant_selects_diagonal(self):
        m = np.eye(5) + 0.01
        got = [(c.i, c.j) for c in mnn_select(m, tau=0.0)]
        assert got == [(i, i) for i in range(5)]

    def test_hand_enumerated_case(self):
        m = np.array([[0.9, 0.8], [0.95, 0.1]])
        # row argmaxes: 0->0, 1->0; column 0 argmax is 1 => only (1, 0) mutual
        assert [(c.i, c.j) for c in mnn_select(m)] == [(1, 0)]
        assert [(c.i, c.j) for c in mnn_select(m, tau=0.2)] == [(1, 0)]
        assert mnn_select(m, tau=0.96) == []

    def test_matches_brute_force_over_seeds(self):
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((20, 30))
            got = [(c.i, c.j) for c in mnn_select(m)]
            assert got == brute_force_mnn(m), f"seed {seed}"

    def test_matches_brute_force_with_ties(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            m = rng.integers(0, 4, size=(9, 7)).astype(float)
            assert [(c.i, c.j) for c in mnn_select(m)] == brute_force_mnn(m), f"seed {seed}"

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((12, 15))
        base = [(c.i, c.j) for c in mnn_select(m)]
        for transform in (lambda x: 3.0 * x + 7.0, np.tanh, lambda x: np.exp(x / 4.0)):
            assert [(c.i, c.j) for c in mnn_select(transform(m))] == base

    def test_transpose_symmetry(self, rng):
        m = rng.standard_normal((14, 11))
        forward = {(c.i, c.j) for c in mnn_select(m)}
        backward = {(c.j, c.i) for c in mnn_select(m.T)}
        assert forward == backward

    def test_injective_both_ways(self, rng):
        m = rng.standard_normal((25, 25))
        matches = mnn_select(m)
        assert len({c.i for c in matches}) == len(matches)
        assert len({c.j for c in matches}) == len(matches)


class TestMatchCoarse:
    def test_self_matching_gives_diagonal(self, rng):
        f = feature_map(rng, 16, 4, 4)
        for mode in ("full", "optimized"):
            matches, _ = match_coarse(f, f, mode=mode, tau=0.0, inv_temperature=1.0)
            assert [(c.i, c.j) for c in matches] == [(i, i) for i in range(16)]

    def test_optimized_mode_skips_softmax(self, rng):
        fa, fb = feature_map(rng, 8, 4, 4), feature_map(rng, 8, 4, 4)
        counters.reset("softmax", "dual_softmax")
        matches, score = match_coarse(fa, fb, mode="optimized", inv_temperature=1.0)
        assert counters["softmax"] == 0 and counters["dual_softmax"] == 0
        assert score.p is None  # the probability matrix is never materialized
        assert all(np.isfinite(c.confidence) for c in matches)

    def test_full_mode_confidences_are_probabilities(self, rng):
        fa, fb = feature_map(rng, 8, 4, 4), feature_map(rng, 8, 4, 4)
        matches, score = match_coarse(fa, fb, mode="full", tau=0.0, inv_temperature=0.5)
        assert score.p is not None
        assert all(0.0 <= c.confidence <= 1.0 for c in matches)

    def test_mode_overlap_on_discriminative_features(self):
        agree = 0
        total = 0
        for trial in range(100):
            rng = np.random.default_rng(trial)
            # strongly discriminative features: distinct dominant channels
            base = np.eye(12, dtype=np.float32) * 4.0
            fa = (base + 0.2 * rng.standard_normal((12, 12))).astype(np.float32).reshape(12, 3, 4)
            fb = (base + 0.2 * rng.standard_normal((12, 12))).astype(np.float32).reshape(12, 3, 4)
            full, _ = match_coarse(T.tensor(fa), T.tensor(fb), mode="full", tau=0.0, inv_temperature=1.0)
            fast, _ = match_coarse(T.tensor(fa), T.tensor(fb), mode="optimized", inv_temperature=1.0)
            sf = {(c.i, c.j) for c in full}
            so = {(c.i, c.j) for c in fast}
            agree += len(sf & so)
            total += max(len(sf), 1)
        assert agree / total >= 0.9

    def test_valid_masks_exclude_padded_cells(self, rng):
        fa, fb = feature_map(rng, 8, 3, 3), feature_map(rng, 8, 3, 3)
        valid = np.ones(9, dtype=bool)
        valid[4:] = False
        matches, _ = match_coarse(fa, fb, mode="optimized", inv_temperature=1.0, valid_a=valid)
        assert all(c.i < 4 for c in matches)

    def test_unknown_mode(self, rng):
        with pytest.raises(ValueError, match="mode"):
            match_coarse(feature_map(rng, 4, 2, 2), feature_map(rng, 4, 2, 2), mode="turbo", inv_temperature=1.0)
