import numpy as np
import pytest

from semimatch import tensor as T
from semimatch.instrument import counters
from semimatch.pipeline import Matcher, MatcherConfig
from semimatch.supervision import LossWeights, total_loss
from semimatch.synth import SynthConfig, SyntheticPairs, render_pair
from semimatch.train import AdamW, DivergenceError, TrainConfig, _mean, loss_curve_csv, pair_losses, train_toy

from helpers import op_census, parameter

TINY = MatcherConfig(widths=(4, 4, 8, 8), blocks=(1, 1, 1, 1), n_layers=1, n_heads=2, s=2,
                     d_fine=8, fine_patch_width=8)


def tiny_dataset(count=4):
    return SyntheticPairs(count, seed=5, cfg=SynthConfig(size=32))


class TestOptimizer:
    def test_adamw_moves_toward_minimum(self):
        p = parameter(np.array([4.0], dtype=np.float32))
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        for _ in range(200):
            opt.zero_grad()
            ((p - 1.0) * (p - 1.0)).sum().backward()
            opt.step(1.0)
        assert abs(float(p.data[0]) - 1.0) < 0.05

    def test_weight_decay_applies_to_matrices_only(self):
        w = parameter(np.ones((2, 2), dtype=np.float32))
        b = parameter(np.ones(2, dtype=np.float32))
        opt = AdamW([w, b], lr=0.0, weight_decay=0.5)
        w.grad = np.zeros_like(w.data)
        b.grad = np.zeros_like(b.data)
        opt.step(1.0)
        np.testing.assert_array_equal(w.data, 1.0)  # lr 0: no update at all
        np.testing.assert_array_equal(b.data, 1.0)


class TestTrainToy:
    def test_zero_learning_rate_keeps_parameters_bit_identical(self):
        matcher = Matcher(TINY, seed=1)
        before = {name: t.data.copy() for name, t in matcher.named_tensors()}
        train_toy(matcher, tiny_dataset(), TrainConfig(steps=3, batch_size=1, lr=0.0, seed=0))
        for name, t in matcher.named_tensors():
            assert np.array_equal(before[name], t.data), name

    def test_deterministic_given_seed(self):
        curves = []
        for _ in range(2):
            matcher = Matcher(TINY, seed=1)
            curve = train_toy(matcher, tiny_dataset(), TrainConfig(steps=3, batch_size=1, seed=7))
            curves.append([r.total for r in curve])
        assert curves[0] == curves[1]

    def test_loss_decreases_over_short_run(self):
        matcher = Matcher(TINY, seed=1)
        curve = train_toy(matcher, tiny_dataset(8), TrainConfig(steps=40, batch_size=2, seed=0, warmup_steps=5))
        first = np.mean([r.l_c for r in curve[:8]])
        last = np.mean([r.l_c for r in curve[-8:]])
        assert last < first

    def test_divergence_detection(self):
        T.set_finite_checks(False)  # so the loss check stops the run, not an op check; the fixture restores it
        matcher = Matcher(TINY, seed=1)
        for p in matcher.trainable_parameters():
            p.data *= np.float32(1e30)  # force non-finite losses immediately
        with pytest.raises(DivergenceError, match="loss became nan at step 0"):
            with np.errstate(over="ignore", invalid="ignore"):
                train_toy(matcher, tiny_dataset(), TrainConfig(steps=2, batch_size=1, seed=0))

    def test_curve_csv_format(self):
        matcher = Matcher(TINY, seed=1)
        curve = train_toy(matcher, tiny_dataset(), TrainConfig(steps=2, batch_size=1, seed=0))
        lines = loss_curve_csv(curve).splitlines()
        assert lines[0] == "step,l_c,l_f1,l_f2,total,grad_norm,step_ms"
        assert len(lines) == 3
        assert lines[1].startswith("0,")
        assert [float(line.split(",")[-2]) for line in lines[1:]] == [round(r.grad_norm, 6) for r in curve]
        assert [float(line.split(",")[-1]) for line in lines[1:]] == [round(1e3 * r.step_s, 3) for r in curve]

    def test_step_time_covers_the_step(self):
        import time

        matcher = Matcher(TINY, seed=1)
        stamps = []
        start = time.perf_counter()
        curve = train_toy(matcher, tiny_dataset(), TrainConfig(steps=3, batch_size=1, seed=0),
                          log=lambda row: stamps.append(time.perf_counter()))
        # each step ends before its row is logged and starts after the previous log
        bounds = np.diff([start] + stamps)
        assert all(0 < r.step_s <= bound for r, bound in zip(curve, bounds))

    def test_grad_norm_is_the_unclipped_gradient_norm(self):
        matcher = Matcher(TINY, seed=1)
        # clip_norm 0 disables clipping, so the last step's gradients stay as backward left them
        curve = train_toy(matcher, tiny_dataset(), TrainConfig(steps=2, batch_size=1, seed=0, clip_norm=0.0))
        params = matcher.trainable_parameters()
        norm = np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in params if p.grad is not None))
        assert norm > 0 and curve[-1].grad_norm == pytest.approx(norm, rel=1e-12)

    def test_pair_losses_build_no_dense_dual_softmax(self, rng):
        matcher = Matcher(TINY, seed=2)
        image_a, image_b, h = tiny_dataset()[0]
        counters.reset("dual_softmax")
        l_c, l_f1, _ = pair_losses(matcher, image_a, image_b, h, TrainConfig(), rng)
        assert l_c is not None and l_f1 is not None
        assert counters["dual_softmax"] == 0

    def test_pair_losses_fold_the_backbone_once_per_pair(self):
        # toy config, a batch of two 64x64 pairs, as one toy training step
        matcher = Matcher(MatcherConfig.toy(), seed=0)
        cfg = TrainConfig(batch_size=2, seed=7)
        rng = np.random.default_rng(7)
        n_blocks = sum(len(stage) for stage in matcher.backbone.stages)
        terms = ([], [], [])
        for index in range(cfg.batch_size):
            image_a, image_b, h = render_pair(7, index, SynthConfig(size=64))
            losses = pair_losses(matcher, image_a, image_b, h, cfg, rng)
            census = op_census(losses[0])
            assert census["FoldKernels"] == census["FoldBiases"] == n_blocks
            for term, loss in zip(terms, losses):
                if loss is not None:
                    term.append(loss)
        loss = total_loss(*(_mean(term) if term else 0.0 for term in terms), cfg.weights)
        census = op_census(loss)
        assert census["FoldKernels"] == cfg.batch_size * n_blocks
        assert sum(census.values()) <= 450

    @pytest.mark.parametrize("shape_a,shape_b", [((24, 24), (32, 32)), ((32, 32), (32, 40))])
    def test_pair_losses_reject_sides_off_the_training_multiple_before_any_compute(self, rng, shape_a, shape_b):
        # the toy's coarse stride 8 times its aggregation range s=2: sides must divide 16
        matcher = Matcher(MatcherConfig.toy(), seed=0)
        image_a, image_b = np.zeros(shape_a, np.float32), np.zeros(shape_b, np.float32)
        counters.reset("conv2d")
        with pytest.raises(ValueError, match="multiples of 16"):
            pair_losses(matcher, image_a, image_b, np.eye(3), TrainConfig(), rng)
        assert counters["conv2d"] == 0

    def test_pair_losses_are_finite_and_weighted_total_matches(self, rng):
        matcher = Matcher(TINY, seed=2)
        image_a, image_b, h = tiny_dataset()[0]
        l_c, l_f1, l_f2 = pair_losses(matcher, image_a, image_b, h, TrainConfig(), rng)
        for term in (l_c, l_f1, l_f2):
            if term is not None:
                assert np.isfinite(float(term.data))
        weights = LossWeights()
        from semimatch.supervision import total_loss

        total = total_loss(l_c, l_f1 if l_f1 is not None else 0.0, l_f2 if l_f2 is not None else 0.0, weights)
        expect = float(l_c.data)
        if l_f1 is not None:
            expect += weights.alpha * float(l_f1.data)
        if l_f2 is not None:
            expect += weights.beta * float(l_f2.data)
        assert np.isclose(float(total.data), expect, rtol=1e-6)
