import numpy as np
import pytest

from semimatch import tensor as T
from semimatch.backbone import Backbone, RepVGGBlock, pad_to_multiple
from semimatch.instrument import counters
from semimatch.pipeline import MatcherConfig

from helpers import drawn, parameter, tape_size, weighted_sum

TOY = MatcherConfig.toy()


def randomize_block_stats(block: RepVGGBlock, rng) -> None:
    for stats in (block.conv3x3.bn, block.conv1x1.bn, block.identity):
        if stats is None:
            continue
        stats.mean.data[:] = rng.normal(0, 0.6, stats.mean.shape).astype(stats.mean.dtype)
        stats.var.data[:] = rng.uniform(0.2, 2.5, stats.var.shape).astype(stats.var.dtype)
        stats.scale.data[:] = rng.normal(1.0, 0.3, stats.scale.shape).astype(stats.scale.dtype)
        stats.shift.data[:] = rng.normal(0, 0.3, stats.shift.shape).astype(stats.shift.dtype)


def fused_forward(block, x):
    kernel, bias = block.fuse()
    return T.conv2d(x, T.tensor(kernel), T.tensor(bias), stride=block.stride, pad=1).relu()


class TestFuseBlock:
    def test_pure_identity_block_is_dirac(self, rng):
        block = RepVGGBlock(3, 3, 1, drawn(rng))
        block.conv3x3.kernel.data[:] = 0
        block.conv1x1.kernel.data[:] = 0
        kernel, bias = block.fuse()
        want = np.zeros_like(kernel)
        want[np.arange(3), np.arange(3), 1, 1] = 1.0 / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(kernel, want, atol=1e-7)
        np.testing.assert_allclose(bias, 0.0, atol=1e-7)

    def test_1x1_branch_pads_to_center(self, rng):
        block = RepVGGBlock(2, 4, 2, drawn(rng))  # stride 2: no identity branch
        block.conv3x3.kernel.data[:] = 0
        w = rng.standard_normal((4, 2, 1, 1)).astype(np.float32)
        block.conv1x1.kernel.data[:] = w
        kernel, _ = block.fuse()
        np.testing.assert_allclose(kernel[:, :, 1, 1], w[:, :, 0, 0] / np.sqrt(1 + 1e-5), atol=1e-6)
        kernel[:, :, 1, 1] = 0
        np.testing.assert_array_equal(kernel, 0)

    def test_forward_equivalence_random_blocks(self, rng):
        for trial in range(20):
            in_c = int(rng.integers(1, 6))
            out_c = in_c if trial % 2 == 0 else int(rng.integers(1, 6))
            stride = 1 if trial % 3 else 2
            block = RepVGGBlock(in_c, out_c, stride, drawn(rng))
            randomize_block_stats(block, rng)
            worst = 0.0
            for _ in range(5):
                x = T.tensor(rng.standard_normal((in_c, 8, 8)).astype(np.float32))
                with T.no_grad():
                    a = block.forward(x)
                    b = fused_forward(block, x)
                worst = max(worst, float(np.abs(a.data - b.data).max()))
            assert worst <= 1e-4

    @pytest.mark.parametrize("in_c,out_c,stride", [(4, 4, 1), (3, 5, 1), (4, 4, 2)],
                             ids=["identity", "no-identity", "stride-2"])
    def test_fold_matches_multi_branch_with_gradients(self, rng, in_c, out_c, stride):
        registry = drawn(rng, np.float64)
        block = RepVGGBlock(in_c, out_c, stride, registry)
        randomize_block_stats(block, rng)
        assert (block.identity is not None) == (in_c == out_c and stride == 1)
        params = [t for t in registry.tensors.values() if t.requires_grad]
        x_data = rng.standard_normal((in_c, 9, 8))
        results = []
        for run in (block.forward, lambda x: T.conv2d(x, *block.fold(), stride=stride, pad=1).relu()):
            for p in params:
                p.grad = None
            x = parameter(x_data, dtype=np.float64)
            out = run(x)
            weighted_sum(out, 3).backward()
            results.append((out.data, x.grad, [p.grad for p in params]))
        (out_m, dx_m, grads_m), (out_f, dx_f, grads_f) = results
        for got, want in zip([out_f, dx_f, *grads_f], [out_m, dx_m, *grads_m]):
            assert np.abs(got - want).max() <= 1e-10 * max(np.abs(want).max(), 1.0)

    def test_fold_records_two_ops(self, rng):
        block = RepVGGBlock(4, 4, 1, drawn(rng))
        kernel, bias = block.fold()
        assert tape_size(kernel) == tape_size(bias) == 1

    def test_forward_equivalence_float64(self, rng):
        block = RepVGGBlock(4, 4, 1, drawn(rng, np.float64))
        randomize_block_stats(block, rng)
        x = T.tensor(rng.standard_normal((4, 8, 8)), dtype=np.float64)
        with T.no_grad():
            diff = np.abs(block.forward(x).data - fused_forward(block, x).data).max()
        assert diff <= 1e-10


class TestBackboneForward:
    def test_default_config_coarse_shape(self, rng):
        backbone = Backbone(MatcherConfig(), drawn(rng))
        with T.no_grad():
            image = T.tensor(rng.random((1, 64, 64), dtype=np.float64).astype(np.float32))
            pyramid = backbone.fold().forward_deploy(image)
        assert pyramid.f_coarse.shape == (256, 8, 8)
        assert pyramid.f_half.shape == (64, 32, 32)
        assert pyramid.f_quarter.shape == (128, 16, 16)

    def test_zero_image_gives_constant_maps(self, rng):
        backbone = Backbone(TOY, drawn(rng))
        with T.no_grad():
            pyramid = backbone.fold().forward_deploy(T.tensor(np.zeros((1, 32, 32), dtype=np.float32)))
        for level in (pyramid.f_half, pyramid.f_quarter, pyramid.f_coarse):
            spread = level.data.max(axis=(1, 2)) - level.data.min(axis=(1, 2))
            np.testing.assert_allclose(spread, 0.0, atol=1e-6)

    def test_train_equals_deploy(self, rng):
        backbone = Backbone(TOY, drawn(rng))
        for stage in backbone.stages:
            for block in stage:
                randomize_block_stats(block, rng)
        image = T.tensor(rng.random((1, 64, 64), dtype=np.float64).astype(np.float32))
        train_pyr = backbone.fold().forward_deploy(image)  # on the tape, as in training
        with T.no_grad():
            deploy_pyr = backbone.fuse().forward_deploy(image)
        for a, b in ((train_pyr.f_half, deploy_pyr.f_half),
                     (train_pyr.f_quarter, deploy_pyr.f_quarter),
                     (train_pyr.f_coarse, deploy_pyr.f_coarse)):
            assert np.abs(a.data - b.data).max() <= 1e-4

    def test_deploy_runs_one_conv_per_block(self, rng):
        backbone = Backbone(TOY, drawn(rng))
        fused = backbone.fuse()
        counters.reset("conv2d")
        with T.no_grad():
            fused.forward_deploy(T.tensor(rng.random((1, 32, 32)).astype(np.float32)))
        assert counters["conv2d"] == sum(TOY.blocks)

    @pytest.mark.parametrize("config,winograd", [(MatcherConfig(), 17), (TOY, 0)])
    def test_wide_stride_one_blocks_run_winograd(self, rng, config, winograd):
        # paper widths: every stride-1 block past the 1-channel stem is >= 64 wide
        backbone = Backbone(config, drawn(rng))
        image = T.tensor(rng.random((1, 32, 32)).astype(np.float32))
        counters.reset("conv2d", "conv2d_winograd")
        with T.no_grad():
            backbone.fuse().forward_deploy(image)
        assert counters["conv2d"] == sum(config.blocks)
        assert counters["conv2d_winograd"] == winograd
        # training runs the folded form on the tape, all im2col: Winograd is forward-only
        assert backbone.fold().forward_deploy(image).f_coarse.requires_grad
        assert counters["conv2d"] == 2 * sum(config.blocks)
        assert counters["conv2d_winograd"] == winograd

    def test_forward_train_records_at_most_four_ops_per_block(self, rng):
        # per block: fold kernel, fold bias, conv, relu
        backbone = Backbone(TOY, drawn(rng))
        pyramid = backbone.fold().forward_deploy(T.tensor(rng.random((1, 32, 32)).astype(np.float32)))
        assert tape_size(pyramid.f_coarse) <= 4 * sum(TOY.blocks)

    def test_deploy_not_slower_than_train(self, rng):
        # against the multi-branch network the deploy form replaces; training
        # runs the folded form, which costs the same as deploy
        import time

        backbone = Backbone(TOY, drawn(rng))
        image = T.tensor(rng.random((1, 256, 256)).astype(np.float32))
        fused = backbone.fuse()

        def multi_branch(x):
            for stage in backbone.stages:
                for block in stage:
                    x = block.forward(x)
            return x

        def best_of(fn, reps=3):
            best = float("inf")
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            return best

        with T.no_grad():
            multi_branch(image); fused.forward_deploy(image)  # warm
            multi_time = best_of(lambda: multi_branch(image))
            deploy_time = best_of(lambda: fused.forward_deploy(image))
        assert deploy_time <= multi_time

    def test_rejects_bad_dims(self, rng):
        backbone = Backbone(TOY, drawn(rng))
        with pytest.raises(ValueError, match="divisible"):
            backbone.fold().forward_deploy(T.tensor(np.zeros((1, 60, 64), dtype=np.float32)))


class TestHelpers:
    def test_pad_to_multiple(self):
        padded, dims = pad_to_multiple(np.ones((13, 17)), 8)
        assert padded.shape == (16, 24) and dims == (13, 17)
        assert padded[13:].sum() == 0 and padded[:, 17:].sum() == 0
        padded32, _ = pad_to_multiple(np.ones((13, 17)), 32)
        assert padded32.shape == (32, 32)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="four stages"):
            MatcherConfig(widths=(8, 8), blocks=(1, 1))
