import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from semimatch import lanes
from semimatch import tensor as T
from semimatch.backbone import Backbone, FeaturePyramid, FusedBackbone
from semimatch.evaluate import STAGES, bench_pipeline, timings_csv
from semimatch.instrument import OpCounters, counters
from semimatch.pipeline import Matcher, MatcherConfig
from semimatch.refine import FineFusion, full_shape
from semimatch.synth import SynthConfig, render_pair
from semimatch.transform import AggAttentionBlock, FeatureTransform, transform_macs

from helpers import drawn, lanes_at_any_work, lanes_never, set_openblas_threads

TINY = MatcherConfig(widths=(4, 4, 8, 8), blocks=(1, 1, 1, 1), n_layers=1, n_heads=2, s=2,
                     d_fine=8, fine_patch_width=8)


@pytest.fixture(scope="module")
def matcher():
    return Matcher(TINY, seed=0)


@pytest.fixture(scope="module")
def pair():
    a, b, _ = render_pair(0, 0, SynthConfig(size=128))
    return a, b


class TestBenchPipeline:
    def test_single_repetition_gives_one_sample_per_stage(self, matcher, pair):
        timings = bench_pipeline(matcher, *pair, mode="full", repetitions=1, warmup=0)
        assert timings.repetitions == 1
        for stage in (*STAGES, "total"):
            assert timings.mean[stage] == timings.median[stage]

    def test_stage_times_sum_close_to_total(self, matcher, pair):
        timings = bench_pipeline(matcher, *pair, mode="full", repetitions=3, warmup=1)
        stage_sum = sum(timings.mean[s] for s in STAGES)
        assert abs(stage_sum - timings.mean["total"]) <= 0.1 * timings.mean["total"]

    def test_optimized_coarse_stage_faster_at_large_grid(self, matcher):
        # 320x240 image -> 40x30 coarse grid; the dual-softmax is the
        # dominant coarse-stage cost there
        a, b, _ = render_pair(1, 0, SynthConfig(size=320))
        a, b = a[:240], b[:240]
        full = bench_pipeline(matcher, a, b, mode="full", repetitions=3, warmup=1)
        fast = bench_pipeline(matcher, a, b, mode="optimized", repetitions=3, warmup=1)
        assert fast.median["coarse_match"] < full.median["coarse_match"]

    def test_repetitions_must_be_positive(self, matcher, pair):
        with pytest.raises(ValueError, match=">= 1"):
            bench_pipeline(matcher, *pair, mode="full", repetitions=0, warmup=1)

    def test_negative_warmup_is_rejected_before_any_run(self, matcher, pair):
        counters.reset("dual_softmax")
        with pytest.raises(ValueError, match="warmup"):
            bench_pipeline(matcher, *pair, mode="full", repetitions=1, warmup=-2)
        assert counters["dual_softmax"] == 0

    def test_warmup_count_respected(self, matcher, pair):
        counters.reset("dual_softmax")
        bench_pipeline(matcher, *pair, mode="full", repetitions=2, warmup=3)
        # every full-mode run computes exactly one dual-softmax
        assert counters["dual_softmax"] == 5

    def test_csv_and_summary_formats(self, matcher, pair):
        timings = bench_pipeline(matcher, *pair, mode="full", repetitions=1, warmup=0)
        lines = timings_csv(timings).splitlines()
        assert lines[0] == "stage,mean_ms,median_ms"
        assert len(lines) == len(STAGES) + 2
        assert "pipeline timings" in timings.summary()


class TestMatchPair:
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_pixel_raises_before_any_compute(self, matcher, pair, side):
        images = [np.array(x, dtype=np.float64) for x in pair]
        images[side][5, 7] = np.nan if side == 0 else np.inf
        counters.reset("conv2d")
        previous = T.set_finite_checks(False)  # the library default: no per-op checks
        try:
            with pytest.raises(T.NumericError, match="non-finite pixels"):
                matcher.match_pair(*images, mode="optimized")
        finally:
            T.set_finite_checks(previous)
        assert counters["conv2d"] == 0

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("shape", [(64, 64, 3), (5,), (0, 0), (0, 64), ()], ids=str)
    def test_malformed_image_raises_before_any_compute(self, matcher, pair, side, shape):
        images = list(pair)
        images[side] = np.zeros(shape, dtype=np.float32)
        counters.reset("conv2d")
        with pytest.raises(ValueError, match=f"{('image_a', 'image_b')[side]} must be a 2-D"):
            matcher.match_pair(*images, mode="optimized")
        assert counters["conv2d"] == 0

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_pixels_outside_unit_range_raise_before_any_compute(self, matcher, pair, side, dtype):
        images = list(pair)
        images[side] = np.round(images[side] * 255).astype(dtype)  # 8-bit values, not divided by 255
        counters.reset("conv2d")
        with pytest.raises(ValueError, match=f"{('image_a', 'image_b')[side]} has pixels in .*divide 8-bit"):
            matcher.match_pair(*images, mode="optimized")
        assert counters["conv2d"] == 0

    def test_pixels_at_exactly_zero_and_one_pass(self, matcher, pair):
        images = [np.zeros_like(pair[0]), np.ones_like(pair[1])]
        images[0][0, 0], images[1][0, 0] = 1.0, 0.0
        matcher.match_pair(*images, mode="optimized")

    def test_no_coarse_matches_skips_fine_fusion(self, matcher, pair):
        # full-mode confidences are products of two softmaxes, below 1 unless both
        # are one-hot, so tau = 1 leaves nothing to refine
        fused = matcher.fuse()
        counters.reset("conv2d")
        result = matcher.match_pair(*pair, mode="full", tau=1.0, fused=fused)
        assert result.coarse == [] and result.fine == []
        # only the backbone convolved: one conv per block and image
        assert counters["conv2d"] == 2 * sum(matcher.config.blocks)
        assert set(STAGES) <= set(result.timings)


class RecordingBackbone(FusedBackbone):
    """A fused backbone that records the thread running each image's
    ``forward_deploy``, keyed by the image's first pixel. With ``run=False``
    it returns the image instead of convolving it."""

    def __init__(self, fused, run=False):
        super().__init__(fused.stages)
        self.run = run
        self.threads = {}

    def forward_deploy(self, image):
        self.threads[float(image.data.flat[0])] = threading.current_thread()
        return super().forward_deploy(image) if self.run else image


def recorder_for(config):
    return RecordingBackbone(Backbone(config, drawn(np.random.default_rng(0))).fuse())


def images(*arrays):
    return [T.tensor(array[None]) for array in arrays]


TWO_CPUS = lanes.free_cpus() >= 2


@pytest.mark.usefixtures("blas_one_thread")
class TestConcurrentBackbones:
    @pytest.mark.parametrize("config,size,threaded", [
        (MatcherConfig.toy(), 64, False),  # ~2.7 M multiply-adds per image
        (MatcherConfig.toy(), 256, True),  # ~42 M
        (MatcherConfig.toy(), 1024, True),
        (MatcherConfig(), 256, True),  # ~11.5 G
        (MatcherConfig(), 64, True),
    ], ids=["toy-64", "toy-256", "toy-1024", "paper-256", "paper-64"])
    def test_image_b_runs_on_a_worker_only_above_the_work_rule(self, config, size, threaded):
        recorder = recorder_for(config)
        with T.no_grad():
            pyr_a, pyr_b = recorder.forward_pair(*images(np.zeros((size, size)), np.ones((size, size))))
        assert pyr_a.data.flat[0] == 0.0 and pyr_b.data.flat[0] == 1.0
        assert recorder.threads[0.0] is threading.current_thread()
        assert (recorder.threads[1.0] is not threading.current_thread()) == (threaded and TWO_CPUS)
        assert (recorder.macs(size, size) >= lanes.IN_ORDER_MACS) == threaded

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        recorder = recorder_for(MatcherConfig())
        with T.no_grad():
            recorder.forward_pair(*images(np.zeros((256, 256)), np.ones((256, 256))))
        assert recorder.threads[1.0] is threading.current_thread()

    def test_blas_at_its_default_starts_no_thread(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        set_openblas_threads(2)  # its default on two CPUs; the blas_one_thread fixture restores it
        lanes_at_any_work(monkeypatch)
        monkeypatch.setattr(lanes, "free_cpus", lambda: 2)
        recorder = recorder_for(MatcherConfig.toy())
        with T.no_grad():
            recorder.forward_pair(*images(np.zeros((32, 32)), np.ones((32, 32))))
        assert recorder.threads[1.0] is threading.current_thread()

    @pytest.mark.parametrize("blas_env,at_start,one_thread", [
        ({}, "", not TWO_CPUS),  # OpenBLAS's default: one thread per CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, "", True),
        ({"OMP_NUM_THREADS": "1"}, "", True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, "", False),
        ({"OPENBLAS_NUM_THREADS": "1"}, "assert set_openblas_threads(2) == 1", False),
        ({"OPENBLAS_NUM_THREADS": "1"}, "set_openblas_threads(2); lanes._openblas = lambda: None", True),
    ], ids=["default", "openblas-1", "omp-1", "openblas-2-over-omp-1", "openblas-1-then-set-2",
            "no-symbol-reads-the-environment"])
    def test_blas_rule_in_a_fresh_process(self, blas_env, at_start, one_thread):
        if at_start.startswith("assert") and set_openblas_threads(1) is None:
            pytest.skip("numpy's BLAS has no scipy_openblas_set_num_threads64_")
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(blas_env, PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(lanes.__file__)),
                                                         os.path.dirname(os.path.abspath(__file__))]))
        code = ("from helpers import set_openblas_threads\n"
                "from semimatch import lanes, tensor as T\n"
                f"{at_start}\n"
                "with T.no_grad():\n"
                "    print(lanes.blas_one_thread(), lanes.two_threads(lanes.IN_ORDER_MACS, lanes.IN_ORDER_MACS),\n"
                "          lanes.free_cpus() >= 2)")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        blas, threaded, two_cpus = (word == "True" for word in proc.stdout.split())
        assert blas == one_thread and threaded == (one_thread and two_cpus)

    def test_runs_where_the_platform_has_no_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert lanes.free_cpus() == (os.cpu_count() or 1)
        recorder = recorder_for(MatcherConfig())
        with T.no_grad():
            pyr_a, pyr_b = recorder.forward_pair(*images(np.zeros((256, 256)), np.ones((256, 256))))
        assert pyr_a.data.flat[0] == 0.0 and pyr_b.data.flat[0] == 1.0
        config = MatcherConfig()
        transform = FeatureTransform(config, drawn(np.random.default_rng(0)))
        maps = [T.tensor(np.full((config.d_model, 16, 16), v, dtype=np.float32)) for v in (0.1, 0.2)]
        with T.no_grad():  # ~840 M multiply-adds per image: two lanes where two CPUs exist
            out_a, out_b = transform.forward(*maps)
        assert out_a.shape == out_b.shape == maps[0].shape

    def test_work_is_the_smaller_padded_image(self):
        recorder = recorder_for(MatcherConfig.toy())
        assert recorder.macs(256, 256) == 42_467_328
        assert recorder_for(MatcherConfig()).macs(256, 256) == 11_513_364_480
        with T.no_grad():
            recorder.forward_pair(*images(np.zeros((2048, 2048)), np.ones((64, 64))))
        assert recorder.threads[1.0] is threading.current_thread()

    def test_recorded_calls_start_no_thread(self, monkeypatch):
        lanes_at_any_work(monkeypatch)

        def no_thread(*args, **kwargs):
            raise AssertionError("a recorded call started a thread")

        monkeypatch.setattr(lanes, "ThreadPoolExecutor", no_thread)
        assert T.grad_enabled()
        config = MatcherConfig.toy()
        backbone = Backbone(config, drawn(np.random.default_rng(0)))
        recorder = RecordingBackbone(backbone.fold(), run=True)
        pyr_a, pyr_b = recorder.forward_pair(*images(np.zeros((32, 32)), np.ones((32, 32))))
        assert recorder.threads[1.0] is threading.current_thread()
        assert pyr_b.f_coarse.requires_grad
        transform = FeatureTransform(config, drawn(np.random.default_rng(0)))
        for shape_b in ((config.d_model, 4, 4), (config.d_model, 4, 8)):  # stacked, then per image
            out_a, out_b = transform.forward(pyr_a.f_coarse, T.tensor(np.ones(shape_b, dtype=np.float32)))
            assert out_a.requires_grad and out_b.shape == shape_b

    def test_each_stage_opens_one_worker_and_leaves_no_thread(self, monkeypatch):
        opened = []

        class CountingExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

        lanes_at_any_work(monkeypatch)
        monkeypatch.setattr(lanes, "free_cpus", lambda: 2)
        monkeypatch.setattr(lanes, "ThreadPoolExecutor", CountingExecutor)
        config = MatcherConfig.toy()  # two layers: four pairs in one transform pass
        matcher = Matcher(config, seed=0)
        recorder = RecordingBackbone(matcher.fuse(), run=True)
        maps = [T.tensor(np.full((config.d_model, 8, 8), v, dtype=np.float32)) for v in (0.1, 0.2)]
        fusion_pair = fusion_inputs(config, (4, 4), (4, 4))
        before = threading.active_count()
        with T.no_grad():
            for stage in (lambda: matcher.transform.forward(*maps),
                          lambda: recorder.forward_pair(*images(np.zeros((32, 32)), np.ones((32, 32)))),
                          lambda: matcher.fine_maps(*fusion_pair)):
                opened.clear()
                stage()
                assert len(opened) == 1
                assert threading.active_count() == before
            for first, second in ((lambda: 1 / 0, lambda: 1), (lambda: 1, lambda: 1 / 0)):  # each lane raises
                opened.clear()
                with pytest.raises(ZeroDivisionError), lanes.pairs(0, 0) as run:
                    run(first, second)
                assert len(opened) == 1
                assert threading.active_count() == before

    def test_concurrent_equals_main_thread_bitwise(self, monkeypatch):
        matcher = Matcher(MatcherConfig.toy(), seed=0)
        fused = matcher.fuse()
        a, b, _ = render_pair(3, 0, SynthConfig(size=128))
        lanes_never(monkeypatch)
        sequential = matcher.match_pair(a, b, mode="optimized", fused=fused)
        lanes_at_any_work(monkeypatch)
        recorder = RecordingBackbone(fused, run=True)
        with T.no_grad():
            pyr_a, pyr_b = recorder.forward_pair(*images(a, b))
            for image, pyramid in ((a, pyr_a), (b, pyr_b)):
                want = fused.forward_deploy(T.tensor(image[None]))
                for level in ("f_half", "f_quarter", "f_coarse"):
                    np.testing.assert_array_equal(getattr(pyramid, level).data, getattr(want, level).data)
        assert (recorder.threads[float(b.flat[0])] is not threading.current_thread()) == TWO_CPUS
        concurrent = matcher.match_pair(a, b, mode="optimized", fused=fused)
        assert concurrent.coarse == sequential.coarse and concurrent.fine == sequential.fine
        assert len(concurrent.fine) > 0

    def test_inf_in_image_b_only_raises_numeric_error_and_leaves_no_thread(self, monkeypatch):
        lanes_at_any_work(monkeypatch)
        matcher = Matcher(MatcherConfig.toy(), seed=0)
        # the first conv overflows float32 on a bright image and maps a black one to zeros
        matcher.backbone.stages[0][0].conv3x3.kernel.data[:] = 1e38
        black, bright = np.zeros((64, 64)), np.full((64, 64), 0.9)
        before = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"):  # the worker runs in the caller's context
            matcher.match_pair(black, black, mode="optimized")  # image A alone stays finite
            with pytest.raises(T.NumericError, match="non-finite"):
                matcher.match_pair(black, bright, mode="optimized")
        assert threading.active_count() == before


def fusion_inputs(config, grid_a, grid_b, fill_b=None):
    """``Matcher.fine_maps`` arguments for two images of the given coarse
    grids: seeded random coarse, 1/4 and 1/2 maps, image B's coarse map set
    to ``fill_b`` where given."""
    rng = np.random.default_rng(5)
    args = []
    for grid in (grid_a, grid_b):
        def level(channels, scale):
            return T.tensor(rng.random((channels, grid[0] * scale, grid[1] * scale), dtype=np.float32))
        args += [level(config.d_model, 1), FeaturePyramid(level(config.widths[1], 4), level(config.widths[2], 2), None)]
    if fill_b is not None:
        args[2].data[:] = fill_b
    return args


class FusionRecorder:
    """Records, on ``matcher.fusion.forward``, the coarse map and the thread
    of each call; a call on image B's coarse map ``fb_t`` is B's."""

    def __init__(self, monkeypatch, matcher, fb_t=None):
        self.fb_t, self.calls = fb_t, []

        def recording(f_coarse_t, *args):
            self.calls.append((f_coarse_t, threading.current_thread()))
            return FineFusion.forward(matcher.fusion, f_coarse_t, *args)

        monkeypatch.setattr(matcher.fusion, "forward", recording)

    def b_on_worker(self) -> bool:
        on_a = [thread for f, thread in self.calls if f is not self.fb_t]
        on_b = [thread for f, thread in self.calls if f is self.fb_t]
        assert on_a == [threading.current_thread()] and len(on_b) == 1
        return on_b[0] is not threading.current_thread()

    def threads(self) -> int:
        assert len(self.calls) == 2
        return len({thread for _, thread in self.calls})


@pytest.mark.usefixtures("blas_one_thread")
class TestFusionLanes:
    @pytest.mark.parametrize("size_b", [(128, 128), (96, 112)], ids=["equal", "unequal"])
    def test_lanes_equal_in_order_bitwise(self, monkeypatch, size_b):
        matcher = Matcher(MatcherConfig.toy(), seed=0)
        fused = matcher.fuse()
        a, b, _ = render_pair(3, 0, SynthConfig(size=128))
        b = b[:size_b[0], :size_b[1]]
        with T.no_grad():
            pyr_a, pyr_b = (fused.forward_deploy(T.tensor(image[None])) for image in (a, b))
            fa_t, fb_t = matcher.transform.forward(pyr_a.f_coarse, pyr_b.f_coarse)
        results = {}
        for side, switch in (("in_order", lanes_never), ("lanes", lanes_at_any_work)):
            switch(monkeypatch)
            recorder = FusionRecorder(monkeypatch, matcher, fb_t)
            with T.no_grad():
                fine = matcher.fine_maps(fa_t, pyr_a, fb_t, pyr_b)
            assert recorder.b_on_worker() == (side == "lanes" and TWO_CPUS)
            results[side] = fine, matcher.match_pair(a, b, mode="optimized", fused=fused)
        (fine_order, order), (fine_lanes, on_lanes) = results["in_order"], results["lanes"]
        for got, want in zip(fine_lanes, fine_order):
            np.testing.assert_array_equal(got.data, want.data)
        assert full_shape(fine_lanes[0])[1:] == a.shape and full_shape(fine_lanes[1])[1:] == size_b
        assert on_lanes.coarse == order.coarse and on_lanes.fine == order.fine
        assert len(on_lanes.fine) > 0

    def test_work_is_the_smaller_coarse_grid(self, monkeypatch):
        matcher = Matcher(MatcherConfig.toy(), seed=0)
        monkeypatch.setattr(lanes, "IN_ORDER_MACS", matcher.fusion.macs(8, 8))
        for grid_b, threaded in (((4, 8), False), ((8, 12), True)):
            args = fusion_inputs(matcher.config, (8, 8), grid_b)
            recorder = FusionRecorder(monkeypatch, matcher, args[2])
            with T.no_grad():
                matcher.fine_maps(*args)
            assert recorder.b_on_worker() == (threaded and TWO_CPUS)
        assert matcher.fusion.macs(32, 32) == 30_408_704  # a 256² toy image

    def test_inf_in_image_b_lane_raises_and_leaves_no_thread(self, monkeypatch):
        lanes_at_any_work(monkeypatch)
        matcher = Matcher(MatcherConfig.toy(), seed=0)
        before = threading.active_count()
        with T.no_grad(), np.errstate(over="ignore", invalid="ignore"):
            matcher.fine_maps(*fusion_inputs(matcher.config, (4, 4), (4, 4)))  # image A alone stays finite
            args = fusion_inputs(matcher.config, (4, 4), (4, 4), fill_b=3e38)  # overflows in B's fusion
            recorder = FusionRecorder(monkeypatch, matcher, args[2])
            with pytest.raises(T.NumericError, match="non-finite"):
                matcher.fine_maps(*args)
        assert recorder.b_on_worker() == TWO_CPUS
        assert threading.active_count() == before


@pytest.mark.usefixtures("blas_one_thread")
def test_toy_256_runs_backbone_and_fusion_on_two_lanes_and_the_transform_stacked(monkeypatch):
    matcher = Matcher(MatcherConfig.toy(), seed=0)
    recorder = RecordingBackbone(matcher.fuse(), run=True)
    block_calls = []
    block_forward = AggAttentionBlock.forward

    def recording_block(block, target, *args):
        block_calls.append((target.ndim, threading.current_thread()))
        return block_forward(block, target, *args)

    monkeypatch.setattr(AggAttentionBlock, "forward", recording_block)
    fusion = FusionRecorder(monkeypatch, matcher)
    a, b, _ = render_pair(3, 0, SynthConfig(size=256))
    a[0, 0], b[0, 0] = 0.25, 0.75  # the backbone recorder's keys
    result = matcher.match_pair(a, b, mode="optimized", fused=recorder)
    assert result.coarse
    assert (recorder.threads[0.75] is not threading.current_thread()) == TWO_CPUS
    assert block_calls == [(4, threading.current_thread())] * 2 * matcher.config.n_layers
    assert fusion.threads() == (2 if TWO_CPUS else 1)
    grid = result.grid_a
    assert recorder.macs(256, 256) >= lanes.IN_ORDER_MACS and matcher.fusion.macs(*grid) >= lanes.IN_ORDER_MACS
    assert transform_macs(matcher.config, *grid) < lanes.STACKED_MACS


class SwitchingKey(str):
    """A key hashed in Python: the interpreter may switch threads between a
    counter's read and its write, which a plain str key rarely allows."""

    def __hash__(self):
        return str.__hash__(self)


class TestOpCounters:
    def test_concurrent_adds_lose_no_update(self):
        table = OpCounters()

        def work():
            for _ in range(200_000):
                table.add(SwitchingKey("op"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as CPython allows
        try:
            threads = [threading.Thread(target=work) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert table["op"] == 400_000
