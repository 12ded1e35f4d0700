import os
import sys
import threading

import numpy as np
import pytest

from semimatch import lanes
from semimatch import pipeline as P
from semimatch import tensor as T
from semimatch.bench import STAGES, bench_pipeline, timings_csv
from semimatch.instrument import OpCounters, counters
from semimatch.pipeline import Matcher, MatcherConfig
from semimatch.synth import SynthConfig, render_pair
from semimatch.transform import FeatureTransform

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
        timings = bench_pipeline(matcher, *pair, repetitions=1, warmup=0)
        for stage in (*STAGES, "total"):
            assert len(timings.samples[stage]) == 1

    def test_stage_times_sum_close_to_total(self, matcher, pair):
        timings = bench_pipeline(matcher, *pair, repetitions=3, warmup=1)
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
            bench_pipeline(matcher, *pair, repetitions=0)

    def test_negative_warmup_is_rejected_before_any_run(self, matcher, pair):
        counters.reset("dual_softmax")
        with pytest.raises(ValueError, match="warmup"):
            bench_pipeline(matcher, *pair, repetitions=1, warmup=-2)
        assert counters["dual_softmax"] == 0

    def test_warmup_count_respected(self, matcher, pair):
        counters.reset("dual_softmax")
        bench_pipeline(matcher, *pair, mode="full", repetitions=2, warmup=3)
        # every full-mode run computes exactly one dual-softmax
        assert counters["dual_softmax"] == 5

    def test_csv_and_summary_formats(self, matcher, pair):
        timings = bench_pipeline(matcher, *pair, repetitions=1, warmup=0)
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


class RecordingBackbone:
    """Stands in for a fused backbone: records the thread that runs each
    image's ``forward_deploy``, keyed by the image's first pixel."""

    def __init__(self, fused=None):
        self.fused = fused
        self.threads = {}

    def forward_deploy(self, image):
        self.threads[float(image.data.flat[0])] = threading.current_thread()
        return image if self.fused is None else self.fused.forward_deploy(image)


TWO_CPUS = lanes.free_cpus() >= 2


class TestConcurrentBackbones:
    @pytest.mark.parametrize("config,size,threaded", [
        (MatcherConfig.toy(), 256, False),  # ~42 M multiply-adds per image
        (MatcherConfig.toy(), 1024, True),
        (MatcherConfig(), 256, True),  # ~11.5 G
        (MatcherConfig(), 64, True),
    ], ids=["toy-256", "toy-1024", "paper-256", "paper-64"])
    def test_image_b_runs_on_a_worker_only_above_the_work_rule(self, config, size, threaded):
        recorder = RecordingBackbone()
        image_a, image_b = np.zeros((size, size)), np.ones((size, size))
        pyr_a, pyr_b = P.backbone_pair(recorder, config, image_a, image_b)
        assert pyr_a.data.flat[0] == 0.0 and pyr_b.data.flat[0] == 1.0
        assert recorder.threads[0.0] is threading.current_thread()
        assert (recorder.threads[1.0] is not threading.current_thread()) == (threaded and TWO_CPUS)
        assert (P.backbone_macs(config, size, size) >= lanes.CONCURRENT_MACS) == threaded

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        recorder = RecordingBackbone()
        P.backbone_pair(recorder, MatcherConfig(), np.zeros((256, 256)), np.ones((256, 256)))
        assert recorder.threads[1.0] is threading.current_thread()

    def test_runs_where_the_platform_has_no_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert lanes.free_cpus() == (os.cpu_count() or 1)
        recorder = RecordingBackbone()
        pyr_a, pyr_b = P.backbone_pair(recorder, MatcherConfig(), np.zeros((256, 256)), np.ones((256, 256)))
        assert pyr_a.data.flat[0] == 0.0 and pyr_b.data.flat[0] == 1.0
        config = MatcherConfig()
        transform = FeatureTransform(config, np.random.default_rng(0))
        maps = [T.tensor(np.full((config.d_model, 16, 16), v, dtype=np.float32)) for v in (0.1, 0.2)]
        with T.no_grad():  # ~840 M multiply-adds per image: two lanes where two CPUs exist
            out_a, out_b = transform.forward(*maps)
        assert out_a.shape == out_b.shape == maps[0].shape

    def test_work_is_the_smaller_padded_image(self):
        toy = MatcherConfig.toy()
        assert P.backbone_macs(toy, 256, 256) == 42_467_328
        assert P.backbone_macs(MatcherConfig(), 256, 256) == 11_513_364_480
        recorder = RecordingBackbone()
        P.backbone_pair(recorder, toy, np.zeros((2048, 2048)), np.ones((64, 64)))
        assert recorder.threads[1.0] is threading.current_thread()

    def test_concurrent_equals_main_thread_bitwise(self, monkeypatch):
        matcher = Matcher(MatcherConfig.toy(), seed=0)
        fused = matcher.fuse()
        a, b, _ = render_pair(3, 0, SynthConfig(size=128))
        sequential = matcher.match_pair(a, b, mode="optimized", fused=fused)
        monkeypatch.setattr(lanes, "CONCURRENT_MACS", 0)
        recorder = RecordingBackbone(fused)
        with T.no_grad():
            pyr_a, pyr_b = P.backbone_pair(recorder, matcher.config, a, b)
            for image, pyramid in ((a, pyr_a), (b, pyr_b)):
                want = fused.forward_deploy(T.tensor(image[None]))
                for level in ("f_half", "f_quarter", "f_coarse"):
                    np.testing.assert_array_equal(getattr(pyramid, level).data, getattr(want, level).data)
        assert (recorder.threads[float(b.flat[0])] is not threading.current_thread()) == TWO_CPUS
        concurrent = matcher.match_pair(a, b, mode="optimized", fused=fused)
        assert concurrent.coarse == sequential.coarse and concurrent.fine == sequential.fine
        assert len(concurrent.fine) > 0

    def test_inf_in_image_b_only_raises_numeric_error_and_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(lanes, "CONCURRENT_MACS", 0)
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
