import numpy as np
import pytest

from semimatch import tensor as T
from semimatch.bench import STAGES, bench_pipeline, timings_csv
from semimatch.instrument import counters
from semimatch.pipeline import Matcher, MatcherConfig
from semimatch.synth import SynthConfig, render_pair

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
