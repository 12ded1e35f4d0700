import threading
from dataclasses import replace

import numpy as np
import pytest

from semimatch import lanes
from semimatch import tensor as T
from semimatch.instrument import counters
from semimatch.pipeline import MatcherConfig
from semimatch.transform import (
    AggAttentionBlock,
    FeatureTransform,
    aggregate_tokens,
    rope_encode,
    transform_macs,
)

from helpers import tape_size, weighted_sum

CFG = MatcherConfig.toy()  # s=2, n_layers=2, n_heads=4, d_model=32


def rotation_matrix(d, dx, dy):
    """Block-diagonal rotation of one head of width d by the offset (dx, dy)."""
    out = np.zeros((d, d))
    for i in range(d // 4):
        theta = 10000.0 ** (-4.0 * (i + 1) / d)
        ax, ay = theta * dx, theta * dy
        base = 4 * i
        out[base:base + 2, base:base + 2] = [[np.cos(ax), -np.sin(ax)], [np.sin(ax), np.cos(ax)]]
        out[base + 2:base + 4, base + 2:base + 4] = [[np.cos(ay), -np.sin(ay)], [np.sin(ay), np.cos(ay)]]
    return out


class TestRope:
    def test_zero_position_is_identity(self, rng):
        x = T.tensor(rng.standard_normal((5, 16)), dtype=np.float64)
        out = rope_encode(x, np.zeros((5, 2)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_requires_divisible_dim(self, rng):
        with pytest.raises(ValueError, match="divisible by 4"):
            rope_encode(T.tensor(rng.standard_normal((3, 10))), np.zeros((3, 2)))

    def test_norm_preserved(self, rng):
        x = rng.standard_normal((100, 32))
        pos = rng.uniform(-50, 50, size=(100, 2))
        out = rope_encode(T.tensor(x, dtype=np.float64), pos)
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=1), np.linalg.norm(x, axis=1), atol=1e-6
        )

    def test_score_depends_only_on_offset(self, rng):
        q = rng.standard_normal((1, 32))
        k = rng.standard_normal((1, 32))

        def score(pq, pk):
            eq = rope_encode(T.tensor(q, dtype=np.float64), np.array([pq], float))
            ek = rope_encode(T.tensor(k, dtype=np.float64), np.array([pk], float))
            return float((eq.data * ek.data).sum())

        base = score((3.0, 8.0), (11.0, 2.0))
        for shift in ((5, 5), (-7, 13), (100, -40)):
            shifted = score((3.0 + shift[0], 8.0 + shift[1]), (11.0 + shift[0], 2.0 + shift[1]))
            assert abs(base - shifted) < 1e-5

    def test_matches_block_diagonal_rotation(self, rng):
        q = rng.standard_normal(16)
        k = rng.standard_normal(16)
        dx, dy = 4.0, -3.0
        eq = rope_encode(T.tensor(q[None], dtype=np.float64), np.zeros((1, 2)))
        ek = rope_encode(T.tensor(k[None], dtype=np.float64), np.array([[dx, dy]]))
        via_encoding = float((eq.data * ek.data).sum())
        direct = float(q @ rotation_matrix(16, dx, dy) @ k)
        assert abs(via_encoding - direct) < 1e-10

    def test_rotation_blocks_are_orthogonal(self):
        r = rotation_matrix(24, 7.3, -2.1)
        np.testing.assert_allclose(r.T @ r, np.eye(24), atol=1e-6)

    def test_wide_features_rotate_each_head_slice_alike(self, rng):
        x = rng.standard_normal((6, 24))
        pos = rng.uniform(-20, 20, size=(6, 2))
        got = rope_encode(T.tensor(x, dtype=np.float64), pos, heads=3).data
        for head in range(3):
            part = x[:, 8 * head:8 * (head + 1)]
            want = rope_encode(T.tensor(part, dtype=np.float64), pos).data
            np.testing.assert_array_equal(got[:, 8 * head:8 * (head + 1)], want)

    @pytest.mark.parametrize("width", [12, 4])
    def test_width_must_be_a_multiple_of_params(self, rng, width):
        # neither width splits into 8 heads, nor into 2 heads of a width divisible by 4
        x = T.tensor(rng.standard_normal((3, width)), dtype=np.float64)
        for heads in (8, 2, 0):
            with pytest.raises(ValueError, match="divisible by 4"):
                rope_encode(x, np.zeros((3, 2)), heads=heads)


class TestAggregation:
    def test_s1_keeps_all_tokens_and_pool_is_identity(self, rng):
        f = T.tensor(rng.standard_normal((4, 6, 6)).astype(np.float32))
        kernel = T.tensor(np.ones((4, 1, 1), dtype=np.float32))
        q_map, kv_map = aggregate_tokens(f, f, 1, kernel)
        assert q_map.shape == (4, 6, 6)
        np.testing.assert_array_equal(kv_map.data, f.data)

    def test_token_count_reduced_by_s_squared(self, rng):
        f = T.tensor(rng.standard_normal((8, 8, 8)).astype(np.float32))
        kernel = T.tensor(np.full((8, 4, 4), 1 / 16, dtype=np.float32))
        q_map, kv_map = aggregate_tokens(f, f, 4, kernel)
        assert q_map.shape == (8, 2, 2) and kv_map.shape == (8, 2, 2)

    def test_constant_map_pools_to_constant(self):
        f = T.tensor(np.full((2, 8, 8), 1.25, dtype=np.float32))
        _, kv_map = aggregate_tokens(f, f, 4, T.tensor(np.full((2, 4, 4), 1 / 16, np.float32)))
        np.testing.assert_allclose(kv_map.data, 1.25, atol=1e-6)

    def test_indivisible_grid_rejected(self, rng):
        f = T.tensor(rng.standard_normal((2, 6, 6)).astype(np.float32))
        with pytest.raises(ValueError, match="divisible"):
            aggregate_tokens(f, f, 4, T.tensor(np.full((2, 4, 4), 1 / 16, np.float32)))

    def test_queries_and_keys_come_from_their_own_maps(self, rng):
        f_q = T.tensor(rng.standard_normal((3, 8, 8)).astype(np.float32))
        f_kv = T.tensor(rng.standard_normal((3, 8, 8)).astype(np.float32))
        kernel = T.tensor(rng.standard_normal((3, 4, 4)).astype(np.float32))
        q_map, kv_map = aggregate_tokens(f_q, f_kv, 4, kernel)
        np.testing.assert_array_equal(q_map.data, aggregate_tokens(f_q, f_q, 4, kernel)[0].data)
        np.testing.assert_array_equal(kv_map.data, aggregate_tokens(f_kv, f_kv, 4, kernel)[1].data)


class TestAggAttentionBlock:
    def test_output_shape_matches_input(self, rng):
        block = AggAttentionBlock("self", CFG, rng)
        f = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        with T.no_grad():
            out = block.forward(f, f)
        assert out.shape == f.shape

    def test_one_hot_attention_returns_value_row(self, rng):
        block = AggAttentionBlock("cross", CFG, rng)
        d = CFG.d_model
        eye = np.eye(d, dtype=np.float32)
        block.q_proj.data[:] = eye * 1e3  # blow the aligned logit up to a one-hot
        block.k_proj.data[:] = eye
        block.v_proj.data[:] = eye
        direction = (np.abs(rng.standard_normal(d)) + 0.5).astype(np.float32)
        # kv token 0 max-pools to `direction`, every other token to a constant
        # vector (which layer norm sends to zero): token 0 dominates alone
        source = np.full((d, 8, 8), -1.0, dtype=np.float32)
        source[:, 0, 0] = direction
        target = np.tile(direction[:, None, None], (1, 8, 8))
        # so every query's output equals the one where every kv token is `direction`
        with T.no_grad():
            got = block.forward(T.tensor(target), T.tensor(source)).data
            want = block.forward(T.tensor(target), T.tensor(target)).data
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_cross_block_sensitive_to_source(self, rng):
        block = AggAttentionBlock("cross", CFG, rng)
        target = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        source = rng.standard_normal((32, 8, 8)).astype(np.float32)
        with T.no_grad():
            out1 = block.forward(target, T.tensor(source))
            out2 = block.forward(target, T.tensor(source + rng.standard_normal(source.shape).astype(np.float32)))
        assert np.abs(out1.data - out2.data).max() > 0

    def test_cross_block_never_applies_position_encoding(self, rng):
        block = AggAttentionBlock("cross", CFG, rng)
        f = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        g = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        counters.reset("rope")
        with T.no_grad():
            block.forward(f, g)
        assert counters["rope"] == 0

    def test_self_block_invariant_to_coordinate_translation(self, rng):
        """Relative encoding: translating the coordinate frame under both
        feature maps leaves the attention output unchanged."""
        cfg = MatcherConfig(widths=(8, 8, 8, 8), n_layers=1, n_heads=2, s=2)  # d_model=8
        block = AggAttentionBlock("self", cfg, rng)
        base = T.tensor(rng.standard_normal((8, 8, 8)).astype(np.float32))
        with T.no_grad():
            out1 = block.forward(base, base).data
            out2 = block.forward(base, base, position_offset=(17.0, -6.0)).data
        assert np.abs(out1 - out2).max() < 1e-4

    def test_cross_block_invariant_to_position_offset(self, rng):
        block = AggAttentionBlock("cross", CFG, rng)
        f = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        g = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        with T.no_grad():
            out1 = block.forward(f, g)
            out2 = block.forward(f, g, position_offset=(100.0, 100.0))
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_cross_block_aggregates_queries_once(self, rng):
        block = AggAttentionBlock("cross", CFG, rng)
        f = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        g = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        counters.reset("depthwise_conv2d")
        with T.no_grad():
            block.forward(f, g)
        # one depthwise conv for the target's queries; the source is only pooled
        assert counters["depthwise_conv2d"] == 1


    @pytest.mark.parametrize("kind,ops", [("self", 27), ("cross", 25)])
    def test_tape_size_per_block_call(self, rng, kind, ops):
        # fused linear / layer norm / rotary / attention (heads inside): one
        # tape op each; 8 of them are layout (tokens in and out, FFN channel-last)
        toy = MatcherConfig.toy()
        block = AggAttentionBlock(kind, toy, rng)
        f = T.parameter(rng.standard_normal((toy.d_model, 8, 8)).astype(np.float32))
        g = f if kind == "self" else T.parameter(rng.standard_normal(f.shape).astype(np.float32))
        assert tape_size(block.forward(f, g)) <= ops

    @pytest.mark.parametrize("kind,kv_grid", [("self", (8, 12)), ("cross", (12, 4))])
    def test_matches_split_merge_block_float64(self, rng, kind, kv_grid):
        cfg = replace(CFG, n_layers=1)
        block = AggAttentionBlock(kind, cfg, rng, dtype=np.float64)
        f = rng.standard_normal((32, 8, 12))
        g = f if kind == "self" else rng.standard_normal((32, *kv_grid))
        results = []
        for forward in (block.forward, lambda t, u: split_merge_block(block, t, u)):
            target = T.parameter(f, dtype=np.float64)
            source = target if kind == "self" else T.parameter(g, dtype=np.float64)
            for _, p in block.named_tensors("block"):
                p.grad = None
            out = forward(target, source)
            weighted_sum(out, 5).backward()
            grads = [target.grad, source.grad] + [p.grad for _, p in block.named_tensors("block")]
            results.append((out.data, grads))
        (out, grads), (want, want_grads) = results
        assert out.shape == (32, 8, 12)
        assert np.abs(out - want).max() <= 1e-10
        for got, ref in zip(grads, want_grads):
            assert np.abs(got - ref).max() <= 1e-10


def split_merge_block(block, target, source):
    """Reference block with heads split out of the (n, d) tokens, a per-head
    attention on the (heads, n, d/heads) stack, the heads merged back and
    the FFN run on (HW, 2d) tokens."""
    cfg = block.config
    s, heads = cfg.s, cfg.n_heads

    def tokens(m):
        return m.reshape((m.shape[0], -1)).transpose((1, 0))

    def to_map(t, h, w):
        return t.transpose((1, 0)).reshape((t.shape[1], h, w))

    def split(t):
        n, d = t.shape
        return t.reshape((n, heads, d // heads)).transpose((1, 0, 2))

    def merge(t):
        _, n, _ = t.shape
        return t.transpose((1, 0, 2)).reshape((n, -1))

    _, h, w = target.shape
    q_map, kv_map = aggregate_tokens(target, source, s, block.agg_conv)
    ah, aw = q_map.shape[1:]
    q_tokens = T.layer_norm(tokens(q_map))
    kv_tokens = T.layer_norm(tokens(kv_map))
    q = split(T.linear(q_tokens, block.q_proj))
    k = split(T.linear(kv_tokens, block.k_proj))
    v = split(T.linear(kv_tokens, block.v_proj))
    if block.kind == "self":
        ys, xs = np.mgrid[0:ah, 0:aw]
        positions = np.stack([xs.ravel(), ys.ravel()], axis=1) * s + (s - 1) / 2.0
        q, k = rope_encode(q, positions), rope_encode(k, positions)
    attended = T.linear(merge(T.vanilla_attention(q, k, v)), block.out_proj)
    up = T.bilinear_upsample(to_map(attended, ah, aw), s)
    hidden = T.layer_norm(T.linear(tokens(T.concat([target, up], axis=0)), block.fuse))
    hidden = T.linear(hidden, block.fc1, block.fc1_bias).relu()
    hidden = T.linear(hidden, block.fc2, block.fc2_bias)
    return target + to_map(hidden, h, w)


def per_image_transform(transform, f_a, f_b):
    """Reference transform: one block call per image and layer, self(A),
    self(B), cross(A<-B), cross(B<-A), as before the maps were stacked."""
    for self_block, cross_block in transform.layers:
        f_a = self_block.forward(f_a, f_a)
        f_b = self_block.forward(f_b, f_b)
        f_a, f_b = cross_block.forward(f_a, f_b), cross_block.forward(f_b, f_a)
    return f_a, f_b


class TestFeatureTransform:
    @pytest.mark.parametrize("grid_a,grid_b", [((8, 8), (8, 8)), ((8, 12), (8, 12)), ((8, 12), (12, 8))])
    def test_matches_per_image_reference_float64(self, rng, grid_a, grid_b):
        transform = FeatureTransform(CFG, rng, dtype=np.float64)
        maps = rng.standard_normal((32, *grid_a)), rng.standard_normal((32, *grid_b))
        params = [p for _, p in transform.named_tensors()]
        results = []
        for forward in (transform.forward, lambda a, b: per_image_transform(transform, a, b)):
            f_a, f_b = (T.parameter(m, dtype=np.float64) for m in maps)
            for p in params:
                p.grad = None
            out_a, out_b = forward(f_a, f_b)
            (weighted_sum(out_a, 5) + weighted_sum(out_b, 6)).backward()
            results.append(([out_a.data, out_b.data], [f_a.grad, f_b.grad] + [p.grad for p in params]))
        (outs, grads), (want_outs, want_grads) = results
        assert outs[0].shape == (32, *grid_a) and outs[1].shape == (32, *grid_b)
        for got, want in zip(outs + grads, want_outs + want_grads):
            assert np.abs(got - want).max() <= 1e-10

    @pytest.mark.parametrize("grid_b,attention_calls", [((8, 8), 2), ((8, 12), 4)])
    def test_same_shape_maps_run_one_self_and_one_cross_call_per_layer(self, rng, grid_b, attention_calls):
        transform = FeatureTransform(CFG, rng)
        f_a = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        f_b = T.tensor(rng.standard_normal((32, *grid_b)).astype(np.float32))
        counters.reset("softmax")
        with T.no_grad():
            transform.forward(f_a, f_b)
        assert counters["softmax"] == attention_calls * CFG.n_layers

    def test_tape_size_per_transform_call(self, rng):
        # two layers of 27 (self) + 25 (cross) + 1 (source reversal), 4 to stack
        # and unstack the pair, 1 for the sum joining the outputs: 111. Four
        # block calls per layer made it 209.
        transform = FeatureTransform(CFG, rng)
        f_a, f_b = (T.parameter(rng.standard_normal((32, 8, 8)).astype(np.float32)) for _ in range(2))
        out_a, out_b = transform.forward(f_a, f_b)
        assert CFG.n_layers == 2
        assert tape_size(out_a + out_b) <= 111

    def test_zero_layers_is_identity(self, rng):
        transform = FeatureTransform(replace(CFG, n_layers=0), rng)
        fa = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        fb = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        oa, ob = transform.forward(fa, fb)
        np.testing.assert_array_equal(oa.data, fa.data)
        np.testing.assert_array_equal(ob.data, fb.data)

    def test_swapping_inputs_swaps_outputs(self, rng):
        transform = FeatureTransform(CFG, rng)
        fa = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        fb = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        with T.no_grad():
            oa, ob = transform.forward(fa, fb)
            ob2, oa2 = transform.forward(fb, fa)
        np.testing.assert_array_equal(oa.data, oa2.data)
        np.testing.assert_array_equal(ob.data, ob2.data)

    def test_score_entries_reduced_by_s4(self, rng):
        transform = FeatureTransform(CFG, rng)
        fa = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        fb = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        counters.reset("attn_score_entries")
        with T.no_grad():
            transform.forward(fa, fb)
        blocks = 4 * CFG.n_layers  # self(A), self(B), cross(A), cross(B) per layer
        tokens = (8 // CFG.s) * (8 // CFG.s)
        assert counters["attn_score_entries"] == blocks * tokens * tokens

    def test_weight_names_follow_contract(self, rng):
        transform = FeatureTransform(CFG, rng)
        names = [name for name, _ in transform.named_tensors()]
        assert "transform.layer0.self.agg_conv.kernel" in names
        assert "transform.layer1.cross.q_proj.kernel" in names
        assert all(n.startswith("transform.layer") for n in names)
        parts = {n.split(".")[3] for n in names}
        assert parts <= {"agg_conv", "q_proj", "k_proj", "v_proj", "out_proj", "ffn"}


class LaneRecorder:
    """Wraps ``AggAttentionBlock.forward`` to record which thread runs each
    block call: on the (2, d, H, W) stack, or on one image. A call whose
    target is image B's input map, or the output of an earlier call on
    image B, is one of B's."""

    def __init__(self, monkeypatch, f_b):
        self.b_maps = [f_b]
        self.threads = {"stack": [], "a": [], "b": []}
        forward = AggAttentionBlock.forward

        def recording(block, target, source, *args):
            out = forward(block, target, source, *args)
            image = "stack" if target.ndim == 4 else "b" if any(target is m for m in self.b_maps) else "a"
            self.threads[image].append(threading.current_thread())
            if image == "b":
                self.b_maps.append(out)
            return out

        monkeypatch.setattr(AggAttentionBlock, "forward", recording)

    def b_on_worker(self) -> bool:
        return all(t is not threading.current_thread() for t in self.threads["b"])


TWO_CPUS = lanes.free_cpus() >= 2
PAPER = MatcherConfig()


class TestTransformLanes:
    def test_work_pins(self):
        # per image over the coarse grid of a 256² image (32²)
        assert transform_macs(CFG, 32, 32) == 46_137_344
        assert transform_macs(PAPER, 32, 32) == 3_372_220_416
        assert transform_macs(CFG, 32, 32) < lanes.CONCURRENT_MACS <= transform_macs(PAPER, 16, 16)

    @pytest.mark.parametrize("grid_a,grid_b", [((8, 8), (8, 8)), ((8, 12), (12, 8))])
    def test_lanes_equal_in_order_bitwise(self, rng, monkeypatch, grid_a, grid_b):
        transform = FeatureTransform(CFG, rng)
        f_a = T.tensor(rng.standard_normal((32, *grid_a)).astype(np.float32))
        f_b = T.tensor(rng.standard_normal((32, *grid_b)).astype(np.float32))
        with T.no_grad():
            want = transform.forward(f_a, f_b)  # stacked, or per image in order
            monkeypatch.setattr(lanes, "CONCURRENT_MACS", 0)
            recorder = LaneRecorder(monkeypatch, f_b)
            got = transform.forward(f_a, f_b)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.data, w.data)
        assert len(recorder.threads["b"]) == 2 * CFG.n_layers
        assert recorder.b_on_worker() == TWO_CPUS
        assert all(t is threading.current_thread() for t in recorder.threads["a"])

    @pytest.mark.parametrize("config,grid,threaded", [(CFG, 32, False), (PAPER, 16, True)],
                             ids=["toy-256", "paper-128"])
    def test_image_b_on_a_worker_only_above_the_work_rule(self, monkeypatch, config, grid, threaded):
        transform = FeatureTransform(config, np.random.default_rng(0))
        f_a, f_b = (T.tensor(np.full((config.d_model, grid, grid), v, dtype=np.float32)) for v in (0.1, 0.2))
        recorder = LaneRecorder(monkeypatch, f_b)
        with T.no_grad():
            transform.forward(f_a, f_b)
        if threaded:  # one self and one cross call per image and layer
            assert len(recorder.threads["b"]) == 2 * config.n_layers
            assert recorder.b_on_worker() == TWO_CPUS
        else:  # one stacked call per block, on the calling thread
            assert recorder.threads["stack"] == [threading.current_thread()] * 2 * config.n_layers
            assert recorder.threads["b"] == []

    def test_work_is_the_smaller_grid(self, rng, monkeypatch):
        monkeypatch.setattr(lanes, "CONCURRENT_MACS", transform_macs(CFG, 16, 16))
        transform = FeatureTransform(CFG, rng)
        f_a = T.tensor(rng.standard_normal((32, 16, 16)).astype(np.float32))
        f_b = T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32))
        recorder = LaneRecorder(monkeypatch, f_b)
        with T.no_grad():
            transform.forward(f_a, f_b)
        assert recorder.threads["b"] == [threading.current_thread()] * 2 * CFG.n_layers

    def test_recorded_call_stays_stacked(self, rng, monkeypatch):
        monkeypatch.setattr(lanes, "CONCURRENT_MACS", 0)
        transform = FeatureTransform(CFG, rng)
        f_a, f_b = (T.parameter(rng.standard_normal((32, 8, 8)).astype(np.float32)) for _ in range(2))
        recorder = LaneRecorder(monkeypatch, f_b)
        out_a, out_b = transform.forward(f_a, f_b)
        assert tape_size(out_a + out_b) <= 111  # the bound of test_tape_size_per_transform_call
        assert recorder.threads["stack"] == [threading.current_thread()] * 2 * CFG.n_layers
        assert recorder.threads["b"] == []

    def test_inf_in_image_b_lane_raises_and_leaves_no_thread(self, rng, monkeypatch):
        monkeypatch.setattr(lanes, "CONCURRENT_MACS", 0)
        transform = FeatureTransform(CFG, rng)
        f_a = T.tensor(np.zeros((32, 8, 8), dtype=np.float32))
        f_b = T.tensor(np.full((32, 8, 8), 3e38, dtype=np.float32))  # overflows in image B's block calls
        before = threading.active_count()
        with T.no_grad(), np.errstate(over="ignore", invalid="ignore"):
            transform.forward(f_a, f_a)  # image A alone stays finite
            with pytest.raises(T.NumericError, match="non-finite"):
                transform.forward(f_a, f_b)
        assert threading.active_count() == before

    def test_score_entries_unchanged_under_lanes(self, rng, monkeypatch):
        transform = FeatureTransform(CFG, rng)
        fa, fb = (T.tensor(rng.standard_normal((32, 8, 8)).astype(np.float32)) for _ in range(2))
        entries = []
        for rule in (lanes.CONCURRENT_MACS, 0):
            monkeypatch.setattr(lanes, "CONCURRENT_MACS", rule)
            counters.reset("attn_score_entries")
            with T.no_grad():
                transform.forward(fa, fb)
            entries.append(counters["attn_score_entries"])
        assert entries[0] == entries[1] == 4 * CFG.n_layers * 16 * 16
