"""Local feature transform: 2D rotary encoding plus aggregated attention.

Tokens are aggregated before every attention (strided depthwise conv for
queries, max-pool for keys/values), cutting the score matrix by s^2 per
side; the attended map is upsampled back and fused with the input map.
Self-attention blocks rotate q/k by position; cross blocks never do.

Blocks take (d, H, W) maps or (B, d, H, W) stacks, channels and spatial
axes counted from the end. The transform runs a layer one of two ways:
- stacked: two coarse maps of one shape form one (2, d, H, W) stack, so
  each layer is one self-block call and one cross-block call (the source is
  the batch-reversed stack). Same-shape maps take it unless the pair rule
  (``lanes.two_threads`` at ``lanes.STACKED_MACS``, never true for recorded
  calls) holds;
- per image: one block call per image, the two images' calls of a block
  paired in one ``lanes.pairs`` block per pass, which runs them on two
  threads when the per-image work (``transform_macs``) reaches the pair
  rule. Maps of different shapes always take it.
Both ways compute the same function, as every op treats the maps of a
stack independently: the outputs are bitwise equal from 8x8 coarse grids
up, and at a 4x4 paper grid (one aggregated token) they differ by rounding,
up to 8.8e-6. The gradients of shared weights are summed in another order.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from . import tensor as T
from .config import MatcherConfig
from .instrument import counters
from . import lanes
from .params import Params, box_noise, xavier
from .tensor import Tensor


def rope_encode(features: Tensor, positions: np.ndarray, heads: int) -> Tensor:
    """Rotate feature channels by position so dot products depend only on offsets.

    ``features`` is (..., n, d) and ``positions`` is (n, 2) in grid units.
    Each of the ``heads`` slices of width d_h = d / heads (one attention
    head) is rotated alike, by frequencies theta_k = 10000^(-4k/d_h),
    k = 1..d_h/4, laid out [ax, ax, ay, ay] per 4-block. The rotation is
    orthogonal, so norms are preserved exactly.
    """
    d = features.shape[-1]
    if heads < 1 or d % heads or (d // heads) % 4:
        raise ValueError(f"rotary encoding needs d={d} to split into {heads} heads of a width divisible by 4")
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    if positions.shape[0] != features.shape[-2]:
        raise ValueError("one (x, y) position per token is required")
    d_h = d // heads
    theta = 10000.0 ** (-4.0 * np.arange(1, d_h // 4 + 1) / d_h)
    x = positions[:, 0:1] * theta
    y = positions[:, 1:2] * theta
    angles = np.stack([x, x, y, y], axis=2).reshape(positions.shape[0], d_h)
    counters.add("rope")
    return T.rotary(features, np.tile(np.cos(angles).astype(features.dtype), heads),
                    np.tile(np.sin(angles).astype(features.dtype), heads))


@lru_cache(maxsize=64)
def _grid_positions(h: int, w: int, s: int) -> np.ndarray:
    """Centers of s-by-s aggregation cells, (x, y) in coarse-grid units."""
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    centers = np.stack([xs, ys], axis=-1).reshape(-1, 2).astype(np.float64)
    return centers * s + (s - 1) / 2.0


def aggregate_tokens(f_q: Tensor, f_kv: Tensor, s: int, conv_kernel: Tensor) -> tuple[Tensor, Tensor]:
    """Reduce (d, H, W) maps, or (B, d, H, W) stacks, to H*W/s^2 tokens per map.

    Queries come from a learned strided depthwise conv over ``f_q``,
    keys/values from a max-pool with the same window over ``f_kv``; both
    outputs are (…, d, H/s, W/s). A self block passes its one map twice.
    """
    for f in (f_q, f_kv):
        h, w = f.shape[-2:]
        if h % s or w % s:
            raise ValueError(f"grid {h}x{w} not divisible by aggregation range {s}")
    q_map = T.depthwise_conv2d(f_q, conv_kernel, stride=s, pad=0)
    kv_map = f_kv if s == 1 else T.maxpool2d(f_kv, s, s)
    return q_map, kv_map


def _channels_last(x: Tensor) -> Tensor:
    # (…, d, H, W) -> (…, H, W, d)
    n = x.ndim - 3
    return x.transpose((*range(n), n + 1, n + 2, n))


def _channels_first(x: Tensor) -> Tensor:
    # (…, H, W, d) -> (…, d, H, W)
    n = x.ndim - 3
    return x.transpose((*range(n), n + 2, n, n + 1))


def _to_tokens(feature_map: Tensor) -> Tensor:
    # (…, d, H, W) -> (…, H*W, d)
    x = _channels_last(feature_map)
    return x.reshape((*x.shape[:-3], -1, x.shape[-1]))


class AggAttentionBlock:
    """One aggregated attention block (self or cross flavor), shaped by a
    ``MatcherConfig``'s ``d_model``, ``n_heads`` and ``s``."""

    def __init__(self, kind: str, config: MatcherConfig, params: Params):
        if kind not in ("self", "cross"):
            raise ValueError(f"unknown block kind {kind!r}")
        self.kind = kind
        self.config = config
        d = config.d_model
        self.agg_conv = params.make("agg_conv.kernel", (d, config.s, config.s), box_noise, trainable=True)
        self.q_proj = params.make("q_proj.kernel", (d, d), xavier, trainable=True)
        self.k_proj = params.make("k_proj.kernel", (d, d), xavier, trainable=True)
        self.v_proj = params.make("v_proj.kernel", (d, d), xavier, trainable=True)
        self.out_proj = params.make("out_proj.kernel", (d, d), xavier, trainable=True)
        self.fuse = params.make("ffn.fuse.kernel", (d, 2 * d), xavier, trainable=True)
        self.fc1 = params.make("ffn.fc1.kernel", (2 * d, d), xavier, trainable=True)
        self.fc1_bias = params.make("ffn.fc1.bias", (2 * d,), 0.0, trainable=True)
        self.fc2 = params.make("ffn.fc2.kernel", (d, 2 * d), xavier, trainable=True)
        self.fc2_bias = params.make("ffn.fc2.bias", (d,), 0.0, trainable=True)

    def forward(self, target: Tensor, source: Tensor) -> Tensor:
        """Attend from ``target`` to ``source``: (d, H, W) maps, or (B, d, H, W)
        stacks where map i attends to map i of the source."""
        if target.shape[:-2] != source.shape[:-2]:
            raise ValueError(f"feature dims differ: {target.shape} vs {source.shape}")
        if self.kind == "self" and target is not source:
            raise ValueError("self block expects the same map as target and source")
        s = self.config.s
        q_map, kv_map = aggregate_tokens(target, source, s, self.agg_conv)
        ah, aw = q_map.shape[-2:]

        q_tokens = T.layer_norm(_to_tokens(q_map))
        kv_tokens = T.layer_norm(_to_tokens(kv_map))
        q = T.linear(q_tokens, self.q_proj)
        k = T.linear(kv_tokens, self.k_proj)
        v = T.linear(kv_tokens, self.v_proj)

        if self.kind == "self":
            positions = _grid_positions(ah, aw, s)
            q = rope_encode(q, positions, self.config.n_heads)
            k = rope_encode(k, positions, self.config.n_heads)

        mix = T.vanilla_attention(q, k, v, heads=self.config.n_heads)
        attended = T.linear(mix, self.out_proj).reshape((*target.shape[:-3], ah, aw, -1))
        up = T.bilinear_upsample(_channels_first(attended), s)

        # the FFN runs channel-last on the (…, H, W, 2d) map
        merged = _channels_last(T.concat([target, up], axis=-3))
        hidden = T.layer_norm(T.linear(merged, self.fuse))
        hidden = T.linear(hidden, self.fc1, self.fc1_bias).relu()
        hidden = T.linear(hidden, self.fc2, self.fc2_bias)
        return target + _channels_first(hidden)


class FeatureTransform:
    """N interleaved rounds of self/self/cross/cross aggregated attention.

    One set of weights serves both images, which makes the matcher exactly
    symmetric: transform(B, A) is the swap of transform(A, B).
    """

    def __init__(self, config: MatcherConfig, params: Params):
        self.config = config
        self.layers = [
            (AggAttentionBlock("self", config, params.scope(f"layer{i}.self")),
             AggAttentionBlock("cross", config, params.scope(f"layer{i}.cross")))
            for i in range(config.n_layers)
        ]

    def forward(self, f_a: Tensor, f_b: Tensor) -> tuple[Tensor, Tensor]:
        """Transform two (d, H, W) coarse maps.

        When the per-image work over the smaller grid meets the pair rule
        (``lanes.two_threads`` at ``lanes.STACKED_MACS``, never while
        recording), each block runs once per image, image B's calls on one
        worker thread kept for the whole pass (one ``lanes.pairs`` block).
        Otherwise maps of one shape run as
        one (2, d, H, W) stack: each layer calls its self block once and its
        cross block once, with the batch-reversed stack as source (A<-B and
        B<-A in one call); maps of different shapes run one block call per
        image in order.
        """
        if f_a.shape[0] != f_b.shape[0]:
            raise ValueError("both images must share the coarse feature dim")
        grid = min(f_a.shape[1:], f_b.shape[1:], key=math.prod)
        work = transform_macs(self.config, *grid)
        if f_a.shape == f_b.shape and not lanes.two_threads(work, lanes.STACKED_MACS):
            pair = T.concat([f_a, f_b]).reshape((2, *f_a.shape))
            for self_block, cross_block in self.layers:
                pair = self_block.forward(pair, pair)
                pair = cross_block.forward(pair, pair[::-1])
            return pair[0], pair[1]
        with lanes.pairs(work, lanes.STACKED_MACS) as run:
            for self_block, cross_block in self.layers:
                f_a, f_b = run(partial(self_block.forward, f_a, f_a), partial(self_block.forward, f_b, f_b))
                f_a, f_b = run(partial(cross_block.forward, f_a, f_b), partial(cross_block.forward, f_b, f_a))
        return f_a, f_b


def transform_macs(config: MatcherConfig, height: int, width: int) -> int:
    """Multiply-adds of one image's pass through every transform block over a
    (height, width) coarse grid: the FFN (fuse 2d->d, fc1, fc2: 6·d² per
    cell), the q/k/v/out projections of the aggregated tokens (4·d² per
    token) and attention (2·d per query-key pair). Aggregation, norms and
    upsampling are left out."""
    d, s = config.d_model, config.s
    cells, tokens = height * width, (height // s) * (width // s)
    return 2 * config.n_layers * (6 * d * d * cells + 4 * d * d * tokens + 2 * d * tokens * tokens)
