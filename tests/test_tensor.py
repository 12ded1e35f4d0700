import contextlib
import gc
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimatch import tensor as T
from semimatch.instrument import counters

from helpers import assert_batch_axis_exact, assert_gradients_close, numeric_gradient, parameter, weighted_sum


def naive_conv2d(x, kernel, bias, stride, pad):
    cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, oh, ow))
    for o in range(cout):
        for i in range(cin):
            for r in range(oh):
                for c in range(ow):
                    for dr in range(kh):
                        for dc in range(kw):
                            out[o, r, c] += xp[i, r * stride + dr, c * stride + dc] * kernel[o, i, dr, dc]
    if bias is not None:
        out += bias[:, None, None]
    return out


def naive_depthwise(x, kernel, stride, pad):
    return np.stack([
        naive_conv2d(x[c:c + 1], kernel[c][None, None], None, stride, pad)[0] for c in range(x.shape[0])
    ])


def naive_maxpool(x, k, stride):
    cin, h, w = x.shape
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.zeros((cin, oh, ow))
    for c in range(cin):
        for r in range(oh):
            for q in range(ow):
                out[c, r, q] = x[c, r * stride:r * stride + k, q * stride:q * stride + k].max()
    return out


def check_backward(op, arrays):
    """Float64 analytic gradients of weighted_sum(op(*arrays)) against finite differences."""
    params = [parameter(a, dtype=np.float64) for a in arrays]
    weighted_sum(op(*params), 5).backward()

    def loss(*values):
        return float(weighted_sum(op(*(T.tensor(v, dtype=np.float64) for v in values)), 5).data)

    for which, p in enumerate(params):
        assert_gradients_close(p.grad, numeric_gradient(loss, arrays, which))


# rectangular odd-sized maps; every stride/pad pair, square, 1x1 and non-square kernels
STRIDE_PAD = [(stride, pad) for stride in (1, 2, 3) for pad in (0, 1, 2)]
KERNEL_HW = [(3, 3), (1, 1), (3, 5)]


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = T.tensor(rng.random((1, 4, 4)))
        out = T.conv2d(x, T.tensor(np.ones((1, 1, 1, 1))), T.tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_ones_counting_overlap(self):
        x = T.tensor(np.ones((1, 3, 3)))
        out = T.conv2d(x, T.tensor(np.ones((1, 1, 3, 3))), T.tensor(np.zeros(1)), stride=1, pad=1)
        assert out.data[0, 1, 1] == 9
        assert out.data[0, 0, 0] == 4

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((3, 8, 8))
        k = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        for stride, pad in [(1, 0), (1, 1), (2, 1)]:
            got = T.conv2d(T.tensor(x), T.tensor(k), T.tensor(b), stride, pad)
            want = naive_conv2d(x, k, b, stride, pad)
            np.testing.assert_allclose(got.data, want, atol=1e-5)

    @pytest.mark.parametrize("kh,kw", KERNEL_HW)
    def test_rectangular_map_matches_loop_oracle(self, rng, kh, kw):
        x = rng.standard_normal((3, 7, 10))
        k = rng.standard_normal((4, 3, kh, kw))
        b = rng.standard_normal(4)
        for stride, pad in STRIDE_PAD:
            got = T.conv2d(T.tensor(x), T.tensor(k), T.tensor(b), stride, pad)
            np.testing.assert_allclose(got.data, naive_conv2d(x, k, b, stride, pad), atol=1e-5)

    @pytest.mark.parametrize("kh,kw", KERNEL_HW)
    @pytest.mark.parametrize("stride,pad", STRIDE_PAD)
    def test_backward_matches_finite_differences(self, rng, stride, pad, kh, kw):
        arrays = [rng.standard_normal((3, 7, 10)), rng.standard_normal((2, 3, kh, kw)), rng.standard_normal(2)]
        check_backward(lambda x, k, b: T.conv2d(x, k, b, stride, pad), arrays)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="channels"):
            T.conv2d(T.tensor(rng.random((2, 4, 4))), T.tensor(rng.random((1, 3, 3, 3))), T.tensor(np.zeros(1)))


def taps_conv3x3(x, kernel, bias):
    """Stride-1, pad-1 3x3 correlation as a sum of nine channel contractions."""
    h, w = x.shape[1:]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = sum(np.einsum("oi,ihw->ohw", kernel[:, :, dr, dc], xp[:, dr:dr + h, dc:dc + w])
              for dr in range(3) for dc in range(3))
    return out + bias[:, None, None]


# partial and whole 4x4 output tiles, square and not
WINOGRAD_HW = [(1, 1), (2, 3), (5, 7), (13, 9), (16, 16)]
WINOGRAD_CHANNELS = [(64, 96), (96, 64)]


def winograd_operands(rng, cin, cout, h, w):
    return (rng.standard_normal((cin, h, w)), rng.standard_normal((cout, cin, 3, 3)) / 24,
            rng.standard_normal(cout))


class TestWinogradConv2d:
    @pytest.mark.parametrize("cin,cout", WINOGRAD_CHANNELS)
    @pytest.mark.parametrize("h,w", WINOGRAD_HW)
    def test_forward_matches_taps_oracle(self, rng, cin, cout, h, w):
        x, k, b = winograd_operands(rng, cin, cout, h, w)
        want = taps_conv3x3(x, k, b)
        counters.reset("conv2d_winograd")
        got64 = T.conv2d(T.tensor(x, dtype=np.float64), T.tensor(k, dtype=np.float64),
                         T.tensor(b, dtype=np.float64), stride=1, pad=1)
        got32 = T.conv2d(T.tensor(x, dtype=np.float32), T.tensor(k, dtype=np.float32),
                         T.tensor(b, dtype=np.float32), stride=1, pad=1)
        assert counters["conv2d_winograd"] == 2
        assert got64.dtype == np.float64 and got32.dtype == np.float32
        assert np.abs(got64.data - want).max() <= 1e-10
        assert np.abs(got32.data - want).max() <= 1e-4 * np.abs(want).max()

    @pytest.mark.parametrize("cin,cout,kh,stride,pad,winograd", [
        (64, 64, 3, 1, 1, True),
        (256, 64, 3, 1, 1, True),
        (63, 64, 3, 1, 1, False),
        (64, 32, 3, 1, 1, False),
        (64, 64, 3, 2, 1, False),
        (64, 64, 3, 1, 0, False),
        (64, 64, 1, 1, 0, False),
    ])
    def test_dispatch_rule(self, rng, cin, cout, kh, stride, pad, winograd):
        arrays = (rng.standard_normal((cin, 6, 6)), rng.standard_normal((cout, cin, kh, kh)), np.zeros(cout))
        counters.reset("conv2d", "conv2d_winograd")
        T.conv2d(*(T.tensor(a) for a in arrays), stride=stride, pad=pad)
        assert counters["conv2d"] == 1
        assert counters["conv2d_winograd"] == int(winograd)
        # Winograd is forward-only: a call that records, through any one input, runs im2col
        for which in range(3):
            inputs = [parameter(a) if i == which else T.tensor(a) for i, a in enumerate(arrays)]
            assert T.conv2d(*inputs, stride=stride, pad=pad).requires_grad
        assert counters["conv2d_winograd"] == int(winograd)
        with T.no_grad():
            T.conv2d(*(parameter(a) for a in arrays), stride=stride, pad=pad)
        assert counters["conv2d"] == 5
        assert counters["conv2d_winograd"] == 2 * int(winograd)


def run_in_bands(monkeypatch, rows, fn):
    """``fn()`` with every conv band ``rows`` output rows (tile rows for
    Winograd), or a single band when ``rows`` is None; returns its result and
    the bands of each call. The budget is set, per call, from the byte counts
    that the kernel asks ``_row_bands`` about."""
    calls = []
    real = T._row_bands

    def spy(n_rows, row_bytes, fixed_bytes=0):
        budget = 2**62 if rows is None else fixed_bytes + rows * row_bytes
        m.setattr(T, "CONV_SCRATCH_BYTES", budget)
        calls.append(real(n_rows, row_bytes, fixed_bytes))
        return calls[-1]

    with monkeypatch.context() as m:
        m.setattr(T, "_row_bands", spy)
        return fn(), calls


def conv_call(op, arrays, dtype, stride=1, pad=1, grad=False):
    """The output of ``op`` on float ``arrays`` (x, kernel, bias), and with
    ``grad`` the float64 gradients of a weighted sum of it."""
    if not grad:
        with T.no_grad():
            return op(*(T.tensor(a, dtype=dtype) for a in arrays), stride=stride, pad=pad).data
    params = [parameter(a, dtype=dtype) for a in arrays]
    weighted_sum(op(*params, stride=stride, pad=pad), 3).backward()
    return [p.grad for p in params]


def im2col_conv(x, k, b, stride, pad):
    return T.Conv2d.apply(x, k, b, stride=stride, pad=pad)


# odd sizes down to one output row; 2 and 3 rows per band leave a short last band on most
BANDED_HW = [(1, 5), (2, 9), (7, 10), (13, 9)]
BANDED_ROWS = [1, 2, 3]


class TestBandedConv:
    """Conv2d's im2col and Winograd kernels in bands of output rows against one band."""

    @pytest.mark.parametrize("rows", BANDED_ROWS)
    @pytest.mark.parametrize("h,w,k,stride,pad", [
        (h, w, k, stride, pad) for h, w in BANDED_HW
        for k, stride, pad in [(3, 1, 1), (3, 2, 1), (3, 1, 0), (3, 2, 0), (1, 1, 0), (1, 2, 1)]
        if k <= min(h, w) + 2 * pad])
    def test_im2col_forward_and_gradients(self, rng, monkeypatch, rows, h, w, k, stride, pad):
        arrays = [rng.standard_normal((5, h, w)), rng.standard_normal((6, 5, k, k)), rng.standard_normal(6)]
        self.check(monkeypatch, rows, im2col_conv, arrays, stride, pad)

    @pytest.mark.parametrize("rows", BANDED_ROWS)
    @pytest.mark.parametrize("h,w", BANDED_HW + [(16, 16)])
    def test_winograd_forward_and_gradients(self, rng, monkeypatch, rows, h, w):
        """conv2d at Winograd widths: the unrecorded forward runs Winograd, the
        recorded gradient call runs im2col (Winograd is forward-only)."""
        arrays = list(winograd_operands(rng, 64, 72, h, w))
        self.check(monkeypatch, rows, T.conv2d, arrays, 1, 1)

    @staticmethod
    def check(monkeypatch, rows, op, arrays, stride, pad):
        single32, _ = run_in_bands(monkeypatch, None, lambda: conv_call(op, arrays, np.float32, stride, pad))
        banded32, calls = run_in_bands(monkeypatch, rows, lambda: conv_call(op, arrays, np.float32, stride, pad))
        assert all(r1 - r0 == rows for bands in calls for r0, r1 in bands[:-1])
        # float32 agrees to rounding, not bitwise: BLAS picks its GEMM kernel by
        # matrix size, so a band's product can round differently from the
        # whole map's (CHANGES.md); float64 agrees to 1e-12
        scale = np.abs(single32).max()
        assert np.abs(banded32 - single32).max() <= 1e-5 * scale
        single64, _ = run_in_bands(monkeypatch, None, lambda: conv_call(op, arrays, np.float64, stride, pad))
        banded64, _ = run_in_bands(monkeypatch, rows, lambda: conv_call(op, arrays, np.float64, stride, pad))
        assert np.abs(banded64 - single64).max() <= 1e-12 * scale
        want, _ = run_in_bands(monkeypatch, None, lambda: conv_call(op, arrays, np.float64, stride, pad, True))
        got, _ = run_in_bands(monkeypatch, rows, lambda: conv_call(op, arrays, np.float64, stride, pad, True))
        for g, wg in zip(got, want):
            assert np.abs(g - wg).max() <= 1e-10

    def test_unrecorded_call_keeps_nothing(self, rng):
        x, k, b = (rng.standard_normal(s).astype(np.float32) for s in ((64, 9, 9), (64, 64, 3, 3), (64,)))
        for stride in (2, 1):  # im2col, then Winograd
            ctx = T.Conv2d()
            ctx.records = False
            counters.reset("conv2d_winograd")
            ctx.forward(x, k, b, stride=stride, pad=1)
            assert counters["conv2d_winograd"] == int(stride == 1)
            assert ctx.saved == ()

    @pytest.mark.parametrize("stride", [2, 1])  # im2col, then Winograd
    def test_no_grad_peak_is_output_plus_budget(self, rng, stride):
        x = T.tensor(rng.standard_normal((64, 240, 320)), dtype=np.float32)
        k = T.tensor(rng.standard_normal((64, 64, 3, 3)) / 24, dtype=np.float32)
        b = T.tensor(np.zeros(64), dtype=np.float32)
        with T.no_grad():
            tracemalloc.start()
            try:
                counters.reset("conv2d_winograd")
                out = T.conv2d(x, k, b, stride=stride, pad=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert counters["conv2d_winograd"] == int(stride == 1)
        # one band for the whole map peaks 61 MB (stride 2) and 104 MB (Winograd) above the output
        assert peak <= out.data.nbytes + T.CONV_SCRATCH_BYTES + 2**20


class TestDepthwiseConv2d:
    def test_unit_kernels_identity(self, rng):
        x = T.tensor(rng.random((3, 5, 5)))
        out = T.depthwise_conv2d(x, T.tensor(np.ones((3, 1, 1))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_channel_independence(self, rng):
        x = rng.standard_normal((2, 6, 6))
        x[1] = 0.0
        out = T.depthwise_conv2d(T.tensor(x), T.tensor(rng.standard_normal((2, 3, 3))), pad=1)
        assert np.all(out.data[1] == 0)
        assert np.any(out.data[0] != 0)

    def test_matches_grouped_loop_oracle(self, rng):
        x = rng.standard_normal((4, 7, 7))
        k = rng.standard_normal((4, 3, 3))
        got = T.depthwise_conv2d(T.tensor(x), T.tensor(k), stride=2, pad=1)
        np.testing.assert_allclose(got.data, naive_depthwise(x, k, 2, 1), atol=1e-5)

    @pytest.mark.parametrize("kh,kw", KERNEL_HW)
    def test_rectangular_map_matches_loop_oracle(self, rng, kh, kw):
        x = rng.standard_normal((3, 7, 10))
        k = rng.standard_normal((3, kh, kw))
        for stride, pad in STRIDE_PAD:
            got = T.depthwise_conv2d(T.tensor(x), T.tensor(k), stride, pad)
            np.testing.assert_allclose(got.data, naive_depthwise(x, k, stride, pad), atol=1e-5)

    @pytest.mark.parametrize("kh,kw", KERNEL_HW)
    @pytest.mark.parametrize("stride,pad", STRIDE_PAD)
    def test_backward_matches_finite_differences(self, rng, stride, pad, kh, kw):
        arrays = [rng.standard_normal((3, 7, 10)), rng.standard_normal((3, kh, kw))]
        check_backward(lambda x, k: T.depthwise_conv2d(x, k, stride, pad), arrays)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="channels"):
            T.depthwise_conv2d(T.tensor(rng.random((2, 4, 4))), T.tensor(rng.random((3, 1, 1))))


class TestMaxPool2d:
    def test_constant_input(self):
        out = T.maxpool2d(T.tensor(np.full((2, 4, 4), 3.5)), 2)
        np.testing.assert_array_equal(out.data, np.full((2, 2, 2), 3.5))

    def test_global_max(self):
        x = T.tensor(np.arange(16, dtype=np.float64).reshape(1, 4, 4))
        out = T.maxpool2d(x, 4, 4)
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 15

    def test_matches_window_scan(self, rng):
        x = rng.standard_normal((3, 8, 8))
        got = T.maxpool2d(T.tensor(x), 4, 4).data
        want = np.stack([
            [[x[c, 4 * r:4 * r + 4, 4 * q:4 * q + 4].max() for q in range(2)] for r in range(2)]
            for c in range(3)
        ])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k,stride", [(3, 2), (4, 4)])
    def test_rectangular_map_matches_loop_oracle(self, rng, k, stride):
        x = rng.standard_normal((3, 7, 10))
        got = T.maxpool2d(T.tensor(x, dtype=np.float64), k, stride).data
        np.testing.assert_array_equal(got, naive_maxpool(x, k, stride))

    @pytest.mark.parametrize("k,stride", [(3, 2), (4, 4)])
    def test_backward_matches_finite_differences(self, rng, k, stride):
        # distinct values 0.01 apart: no max changes within the difference step
        x = rng.permutation(3 * 7 * 10).reshape(3, 7, 10) * 0.01
        check_backward(lambda t: T.maxpool2d(t, k, stride), [x])

    def test_window_larger_than_input(self, rng):
        with pytest.raises(ValueError, match="larger"):
            T.maxpool2d(T.tensor(rng.random((1, 3, 3))), 4)

    def test_gradient_routes_to_first_argmax(self):
        x = parameter(np.array([[[1.0, 2.0], [2.0, 0.0]]]))
        out = T.maxpool2d(x, 2)
        out.sum().backward()
        # two tied maxima: row-major first occurrence wins
        np.testing.assert_array_equal(x.grad, [[[0.0, 1.0], [0.0, 0.0]]])

    def test_gradient_magnitude_preserved_per_window(self, rng):
        x = parameter(rng.standard_normal((2, 8, 8)) + np.linspace(0, 1, 128).reshape(2, 8, 8))
        out = T.maxpool2d(x, 4, 4)
        weighted_sum(out, 7).backward()
        w = np.random.default_rng(7).standard_normal(out.shape)
        for c in range(2):
            for r in range(2):
                for q in range(2):
                    window = x.grad[c, 4 * r:4 * r + 4, 4 * q:4 * q + 4]
                    assert np.isclose(np.abs(window).sum(), abs(w[c, r, q]))


class TestBatchAxis:
    """A (2, C, H, W) stack through one call equals two calls on its maps."""

    def test_depthwise_conv2d_stride_one_pad_one(self, rng):
        x, k = rng.standard_normal((2, 3, 7, 9)), rng.standard_normal((3, 3, 3))
        assert_batch_axis_exact(lambda t, kern: T.depthwise_conv2d(t, kern, stride=1, pad=1), x, k)

    @pytest.mark.parametrize("s", [2, 3])
    def test_depthwise_conv2d_stride_s_pad_zero(self, rng, s):
        x, k = rng.standard_normal((2, 4, 3 * s, 2 * s)), rng.standard_normal((4, s, s))
        assert_batch_axis_exact(lambda t, kern: T.depthwise_conv2d(t, kern, stride=s, pad=0), x, k)

    @pytest.mark.parametrize("k,stride", [(2, 2), (3, 1)])
    def test_maxpool2d_with_tied_maxima(self, rng, k, stride):
        # three levels on a 6x6 map: most windows hold tied maxima, so the
        # first-max gradient routing shows
        x = rng.integers(0, 3, size=(2, 3, 6, 6)).astype(np.float64)
        assert_batch_axis_exact(lambda t: T.maxpool2d(t, k, stride), x)

    @pytest.mark.parametrize("factor", [2, 3])
    def test_bilinear_upsample(self, rng, factor):
        assert_batch_axis_exact(lambda t: T.bilinear_upsample(t, factor), rng.standard_normal((2, 3, 4, 5)))

    def test_depthwise_conv2d_checks_channels_at_axis_minus_3(self, rng):
        with pytest.raises(ValueError, match="channels"):
            T.depthwise_conv2d(T.tensor(rng.random((3, 2, 4, 4))), T.tensor(rng.random((3, 1, 1))))


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(T.tensor(np.zeros(4)), axis=-1)
        np.testing.assert_allclose(out.data, 0.25)

    def test_large_logits_stable(self):
        out = T.softmax(T.tensor([1000.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_matches_float64_reference(self, rng):
        x = rng.standard_normal(17).astype(np.float32)
        got = T.softmax(T.tensor(x), axis=-1).data
        ref = np.exp(x.astype(np.float64))
        ref /= ref.sum()
        assert np.abs(got - ref).max() < 1e-6

    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, values):
        out = T.softmax(T.tensor(np.array(values, dtype=np.float32)), axis=-1)
        assert abs(out.data.sum() - 1.0) < 1e-6
        assert np.all(out.data >= 0) and np.all(out.data <= 1)

    def test_gradient_of_sum_is_zero(self, rng):
        x = parameter(rng.standard_normal((3, 5)), dtype=np.float64)
        T.softmax(x, axis=-1).sum().backward()
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)

    def test_backward_leaves_a_shared_gradient_intact(self, rng):
        # Add hands one gradient array to both parents; softmax's backward must not write into it
        x = parameter(rng.standard_normal((3, 5)), dtype=np.float64)
        other = parameter(np.zeros((3, 5)), dtype=np.float64)
        w = rng.standard_normal((3, 5))
        ((T.softmax(x, axis=-1) + other) * T.tensor(w, dtype=np.float64)).sum().backward()
        np.testing.assert_array_equal(other.grad, w)


class TestVanillaAttention:
    def test_single_key_returns_value(self, rng):
        q = T.tensor(rng.standard_normal((5, 8)))
        k = T.tensor(rng.standard_normal((1, 8)))
        v = T.tensor(rng.standard_normal((1, 8)))
        out = T.vanilla_attention(q, k, v, heads=1)
        np.testing.assert_allclose(out.data, np.repeat(v.data, 5, axis=0), atol=1e-6)

    def test_dominant_logit_selects_row(self, rng):
        d = 8
        k = np.eye(3, d)
        q = np.zeros((2, d))
        q[0] = k[1] * 1e4  # row 0 overwhelmingly attends key 1
        v = rng.standard_normal((3, d))
        out = T.vanilla_attention(T.tensor(q), T.tensor(k), T.tensor(v), heads=1)
        np.testing.assert_allclose(out.data[0], v[1], atol=1e-4)

    def test_matches_composed_oracle(self, rng):
        q, k, v = (rng.standard_normal(s) for s in ((5, 8), (7, 8), (7, 8)))
        got = T.vanilla_attention(T.tensor(q), T.tensor(k), T.tensor(v), heads=1).data
        logits = q @ k.T / np.sqrt(8)
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, weights @ v, atol=1e-5)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            T.vanilla_attention(T.tensor(rng.random((2, 4))), T.tensor(rng.random((3, 5))), T.tensor(rng.random((3, 5))),
                                heads=1)


class TestLinearAttention:
    def test_single_key_returns_value(self, rng):
        q = T.tensor(rng.standard_normal((4, 6)))
        k = T.tensor(rng.standard_normal((1, 6)))
        v = T.tensor(rng.standard_normal((1, 6)))
        out = T.linear_attention(q, k, v)
        np.testing.assert_allclose(out.data, np.repeat(v.data, 4, axis=0), atol=1e-6)
        # agrees exactly with vanilla attention in the single-key case
        vanilla = T.vanilla_attention(q, k, v, heads=1)
        np.testing.assert_allclose(out.data, vanilla.data, atol=1e-6)

    def test_zero_query_gives_constant_weighted_mean(self, rng):
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((6, 4))
        q = np.zeros((3, 4))
        out = T.linear_attention(T.tensor(q), T.tensor(k), T.tensor(v)).data
        phi_k = np.where(k > 0, k, np.exp(k) - 1) + 1
        want = (phi_k.T @ v).sum(axis=0) / phi_k.sum()
        # phi(0) = 1, so every query yields the same phi(K)-weighted mean
        for row in out:
            np.testing.assert_allclose(row, want, atol=1e-5)

    def test_matches_per_query_loop_oracle(self, rng):
        q = rng.standard_normal((5, 8))
        k = rng.standard_normal((7, 8))
        v = rng.standard_normal((7, 8))
        phi = lambda x: np.where(x > 0, x, np.exp(x) - 1) + 1
        fq, fk = phi(q), phi(k)
        want = np.stack([
            (fk * (fq[i] @ fk.T)[:, None]).sum(axis=0) * 0 + (fq[i] @ fk.T) @ v / (fq[i] @ fk.sum(axis=0))
            for i in range(5)
        ])
        got = T.linear_attention(T.tensor(q), T.tensor(k), T.tensor(v)).data
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_paper_literal_form(self, rng):
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        phi = lambda x: np.where(x > 0, x, np.exp(x) - 1) + 1
        want = phi(q) @ (phi(k).T @ phi(v))
        got = T.linear_attention(T.tensor(q), T.tensor(k), T.tensor(v), normalized=False).data
        np.testing.assert_allclose(got, want, atol=1e-5)


class TestBilinearUpsample:
    def test_factor_one_identity(self, rng):
        x = T.tensor(rng.random((2, 3, 3)))
        assert T.bilinear_upsample(x, 1) is x

    def test_constant_stays_constant(self, rng):
        out = T.bilinear_upsample(T.tensor(np.full((1, 3, 5), 2.5)), 4)
        assert out.shape == (1, 12, 20)
        np.testing.assert_allclose(out.data, 2.5, atol=1e-6)

    def test_two_by_two_closed_form(self):
        x = T.tensor(np.array([[[0.0, 1.0], [2.0, 3.0]]]))
        out = T.bilinear_upsample(x, 2).data[0]
        # sample centers at (j + 0.5)/2 - 0.5, clamped: weights 0.75/0.25
        want = np.array([
            [0.0, 0.25, 0.75, 1.0],
            [0.5, 0.75, 1.25, 1.5],
            [1.5, 1.75, 2.25, 2.5],
            [2.0, 2.25, 2.75, 3.0],
        ])
        np.testing.assert_allclose(out, want, atol=1e-6)


# The op chains the fused ops replaced, kept as oracles.


def composite_linear(x, w, b=None):
    out = T.matmul(x.reshape((-1, x.shape[-1])), w.transpose((1, 0))).reshape((*x.shape[:-1], w.shape[0]))
    return out if b is None else out + b


def composite_layer_norm(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt()


def composite_scale_to_norm(x, norm):
    return x * (norm / ((x * x).sum(axis=0, keepdims=True) + 1e-12).sqrt())


def composite_rotary(x, cos, sin):
    paired = x.reshape((*x.shape[:-1], x.shape[-1] // 2, 2))
    rotated = T.concat([-paired[..., 1:2], paired[..., 0:1]], axis=-1).reshape(x.shape)
    return x * T.tensor(cos) + rotated * T.tensor(sin)


def composite_attention(q, k, v, scale):
    perm = list(range(k.ndim))
    perm[-1], perm[-2] = perm[-2], perm[-1]
    return T.matmul(T.softmax(T.matmul(q, k.transpose(perm)) * scale, axis=-1), v)


def composite_dual_softmax_nll(s, index, floor):
    probs = T.softmax(s, axis=-1) * T.softmax(s, axis=-2)
    return -(T.gather_nd(probs, index).clamp_min(floor).log().mean())


def assert_relative_close(got, want, rtol=1e-10):
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= rtol * scale


def check_fused_against_composite(fused, composite, arrays):
    """Float64 forward values and gradients of a fused op equal its composite's."""
    results = []
    for op in (fused, composite):
        leaves = [parameter(a, dtype=np.float64) for a in arrays]
        out = op(*leaves)
        weighted_sum(out, 11).backward()
        results.append((out.data, [leaf.grad for leaf in leaves]))
    (out_f, grads_f), (out_c, grads_c) = results
    assert out_f.shape == out_c.shape
    assert_relative_close(out_f, out_c)
    for got, want in zip(grads_f, grads_c):
        assert_relative_close(got, want)


class TestFusedOps:
    @pytest.mark.parametrize("x_shape", [(5, 6), (2, 5, 6)])
    def test_linear_matches_composite(self, rng, x_shape):
        arrays = [rng.standard_normal(x_shape), rng.standard_normal((4, 6)), rng.standard_normal(4)]
        check_fused_against_composite(T.linear, composite_linear, arrays)
        check_fused_against_composite(T.linear, composite_linear, arrays[:2])

    @pytest.mark.parametrize("shape", [(7, 8), (2, 3, 8)])
    def test_layer_norm_matches_composite(self, rng, shape):
        x = rng.standard_normal(shape) * 3.0 + 1.5
        check_fused_against_composite(T.layer_norm, composite_layer_norm, [x])

    @pytest.mark.parametrize("shape", [(6,), (5, 3, 4)])
    def test_scale_to_norm_matches_composite(self, rng, shape):
        x = rng.standard_normal(shape) * 3.0
        check_fused_against_composite(lambda t: T.scale_to_norm(t, 2.5), lambda t: composite_scale_to_norm(t, 2.5), [x])

    def test_scale_to_norm_equals_composite_bitwise_in_float32(self, rng):
        # normalize_cells runs it on the coarse maps, whose matches must not move
        x = T.tensor(rng.standard_normal((16, 9, 13)).astype(np.float32))
        np.testing.assert_array_equal(T.scale_to_norm(x, 4.0).data, composite_scale_to_norm(x, 4.0).data)

    def test_rotary_on_heads_matches_composite(self, rng):
        angles = rng.uniform(-np.pi, np.pi, (5, 8))  # per token, broadcast over 3 heads
        cos, sin = np.cos(angles), np.sin(angles)
        check_fused_against_composite(
            lambda x: T.rotary(x, cos, sin), lambda x: composite_rotary(x, cos, sin),
            [rng.standard_normal((3, 5, 8))],
        )

    @pytest.mark.parametrize("lead,heads", [((), 1), ((2,), 1), ((), 2), ((2,), 4)])
    def test_attention_matches_composite(self, rng, lead, heads):
        # heads: per-head composite on the i-th slice of the last axis, concatenated
        arrays = [rng.standard_normal((*lead, 5, 8)), rng.standard_normal((*lead, 7, 8)),
                  rng.standard_normal((*lead, 7, 12))]
        scale = 1.0 / np.sqrt(8 // heads)

        def per_head(q, k, v):
            def part(x, i):
                width = x.shape[-1] // heads
                return T.gather_nd(x, (Ellipsis, slice(i * width, (i + 1) * width)))
            outs = [composite_attention(part(q, i), part(k, i), part(v, i), scale) for i in range(heads)]
            return T.concat(outs, axis=-1)

        check_fused_against_composite(
            lambda q, k, v: T.vanilla_attention(q, k, v, heads=heads), per_head, arrays,
        )

    @pytest.mark.parametrize("heads,widths", [(3, (8, 12)), (2, (8, 9)), (0, (8, 8))])
    def test_attention_rejects_heads_that_do_not_divide(self, rng, heads, widths):
        qk, dv = widths
        q, k = (T.tensor(rng.standard_normal((5, qk))) for _ in range(2))
        v = T.tensor(rng.standard_normal((5, dv)))
        with pytest.raises(ValueError, match="heads"):
            T.vanilla_attention(q, k, v, heads=heads)

    def test_attention_counts_one_softmax_and_its_score_entries(self, rng):
        q, k, v = (T.tensor(rng.standard_normal(s)) for s in ((2, 5, 8), (2, 7, 8), (2, 7, 8)))
        counters.reset("softmax", "attn_score_entries")
        T.vanilla_attention(q, k, v, heads=1)
        # every entry of the batched call: 2 maps x 5 queries x 7 keys
        assert counters["softmax"] == 1 and counters["attn_score_entries"] == 70

    def test_attention_leading_dims_must_agree(self, rng):
        q = T.tensor(rng.standard_normal((2, 5, 8)))
        kv = T.tensor(rng.standard_normal((3, 7, 8)))
        with pytest.raises(ValueError, match="leading dims"):
            T.vanilla_attention(q, kv, kv, heads=1)


class TestDualSoftmaxNLL:
    FLOOR = 1e-12

    def check(self, s, index):
        check_fused_against_composite(
            lambda x: T.dual_softmax_nll(x, index, self.FLOOR),
            lambda x: composite_dual_softmax_nll(x, index, self.FLOOR),
            [s],
        )

    def test_batch_matches_dense_composite_with_entries_below_floor(self, rng):
        s = rng.standard_normal((5, 6, 7)) * 2.0
        k, a, b = np.array([0, 1, 3, 4]), np.array([2, 5, 0, 2]), np.array([6, 1, 1, 3])
        s[1, 5, 1] = -40.0  # p about e^-80: floored, no gradient through it
        s[4, 2, 3] = -40.0
        probs = T.softmax(T.tensor(s), -1).data * T.softmax(T.tensor(s), -2).data
        assert (probs[k, a, b] < self.FLOOR).sum() == 2
        self.check(s, (k, a, b))

    def test_matrix_matches_dense_composite_with_repeated_rows_and_columns(self, rng):
        s = rng.standard_normal((6, 7)) * 2.0
        a = np.array([0, 1, 2, 3, 3, 5, 0])
        b = np.array([4, 4, 4, 1, 2, 6, 4])  # column 4 four times, (0, 4) twice
        self.check(s, (a, b))

    def test_float32_value_is_close_to_float64(self, rng):
        s = rng.standard_normal((3, 8, 8)) * 4.0
        index = (np.arange(3), np.array([1, 7, 3]), np.array([0, 2, 7]))
        got = T.dual_softmax_nll(T.tensor(s, dtype=np.float32), index, self.FLOOR)
        want = T.dual_softmax_nll(T.tensor(s, dtype=np.float64), index, self.FLOOR)
        assert got.dtype == np.float32
        assert abs(float(got.data) - float(want.data)) <= 1e-5 * abs(float(want.data))


class TestScatterAndPad:
    @pytest.mark.parametrize("leading_slice", [False, True])
    def test_gather_backward_equals_add_at_with_repeats(self, rng, leading_slice):
        shape = (3, 6, 7)
        rows, cols = rng.integers(0, 6, (5, 4)), rng.integers(0, 7, (5, 4))
        rows[1, 2], cols[1, 2] = rows[0, 0], cols[0, 0]
        rows[4, 3], cols[4, 3] = rows[0, 0], cols[0, 0]
        if leading_slice:
            index = (slice(None), rows, cols)
        else:
            chans = rng.integers(0, 3, (5, 4))
            chans[1, 2] = chans[4, 3] = chans[0, 0]
            index = (chans, rows, cols)
        out = T.gather_nd(parameter(rng.standard_normal(shape).astype(np.float32)), index)
        grad = rng.standard_normal(out.shape).astype(np.float32)
        (got,) = out._ctx.backward(grad)
        want = np.zeros(shape, dtype=np.float32)
        np.add.at(want, index, grad)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lead", [0, 1, 2])
    def test_one_array_after_full_slices_equals_the_fancy_index(self, rng, lead):
        # the np.take path: forward, contiguity and the repeat-accumulating backward
        shape = (3, 4, 35)
        flat = rng.integers(-shape[lead], shape[lead], (6, 5))
        flat[2, 1] = flat[0, 0]
        index = (slice(None),) * lead + (flat,)
        x = rng.standard_normal(shape).astype(np.float32)
        out = T.gather_nd(parameter(x), index)
        np.testing.assert_array_equal(out.data, x[index])
        assert out.data.flags.c_contiguous
        grad = rng.standard_normal(out.shape).astype(np.float32)
        want = np.zeros(shape, dtype=np.float32)
        np.add.at(want, index, grad)
        np.testing.assert_array_equal(out._ctx.backward(grad)[0], want)

    @pytest.mark.parametrize("pad", [1, 2])
    def test_pad_plane_equals_np_pad(self, rng, pad):
        # the depthwise conv pads with np.pad; _unpad_plane takes the border back off
        for lead in ((), (2,)):  # a map, then a stack of two
            x = rng.standard_normal((*lead, 3, 5, 7)).astype(np.float32)
            got = T._unpad_plane(np.pad(x, ((0, 0),) * (len(lead) + 1) + ((pad, pad), (pad, pad))), pad)
            assert got.dtype == x.dtype and got.flags.c_contiguous
            np.testing.assert_array_equal(got, x)

    def test_repeated_advanced_index_accumulates_its_gradient(self):
        x = parameter(np.zeros(4))
        x[np.array([1, 1, 2])].sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])

    @pytest.mark.parametrize("shape,key", [
        ((5, 6, 7), (slice(None), slice(1, 4), slice(2, 5))),
        ((2, 5, 6, 7), slice(None, None, -1)),
        ((2, 5, 6, 7), 0),
        ((2, 5, 6, 7), (Ellipsis, slice(1, 3))),
        ((2, 5, 6, 7), (Ellipsis, 1)),
        ((2, 5, 6, 7), (None, 1)),
    ], ids=["window", "reversed-stack", "first-map", "ellipsis", "ellipsis-int", "new-axis"])
    def test_basic_index_gradient_equals_slice_add(self, rng, shape, key):
        x = parameter(rng.standard_normal(shape))
        out = x[key]
        grad = rng.standard_normal(out.shape)
        (got,) = out._ctx.backward(grad)
        want = np.zeros(shape)
        want[key] += grad
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        # the flat scatter that array keys take gives the same gradient
        positions = np.arange(math.prod(shape)).reshape(shape)[key]
        np.testing.assert_array_equal(got, T._scatter_add(shape, positions, grad))

    @pytest.mark.parametrize("key", [slice(None, None, -1), 0], ids=["reversed-stack", "first-map"])
    def test_basic_index_backward_allocates_only_its_result(self, rng, key):
        # the transform's stacked pair at 256² in the paper config; an index
        # array over the whole source would take 2x its bytes on its own
        pair = parameter(rng.standard_normal((2, 256, 32, 32)).astype(np.float32))
        out = pair[key]
        grad = np.ones(out.shape, dtype=np.float32)
        tracemalloc.start()
        try:
            out._ctx.backward(grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * pair.data.nbytes


def toposort_backward(root):
    """Leaf gradients by a depth-first reverse topological walk, the order
    ``Tensor.backward`` used before it visited ops by sequence number."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, emit = stack.pop()
        if emit:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            if node._ctx is not None:
                stack.extend((p, False) for p in node._ctx.parents if id(p) not in seen)
    pending = {id(root): np.ones(())}
    grads = {}
    for node in reversed(order):
        grad = pending.pop(id(node), None)
        if grad is None:
            continue
        if node._ctx is None:
            grads[id(node)] = grad
            continue
        for parent, pgrad in zip(node._ctx.parents, node._ctx.backward(grad)):
            if pgrad is not None and (parent.requires_grad or parent._ctx is not None):
                pending[id(parent)] = pending.get(id(parent), 0.0) + pgrad
    return grads


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = parameter(rng.standard_normal((3, 4)))
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_backward_requires_scalar(self, rng):
        x = parameter(rng.standard_normal(3))
        with pytest.raises(ValueError, match="scalar"):
            (x * 2.0).backward()

    def test_backward_on_detached_tensor(self, rng):
        x = T.tensor(rng.standard_normal(()))
        with pytest.raises(ValueError, match="not attached"):
            x.backward()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_gradient_is_zero_at_zeros_and_nans(self, rng, dtype):
        a = np.array([-2.0, -0.0, 0.0, 1e-30, 3.0, np.nan, np.inf, -np.inf], dtype=dtype)
        g = rng.standard_normal(a.shape).astype(dtype)
        x = parameter(a)
        previous = T.set_finite_checks(False)
        try:
            out = x.relu()
        finally:
            T.set_finite_checks(previous)
        (got,) = out._ctx.backward(g)
        np.testing.assert_array_equal(got, g * (a > 0))  # the rule: pass where the input is > 0

    def test_composite_graph_matches_finite_differences(self, rng):
        x0 = rng.standard_normal((2, 6, 6))
        k0 = rng.standard_normal((4, 2, 3, 3)) * 0.5
        zero_bias = T.tensor(np.zeros(4), dtype=np.float64)

        def build(x, k):
            feat = T.conv2d(T.tensor(x, dtype=np.float64), T.tensor(k, dtype=np.float64), zero_bias, stride=1, pad=1)
            tokens = feat.reshape((4, 36)).transpose((1, 0))
            out = T.vanilla_attention(tokens, tokens, tokens, heads=1)
            return weighted_sum(out, 3)

        xt = parameter(x0, dtype=np.float64)
        kt = parameter(k0, dtype=np.float64)
        feat = T.conv2d(xt, kt, zero_bias, stride=1, pad=1)
        tokens = feat.reshape((4, 36)).transpose((1, 0))
        weighted_sum(T.vanilla_attention(tokens, tokens, tokens, heads=1), 3).backward()

        fd_x = numeric_gradient(lambda x, k: float(build(x, k).data), [x0, k0], which=0)
        fd_k = numeric_gradient(lambda x, k: float(build(x, k).data), [x0, k0], which=1)
        assert_gradients_close(xt.grad, fd_x)
        assert_gradients_close(kt.grad, fd_k)


    def test_diamond_with_shared_leaf_matches_finite_differences_and_toposort(self, rng):
        x0 = rng.standard_normal((3, 4))
        w0 = rng.standard_normal((3, 4))

        def build(x, w):
            a = x * w                    # x feeds four ops, w two
            left = a.exp()
            right = a * x + w            # diamond: a -> left, right -> joined
            joined = left * right - x
            return weighted_sum(joined + (x * x).sum(axis=0, keepdims=True) * w, 4)

        x = parameter(x0, dtype=np.float64)
        w = parameter(w0, dtype=np.float64)
        loss = build(x, w)
        oracle = toposort_backward(loss)
        loss.backward()
        for which, leaf in enumerate((x, w)):
            fd = numeric_gradient(lambda a, b: float(build(T.tensor(a), T.tensor(b)).data), [x0, w0], which)
            assert_gradients_close(leaf.grad, fd)
            np.testing.assert_allclose(leaf.grad, oracle[id(leaf)], rtol=1e-12, atol=1e-14)

    def test_each_op_backward_runs_once_with_its_complete_gradient(self, rng):
        calls = []

        class Identity(T.Function):
            def forward(self, a):
                return a.copy()

            def backward(self, grad):
                calls.append(grad.copy())
                return (grad,)

        x = parameter(rng.standard_normal(4), dtype=np.float64)
        shared = Identity.apply(x)
        ((shared * 2.0) + (shared * 3.0) + shared.exp()).sum().backward()
        assert len(calls) == 1
        np.testing.assert_allclose(calls[0], 5.0 + np.exp(x.data))
        np.testing.assert_allclose(x.grad, 5.0 + np.exp(x.data))

    def test_gradients_accumulate_across_backward_calls(self, rng):
        x = parameter(rng.standard_normal(3), dtype=np.float64)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, 5.0)


class TestTensorBasics:
    def test_shape_data_consistency(self, rng):
        x = T.tensor(rng.random((2, 3, 4)))
        assert x.size == 24 and x.shape == (2, 3, 4)

    def test_finite_check_raises(self):
        with np.errstate(divide="ignore"), pytest.raises(T.NumericError):
            T.tensor([1.0, 0.0]).log()

    def test_no_grad_blocks_taping(self, rng):
        x = parameter(rng.random(3))
        with T.no_grad():
            y = x * 2.0
        assert y._ctx is None and not y.requires_grad

    @pytest.mark.parametrize("grad,param,records", [
        (True, False, False),  # gradients on, no input requires them
        (True, True, True),  # gradients on, one of two inputs is a parameter
        (False, True, False),  # no_grad, with a parameter
    ])
    def test_tape_rule(self, rng, grad, param, records):
        a, b = T.tensor(rng.random(3)), (parameter if param else T.tensor)(rng.random(3))
        with contextlib.nullcontext() if grad else T.no_grad():
            y = a * b
        assert y.requires_grad is records
        assert (y._ctx is not None) is records


# Every autodiff op, with the tests that check its forward and backward in
# float64 against finite differences or an oracle, as pytest node ids.
CRITERION_02 = "test_acceptance.py::test_criterion_02_gradient_correctness"
FOLD_CHECK = "test_backbone.py::TestFuseBlock::test_fold_matches_multi_branch_with_gradients"
OP_CHECKS = {
    **{op: (CRITERION_02,) for op in (
        T.Add, T.Sub, T.Mul, T.Div, T.Neg, T.Pow, T.Exp, T.Log, T.Sqrt, T.ReLU, T.ELU, T.ClampMin, T.Sum,
        T.Reshape, T.Transpose, T.Concat, T.GatherND, T.MatMul, T.Softmax, T.LayerNorm)},
    # unrecorded calls at Winograd widths run Winograd, forward only: forward checks for those
    T.Conv2d: (CRITERION_02, "test_tensor.py::TestConv2d::test_backward_matches_finite_differences",
               "test_tensor.py::TestBandedConv::test_im2col_forward_and_gradients",
               "test_tensor.py::TestWinogradConv2d::test_forward_matches_taps_oracle",
               "test_tensor.py::TestBandedConv::test_winograd_forward_and_gradients"),
    T.DepthwiseConv2d: (CRITERION_02,
                        "test_tensor.py::TestDepthwiseConv2d::test_backward_matches_finite_differences",
                        "test_tensor.py::TestBatchAxis::test_depthwise_conv2d_stride_one_pad_one",
                        "test_tensor.py::TestBatchAxis::test_depthwise_conv2d_stride_s_pad_zero"),
    T.MaxPool2d: (CRITERION_02, "test_tensor.py::TestMaxPool2d::test_backward_matches_finite_differences",
                  "test_tensor.py::TestBatchAxis::test_maxpool2d_with_tied_maxima"),
    T.BilinearUpsample2d: (CRITERION_02, "test_tensor.py::TestBatchAxis::test_bilinear_upsample"),
    T.Attention: (CRITERION_02, "test_tensor.py::TestFusedOps::test_attention_matches_composite"),
    T.Rotary: (CRITERION_02, "test_tensor.py::TestFusedOps::test_rotary_on_heads_matches_composite"),
    T.Linear: ("test_tensor.py::TestFusedOps::test_linear_matches_composite",),
    T.ScaleToNorm: ("test_tensor.py::TestFusedOps::test_scale_to_norm_matches_composite",),
    T.FoldKernels: (FOLD_CHECK,),
    T.FoldBiases: (FOLD_CHECK,),
    T.DualSoftmaxNLL: (
        "test_tensor.py::TestDualSoftmaxNLL::test_batch_matches_dense_composite_with_entries_below_floor",
        "test_tensor.py::TestDualSoftmaxNLL::test_matrix_matches_dense_composite_with_repeated_rows_and_columns"),
}


def unchecked_ops() -> list[str]:
    """Names of the ``Function`` subclasses, found recursively, with no entry in OP_CHECKS."""
    gc.collect()  # ops that other tests define locally stay subclasses until collected
    missing, stack = [], [T.Function]
    while stack:
        for op in stack.pop().__subclasses__():
            stack.append(op)
            if op not in OP_CHECKS:
                missing.append(op.__name__)
    return sorted(missing)


class TestOpCoverage:
    def test_every_op_has_a_registered_gradient_check(self):
        assert unchecked_ops() == [], "ops without a float64 finite-difference or oracle check"
        for checks in OP_CHECKS.values():
            for node in checks:
                module, *path = node.split("::")
                test = importlib.import_module(module.removesuffix(".py"))
                for name in path:
                    test = getattr(test, name)  # a registered check that no longer exists fails here
                assert callable(test)

        class UncheckedOp(T.Function):
            pass

        assert unchecked_ops() == ["UncheckedOp"]
