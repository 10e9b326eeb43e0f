import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from gradcheck import assert_grad_close, central_diff
import im2col_ref
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_ops import (naive_conv2d, naive_dense, naive_gap,
                       naive_softmax_ce)

import defectnet
from defectnet import nn
from defectnet.errors import ShapeError
from defectnet.tensor import Tensor, _mm64


def t32(a):
    return Tensor(np.asarray(a, dtype=np.float32))


# (batch, in_ch, out_ch, h, w, kernel, stride, padding). Beside two
# single-image square cases, these are the shapes on which a patch matrix
# with swapped batch/channel axes or rows/columns gives wrong numbers:
# batch > 1, h != w, in_ch != out_ch, stride 2, padding 0..2, kernels 1/3/5.
CONV_CASES = [
    (1, 3, 2, 5, 5, 3, 1, 1),
    (1, 2, 2, 4, 4, 3, 1, 1),
    (2, 3, 2, 5, 4, 3, 1, 1),
    (3, 2, 3, 6, 5, 3, 2, 0),
    (2, 3, 2, 3, 4, 5, 1, 2),
    (2, 2, 3, 5, 6, 1, 2, 0),
    (3, 1, 2, 7, 5, 5, 2, 2),
    (2, 2, 3, 4, 3, 1, 1, 2),
]
CONV_IDS = [f"n{n}-c{c}o{o}-{h}x{w}-k{k}s{s}p{p}" for n, c, o, h, w, k, s, p in CONV_CASES]


def conv_case(seed, n, c, o, h, w, k, stride, pad):
    """Input, filters, bias and a projection r of the output to a scalar."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w)).astype(np.float32)
    wt = rng.normal(size=(o, c, k, k)).astype(np.float32)
    b = rng.normal(size=o).astype(np.float32)
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    r = rng.normal(size=(n, o, oh, ow))
    return x, wt, b, r


class TestConvForward:
    def test_all_ones_3x3_sums_to_nine(self):
        x = t32(np.ones((1, 1, 3, 3)))
        p = nn.ConvParams(t32(np.ones((1, 1, 3, 3))), t32([0.0]))
        out = nn.conv2d_forward(x, p)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_1x1_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = t32(rng.normal(size=(2, 1, 4, 5)))
        p = nn.ConvParams(t32(np.ones((1, 1, 1, 1))), t32([0.0]))
        assert np.array_equal(nn.conv2d_forward(x, p).array, x.array)

    @pytest.mark.parametrize("case", CONV_CASES, ids=CONV_IDS)
    def test_matches_naive_oracle(self, case):
        stride, pad = case[-2:]
        x, w, b, _ = conv_case(1, *case)
        out = nn.conv2d_forward(t32(x), nn.ConvParams(t32(w), t32(b), stride=stride, padding=pad))
        want = naive_conv2d(x, w, b, stride=stride, pad=pad)
        assert out.shape == want.shape
        assert np.max(np.abs(out.array - want)) < 1e-5

    def test_channel_mismatch(self):
        x = t32(np.ones((1, 2, 4, 4)))
        p = nn.ConvParams(t32(np.ones((1, 3, 3, 3))), t32([0.0]))
        with pytest.raises(ShapeError, match="channels"):
            nn.conv2d_forward(x, p)

    def test_kernel_larger_than_input(self):
        x = t32(np.ones((1, 1, 2, 2)))
        p = nn.ConvParams(t32(np.ones((1, 1, 5, 5))), t32([0.0]))
        with pytest.raises(ShapeError):
            nn.conv2d_forward(x, p)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            nn.ConvParams(t32(np.ones((1, 1, 2, 2))), t32([0.0]))


class TestConvBackward:
    def _instance(self, seed):
        return conv_case(seed, *CONV_CASES[1])

    def test_zero_upstream_gives_zero_grads(self):
        x, w, b, _ = self._instance(2)
        p = nn.ConvParams(t32(w), t32(b), padding=1)
        g = nn.conv2d_backward(t32(x), p, Tensor.zeros((1, 2, 4, 4)))
        assert not g.d_input.array.any()
        assert not g.d_params["weights"].array.any()
        assert not g.d_params["bias"].array.any()

    def test_adjoint_linearity(self):
        x, w, b, r = self._instance(3)
        p = nn.ConvParams(t32(w), t32(b), padding=1)
        g1 = nn.conv2d_backward(t32(x), p, t32(r))
        g2 = nn.conv2d_backward(t32(x), p, t32(2 * r))
        assert np.array_equal(g2.d_input.array, 2 * g1.d_input.array)
        assert np.array_equal(g2.d_params["weights"].array, 2 * g1.d_params["weights"].array)
        assert np.array_equal(g2.d_params["bias"].array, 2 * g1.d_params["bias"].array)

    @pytest.mark.parametrize("case", CONV_CASES, ids=CONV_IDS)
    def test_finite_differences(self, case):
        stride, pad = case[-2:]
        x, w, b, r = conv_case(4, *case)
        p = nn.ConvParams(t32(w), t32(b), stride=stride, padding=pad)
        g = nn.conv2d_backward(t32(x), p, t32(r))
        xv, wv, bv = x.astype(np.float64), w.astype(np.float64), b.astype(np.float64)

        def f():
            return float(np.sum(naive_conv2d(xv, wv, bv, stride, pad) * r))

        assert_grad_close(g.d_input.array, central_diff(f, xv), "conv d_input")
        assert_grad_close(g.d_params["weights"].array, central_diff(f, wv), "conv d_weights")
        assert_grad_close(g.d_params["bias"].array, central_diff(f, bv), "conv d_bias")


# The CONV_CASES space (batch 1-3, stride 1/2, padding 0-2, kernels 1/3/5,
# h != w), widened in channels and sides so that patch matrices of many
# bands occur beside tiny ones.
SIDES = st.one_of(st.integers(1, 13), st.sampled_from([8, 16, 20, 32]))
CHANNELS = st.sampled_from([1, 2, 3, 16, 32])
BANDED_SHAPES = st.tuples(
    st.integers(1, 3), CHANNELS, CHANNELS, SIDES, SIDES, st.sampled_from([1, 3, 5]),
    st.sampled_from([1, 2]), st.sampled_from([0, 1, 2]),
).filter(lambda s: s[3] != s[4] and min(s[3], s[4]) + 2 * s[7] >= s[5])


def d_input_reference(w, r, x_shape, stride, pad):
    """d_input as a whole-matrix forward: d_out, zero-inserted between
    strides and padded by k-1-pad (cut where that is negative), correlated
    with the flipped filters, transposed, and a zero bias."""
    n, c, h, wd = x_shape
    o, _, k, _ = w.shape
    lo = k - 1 - pad
    spread = np.zeros((n, o, h + k - 1, wd + k - 1), dtype=np.float32)
    for y in range(r.shape[2]):
        for x in range(r.shape[3]):
            if 0 <= lo + stride * y < h + k - 1 and 0 <= lo + stride * x < wd + k - 1:
                spread[:, :, lo + stride * y, lo + stride * x] = r[:, :, y, x]
    flipped = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return im2col_ref.conv2d_forward(t32(spread), nn.ConvParams(t32(flipped), Tensor.zeros((c,))))


def conv_both_ways(case, seed, chunk_bytes=None):
    """(banded, reference) results of forward and backward on one case."""
    x, w, b, r = conv_case(seed, *case)
    stride, pad = case[-2:]
    p = nn.ConvParams(t32(w), t32(b), stride=stride, padding=pad)
    with pytest.MonkeyPatch.context() as mp:
        if chunk_bytes is not None:
            mp.setattr(nn, "CHUNK_BYTES", chunk_bytes, raising=False)
        got = nn.conv2d_forward(t32(x), p), nn.conv2d_backward(t32(x), p, t32(r))
    grads = replace(im2col_ref.conv2d_backward(t32(x), p, t32(r)),
                    d_input=d_input_reference(w, r, x.shape, stride, pad))
    return got, (im2col_ref.conv2d_forward(t32(x), p), grads)


def conv_bytes(out, grads):
    return [out.array.tobytes(), grads.d_input.array.tobytes(),
            grads.d_params["weights"].array.tobytes(), grads.d_params["bias"].array.tobytes()]


class TestConvMatchesWholeMatrixReference:
    """The banded kernels keep the bits of one whole patch matrix per GEMM;
    d_input keeps those of the whole forward correlation that computes it."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=BANDED_SHAPES, chunk_bytes=st.sampled_from([None, 2048, 8192]),
           seed=st.integers(0, 2 ** 16))
    def test_bit_identical(self, case, chunk_bytes, seed):
        got, want = conv_both_ways(case, seed, chunk_bytes)
        assert conv_bytes(*got) == conv_bytes(*want)

    def test_small_cap_splits_every_gemm(self, monkeypatch):
        """A case whose three GEMMs all split into several bands under a 2 KB cap."""
        calls = []

        def counting_mm64(a, b, dtype=np.float32):
            # the banded dimension: d_w (the one float64 product) sums over it
            calls.append((dtype, a.shape[1] if dtype == np.float64 else b.shape[1]))
            return _mm64(a, b, dtype)

        monkeypatch.setattr(nn, "_mm64", counting_mm64)
        got, want = conv_both_ways((2, 32, 32, 16, 20, 3, 1, 1), seed=7, chunk_bytes=2048)
        assert conv_bytes(*got) == conv_bytes(*want)
        # forward bands, then d_w bands, then d_input bands, each over 2 * 16 * 20 columns
        kinds = [dtype for dtype, _ in calls]
        first, last = kinds.index(np.float64), len(kinds) - kinds[::-1].index(np.float64)
        widths = [w for _, w in calls]
        for phase in (widths[:first], widths[first:last], widths[last:]):
            assert len(phase) >= 3 and sum(phase) == 640
        assert set(kinds[first:last]) == {np.float64}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(o=st.sampled_from([2, 3, 16, 64]), k=st.integers(1, 600),
       length=st.builds(lambda units, tail: 16 * units + tail,
                        st.integers(1, 180), st.sampled_from([0, 0, 0, 1, 4, 12])),
       chunk_bytes=st.sampled_from([2048, 65536, 1 << 20]), seed=st.integers(0, 2 ** 16))
def test_bands_keep_the_float64_bits_of_the_whole_product(o, k, length, chunk_bytes, seed):
    """The float64 products of the correlations over the bands of nn._bands
    equal the whole product: the forward's shape, which d_input shares.
    The conv outputs round these to float32, which hides nearly every
    last-bit difference of a band that meets another OpenBLAS kernel, so
    the bands are checked before that. d_w is a float64 sum over the same
    pixel bands, rounded once, so only the correlations keep the whole
    product's float64 bits."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(o, k))
    cols = rng.normal(size=(k, length))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "CHUNK_BYTES", chunk_bytes)
        col_bands = nn._bands(length, 8 * k, o * k)
    whole = w @ cols
    for a, b in col_bands:
        assert np.array_equal(w @ np.ascontiguousarray(cols[:, a:b]), whole[:, a:b])


def test_conv_peak_allocation_is_a_fraction_of_the_patch_matrix(monkeypatch):
    """With a 64 KB band cap, neither direction allocates a twelfth of the
    float64 patch matrix. Whole arrays that the backward pass keeps are
    float32 and hold one value per pixel and channel: the padded input
    that d_w reads, the spread d_out that d_input correlates, and d_input
    itself, about 1/(2*k*k) of the patch matrix each, hence a 5x5 kernel."""
    monkeypatch.setattr(nn, "CHUNK_BYTES", 64 << 10, raising=False)
    x, w, b, r = conv_case(0, 2, 16, 16, 96, 96, 5, 1, 2)
    p = nn.ConvParams(t32(w), t32(b), padding=2)
    x, r = t32(x), t32(r)
    patch_bytes = 16 * 5 * 5 * 2 * 96 * 96 * 8
    for run in (lambda: nn.conv2d_forward(x, p), lambda: nn.conv2d_backward(x, p, r)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < patch_bytes / 12


# Shapes whose whole products end in a partial 16-column micro-panel, the
# ones on which OpenBLAS's float64 sums can depend on the thread count:
# d_w over 27 patch rows (3 input channels, 3x3), and forwards 196 and 588
# columns wide (the block-5 maps of paper-vgg16 at 224 px, batch 1 and 3).
THREAD_CASES = [(2, 3, 32, 32, 32, 3, 1, 1), (1, 256, 256, 14, 14, 3, 1, 1),
                (3, 256, 256, 14, 14, 3, 1, 1)]


def thread_case_digests() -> list[tuple[str, str]]:
    """(banded, reference) sha256 of forward, d_input, d_w and d_bias per case."""
    digests = []
    for seed, case in enumerate(THREAD_CASES):
        got, want = conv_both_ways(case, seed)
        digests.append(tuple(hashlib.sha256(b"".join(conv_bytes(*pair))).hexdigest()
                             for pair in (got, want)))
    return digests


def test_conv_bits_do_not_depend_on_blas_threads():
    src = Path(defectnet.__file__).resolve().parents[1]
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(Path(__file__).parent), str(src)]))
        code = "import test_nn as t; print(t.thread_case_digests())"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=300).stdout
        runs.append(eval(out))
    for digests in runs:
        assert all(got == want for got, want in digests)
    assert runs[0] == runs[1]


class TestMaxPool:
    def test_single_window(self):
        out, mask = nn.maxpool2d_forward(t32([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.tolist() == [[[[4.0]]]]
        assert mask.window_argmax.tolist() == [[[[3]]]]  # bottom-right of the window

    def test_tie_breaks_to_first_row_major(self):
        out, mask = nn.maxpool2d_forward(t32(np.full((1, 1, 4, 4), 7.0)))
        assert np.all(out.array == 7.0)
        assert np.all(mask.window_argmax == 0)

    def test_mask_is_uint8(self):
        _, mask = nn.maxpool2d_forward(Tensor.zeros((2, 3, 4, 4)))
        assert mask.window_argmax.dtype == np.uint8

    def test_224_to_112(self):
        out, _ = nn.maxpool2d_forward(Tensor.zeros((1, 1, 224, 224)))
        assert out.shape == (1, 1, 112, 112)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ShapeError):
            nn.maxpool2d_forward(Tensor.zeros((1, 1, 3, 4)))

    def test_backward_routes_to_winner(self):
        _, mask = nn.maxpool2d_forward(t32([[[[1.0, 2.0], [3.0, 4.0]]]]))
        d = nn.maxpool2d_backward(mask, t32([[[[1.0]]]]))
        assert d.tolist() == [[[[0.0, 0.0], [0.0, 1.0]]]]

    def test_backward_conserves_mass(self):
        rng = np.random.default_rng(5)
        x = t32(rng.normal(size=(2, 3, 4, 4)))
        _, mask = nn.maxpool2d_forward(x)
        # dyadic upstream values make the float sums exactly order-independent
        d_out = t32(rng.integers(-8, 9, size=(2, 3, 2, 2)) / 4.0)
        d_in = nn.maxpool2d_backward(mask, d_out)
        assert float(np.sum(d_in.array, dtype=np.float64)) == float(
            np.sum(d_out.array, dtype=np.float64))

    def test_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(1, 1, 4, 4)).astype(np.float32)
        # push each window's winner clear of the eps ball so FD sees no kink
        win = x.reshape(1, 1, 2, 2, 2, 2)
        for wy in range(2):
            for wx in range(2):
                k = rng.integers(0, 4)
                win[0, 0, wy, :, wx, :].reshape(4)[k] += 1.5
        r = rng.normal(size=(1, 1, 2, 2))
        _, mask = nn.maxpool2d_forward(t32(x))
        g = nn.maxpool2d_backward(mask, t32(r))
        xv = x.astype(np.float64)

        def f():
            from naive_ops import naive_maxpool
            return float(np.sum(naive_maxpool(xv) * r))

        assert_grad_close(g.array, central_diff(f, xv), "maxpool d_input")


class TestGlobalAvgPool:
    def test_mean_of_small_map(self):
        out = nn.global_avg_pool(t32([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.tolist() == [[2.5]]

    def test_constant_map(self):
        out = nn.global_avg_pool(Tensor.full((2, 3, 5, 5), 7.0))
        assert np.all(out.array == 7.0)

    def test_backward_spreads_uniformly_and_matches_fd(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 3, 3)).astype(np.float32)
        r = rng.normal(size=(1, 2))
        d = nn.global_avg_pool_backward((1, 2, 3, 3), t32(np.ones((1, 2))))
        assert np.allclose(d.array, 1.0 / 9.0, atol=1e-7)
        g = nn.global_avg_pool_backward((1, 2, 3, 3), t32(r))
        xv = x.astype(np.float64)

        def f():
            return float(np.sum(naive_gap(xv) * r))

        assert_grad_close(g.array, central_diff(f, xv), "gap d_input")


class TestDense:
    def test_identity_weights(self):
        x = t32([[1.0, 2.0], [3.0, 4.0]])
        out = nn.dense_forward(x, t32(np.eye(2)), Tensor.zeros((2,)))
        assert np.array_equal(out.array, x.array)

    def test_zero_input_gives_bias(self):
        out = nn.dense_forward(Tensor.zeros((3, 2)), Tensor.zeros((2, 4)),
                               t32([1.0, 2.0, 3.0, 4.0]))
        assert out.tolist() == [[1.0, 2.0, 3.0, 4.0]] * 3

    def test_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3)).astype(np.float32)
        w = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        r = rng.normal(size=(2, 4))
        g = nn.dense_backward(t32(x), t32(w), t32(r))
        xv, wv, bv = x.astype(np.float64), w.astype(np.float64), b.astype(np.float64)

        def f():
            return float(np.sum(naive_dense(xv, wv, bv) * r))

        assert_grad_close(g.d_input.array, central_diff(f, xv), "dense d_input")
        assert_grad_close(g.d_params["weights"].array, central_diff(f, wv), "dense d_weights")
        assert_grad_close(g.d_params["bias"].array, central_diff(f, bv), "dense d_bias")


class TestRelu:
    def test_basic(self):
        assert nn.relu(t32([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

    def test_non_negative_input_is_identity(self):
        x = t32([[0.5, 1.5], [0.0, 3.0]])
        assert np.array_equal(nn.relu(x).array, x.array)

    def test_backward_zero_at_negative(self):
        d = nn.relu_backward(t32([-1.0, 2.0]), t32([5.0, 5.0]))
        assert d.tolist() == [0.0, 5.0]

    def test_backward_zero_at_exactly_zero(self):
        d = nn.relu_backward(t32([0.0, 1.0]), t32([5.0, 5.0]))
        assert d.tolist() == [0.0, 5.0]

    @given(st.lists(st.floats(min_value=-10, max_value=10, width=32),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_bitwise(self, values):
        t = t32(values)
        once = nn.relu(t)
        assert np.array_equal(nn.relu(once).array, once.array)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = nn.softmax(Tensor.zeros((1, 4)))
        assert out.tolist() == [[0.25, 0.25, 0.25, 0.25]]

    def test_stable_under_huge_logit(self):
        out = nn.softmax(t32([[1000.0, 0.0]]))
        assert abs(out[0, 0] - 1.0) < 1e-30
        assert out[0, 1] < 1e-30

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 5)).astype(np.float32)
        a = nn.softmax(t32(x)).array
        b = nn.softmax(t32(x + np.float32(37.5))).array
        assert np.max(np.abs(a - b)) < 1e-6

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1e4, 1e4, size=(2, 4)).astype(np.float32)
        out = nn.softmax(t32(x)).array
        assert np.all(out >= 0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-6

    def test_needs_two_classes(self):
        with pytest.raises(ShapeError):
            nn.softmax(Tensor.zeros((2, 1)))


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        probs = t32([[0.0, 1.0, 0.0, 0.0]])
        assert nn.cross_entropy(probs, [1]) == 0.0

    def test_uniform_four_way_is_ln4(self):
        probs = Tensor.full((2, 4), 0.25)
        assert abs(nn.cross_entropy(probs, [0, 3]) - np.log(4.0)) < 1e-6

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            nn.cross_entropy(Tensor.full((1, 4), 0.25), [4])

    def test_confident_wrong_prediction_is_finite(self):
        probs = t32([[1.0, 0.0]])
        loss = nn.cross_entropy(probs, [1])
        assert np.isfinite(loss)

    def test_fused_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(2, 4)).astype(np.float32)
        targets = [1, 3]
        probs = nn.softmax(t32(logits))
        g = nn.cross_entropy_backward(probs, targets)
        lv = logits.astype(np.float64)

        def f():
            return naive_softmax_ce(lv, targets)

        assert_grad_close(g.array, central_diff(f, lv), "softmax+CE d_logits")
