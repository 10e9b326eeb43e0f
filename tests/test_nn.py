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
import pool_ref
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from naive_ops import (naive_conv2d, naive_dense, naive_gap,
                       naive_softmax_ce)

import defectnet
from defectnet import nn
from defectnet.errors import ShapeError
from defectnet.model import Conv
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
    """Input, filters, bias and a projection r of the output to a scalar;
    the kernel k is a side or a (kh, kw) pair."""
    kh, kw = (k, k) if np.isscalar(k) else k
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w)).astype(np.float32)
    wt = rng.normal(size=(o, c, kh, kw)).astype(np.float32)
    b = rng.normal(size=o).astype(np.float32)
    oh, ow = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
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
    strides and padded by kh-1-pad and kw-1-pad (cut where that is
    negative), correlated with the flipped filters, transposed, and a zero
    bias."""
    n, c, h, wd = x_shape
    o, _, kh, kw = w.shape
    lo_y, lo_x = kh - 1 - pad, kw - 1 - pad
    spread = np.zeros((n, o, h + kh - 1, wd + kw - 1), dtype=np.float32)
    for y in range(r.shape[2]):
        for x in range(r.shape[3]):
            if 0 <= lo_y + stride * y < h + kh - 1 and 0 <= lo_x + stride * x < wd + kw - 1:
                spread[:, :, lo_y + stride * y, lo_x + stride * x] = r[:, :, y, x]
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
    # a strided and an unpadded conv, widened to maps 20 and 14 pixels wide:
    # under a 2 KB cap their bands split the image, in the forward and in d_w
    @example(case=(1, 32, 32, 120, 20, 3, 2, 1), chunk_bytes=2048, seed=0)
    @example(case=(1, 32, 32, 42, 14, 3, 1, 0), chunk_bytes=2048, seed=0)
    def test_bit_identical(self, case, chunk_bytes, seed):
        got, want = conv_both_ways(case, seed, chunk_bytes)
        assert conv_bytes(*got) == conv_bytes(*want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=BANDED_SHAPES.filter(lambda s: ((s[3] + 2 * s[7] - s[5]) // s[6] + 1) % 2 == 0
                                     and ((s[4] + 2 * s[7] - s[5]) // s[6] + 1) % 2 == 0),
           chunk_bytes=st.sampled_from([None, 2048, 8192]), seed=st.integers(0, 2 ** 16))
    def test_fused_relu_and_pool_keep_the_bits(self, case, chunk_bytes, seed):
        """With relu, the forward equals the reference's output rectified;
        with pool as well, whose bands hold whole pairs of output rows, it
        equals maxpool2d_forward of that output, rectified, mask and all."""
        x, w, b, _ = conv_case(seed, *case)
        p = nn.ConvParams(t32(w), t32(b), stride=case[-2], padding=case[-1])
        want = im2col_ref.conv2d_forward(t32(x), p)
        with pytest.MonkeyPatch.context() as mp:
            if chunk_bytes is not None:
                mp.setattr(nn, "CHUNK_BYTES", chunk_bytes)
            rectified = nn.conv2d_forward(t32(x), p, relu=True)
            pooled, mask = nn.conv2d_forward(t32(x), p, relu=True, pool=True)
        assert rectified.array.tobytes() == nn.relu(want).array.tobytes()
        want_pooled, want_mask = nn.maxpool2d_forward(want)
        assert pooled.array.tobytes() == nn.relu(want_pooled).array.tobytes()
        assert np.array_equal(mask.window_argmax, want_mask.window_argmax)
        assert mask.window_argmax.dtype == np.uint8 and mask.input_shape == want_mask.input_shape

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=BANDED_SHAPES, chunk_bytes=st.sampled_from([None, 2048, 8192]),
           seed=st.integers(0, 2 ** 16))
    def test_relu_masked_d_input_keeps_the_bits(self, case, chunk_bytes, seed):
        """With relu, where x is a ReLU's output, d_input equals relu_backward
        by x of the plain d_input, bit for bit, masked band by band as it is
        written; d_w and d_bias do not change."""
        x, w, b, r = conv_case(seed, *case)
        x = nn.relu(t32(x))
        p = nn.ConvParams(t32(w), t32(b), stride=case[-2], padding=case[-1])
        with pytest.MonkeyPatch.context() as mp:
            if chunk_bytes is not None:
                mp.setattr(nn, "CHUNK_BYTES", chunk_bytes)
            plain = nn.conv2d_backward(x, p, t32(r))
            masked = nn.conv2d_backward(x, p, t32(r), relu=True)
        want = nn.relu_backward(x, plain.d_input)
        assert masked.d_input.array.tobytes() == want.array.tobytes()
        for name in ("weights", "bias"):
            assert masked.d_params[name].array.tobytes() == plain.d_params[name].array.tobytes()

    @pytest.mark.parametrize("chunk_bytes", [None, 2048])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [(1, 3), (3, 1), (3, 5), (5, 3)], ids=str)
    def test_non_square_kernels_are_bit_identical(self, kernel, stride, pad, chunk_bytes):
        """A kh != kw kernel is never same-padded on both axes, so it runs as
        the same-padded stride-1 conv of its widened input, padded by k // 2
        per axis; under a 2 KB cap its bands split the images."""
        got, want = conv_both_ways((2, 32, 32, 24, 19, kernel, stride, pad), 5, chunk_bytes)
        assert conv_bytes(*got) == conv_bytes(*want)

    def test_small_cap_splits_every_gemm(self, monkeypatch):
        """A case whose three GEMMs all split into several bands under a 2 KB cap."""
        calls = []

        def counting_mm64(a, b, dtype=np.float32, out=None):
            # the banded dimension: d_w (the one float64 product) sums over it
            calls.append((dtype, a.shape[1] if dtype == np.float64 else b.shape[1]))
            return _mm64(a, b, dtype, out)

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
       chunk_bytes=st.sampled_from([2048, 65536, 1 << 20]), align=st.sampled_from([1, 1, 8, 28, 448]),
       seed=st.integers(0, 2 ** 16))
def test_bands_keep_the_float64_bits_of_the_whole_product(o, k, length, chunk_bytes, align, seed):
    """The float64 products of the correlations over the bands of nn._bands,
    which cover the length zero-padded to whole 16-column panels, equal the
    whole product of the zero-padded matrix: the forward's shape, which
    d_input shares. The conv outputs round these to float32, which hides
    nearly every last-bit difference of a band that meets another OpenBLAS
    kernel, so the bands are checked before that. d_w is a float64 sum over
    the same pixel bands, rounded once, so only the correlations keep the
    whole product's float64 bits. Inner band edges fall on multiples of
    lcm(16, align), as a pooled forward's whole pairs of output rows ask."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(o, k))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "CHUNK_BYTES", chunk_bytes)
        col_bands = nn._bands(length, k, o, align)
    cols = np.zeros((k, col_bands[-1][1]))
    cols[:, :length] = rng.normal(size=(k, length))
    assert col_bands[0][0] == 0 and col_bands[-1][1] - length in range(16)
    assert all(a % np.lcm(16, align) == 0 for a, _ in col_bands)
    whole = w @ cols
    for a, b in col_bands:
        assert np.array_equal(w @ np.ascontiguousarray(cols[:, a:b]), whole[:, a:b])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(oh=st.integers(1, 12), ow=st.integers(1, 12), n=st.integers(1, 4),
       cuts=st.lists(st.integers(0, 10 ** 4), max_size=4), pairs=st.booleans())
def test_runs_tile_a_band_in_whole_images_or_stretches_of_one(oh, ow, n, cuts, pairs):
    """nn._runs covers a band's columns [m0, m1) in order, each run at its
    offset from m0; a run spans several images only where it holds them
    whole. On edges that fall on multiples of 2 * ow, as a pooled forward's
    do, every run starts and ends on a pair of rows."""
    oh, unit = (2 * oh, 2 * ow) if pairs else (oh, 1)
    plane, m = oh * ow, n * oh * ow
    edges = sorted({0, m, *(min(m, cut * unit) for cut in cuts)})
    for m0, m1 in zip(edges[:-1], edges[1:]):
        runs = nn._runs(m0, m1, plane)
        start = m0
        for off, (n0, n1, e0, e1) in runs:
            assert off == start - m0 and n0 * plane + e0 == start
            assert 0 <= e0 < e1 <= plane and n0 < n1 <= n
            if n1 - n0 > 1:
                assert (e0, e1) == (0, plane)
            if pairs:
                assert e0 % unit == 0 and e1 % unit == 0
            start += (n1 - n0) * (e1 - e0)
        assert start == m1


def test_conv_peak_allocation_is_a_fraction_of_the_patch_matrix(monkeypatch):
    """With a 64 KB band cap, neither direction allocates a twelfth of the
    float64 patch matrix. Whole arrays that a direction allocates are
    float32 and hold one value per pixel and channel: its output (and, at
    a stride above 1, the spread d_out that d_input correlates), about
    1/(2*k*k) of the patch matrix each, hence a 5x5 kernel."""
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


def test_conv_peak_holds_no_padded_activation(monkeypatch):
    """Each direction allocates at most its outputs, one band of the patch
    matrix and a quarter of the input besides: the band gather reads the
    padding virtually, so neither the padded input nor a padded spread of
    d_out is ever built."""
    monkeypatch.setattr(nn, "CHUNK_BYTES", 64 << 10, raising=False)
    x, w, b, r = conv_case(0, 2, 16, 16, 96, 96, 3, 1, 1)
    p = nn.ConvParams(t32(w), t32(b), padding=1)
    x, r = t32(x), t32(r)
    k = 16 * 3 * 3
    band_bytes = 8 * k * max(m1 - m0 for m0, m1 in nn._bands(2 * 96 * 96, k, 16))
    def backward():
        grads = nn.conv2d_backward(x, p, r)
        return [grads.d_input, *grads.d_params.values()]

    for run in (lambda: [nn.conv2d_forward(x, p)], backward):
        tracemalloc.start()
        try:
            outputs = sum(t.array.nbytes for t in run())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < outputs + band_bytes + x.array.nbytes / 4


def test_correlation_bands_cap_the_patch_band_and_its_product(monkeypatch):
    """CHUNK_BYTES caps both float64 buffers of a band: the patch band, K
    rows, and the O rows beside it, a correlation's product or d_w's d_out
    band. On block1.conv1 of paper-vgg16 at 224 px and batch 4 (K = 27,
    O = 32) the O rows are the larger of the two."""
    walks, real_patch_bands = [], nn._patch_bands

    def patch_bands(*args):
        widths = []
        walks.append(widths)
        for boxes, cols in real_patch_bands(*args):
            widths.append(cols.shape[1])
            yield boxes, cols

    monkeypatch.setattr(nn, "_patch_bands", patch_bands)
    x, w, b, r = conv_case(0, 4, 3, 32, 224, 224, 3, 1, 1)
    p = nn.ConvParams(t32(w), t32(b), padding=1)
    nn.conv2d_forward(t32(x), p, relu=True)
    nn.conv2d_backward(t32(x), p, t32(r), with_input=False)
    # the forward's walk, then d_w's walks of the patch matrix and of d_out
    assert len(walks) == 3
    for widths in walks:
        assert len(widths) > 1 and max(widths) * 8 * (27 + 32) <= nn.CHUNK_BYTES


# Shapes whose products end in a partial 16-column micro-panel unless
# zero-padded, the ones on which OpenBLAS's float64 sums can depend on the
# thread count: d_w over 27 patch rows (3 input channels, 3x3), and
# forwards 196 and 588 columns wide (the block-5 maps of paper-vgg16 at
# 224 px, batch 1 and 3).
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


def in_blas_threads(code: str) -> list:
    """eval of what code prints in a child process, at 1 and at 2 BLAS threads."""
    src = Path(defectnet.__file__).resolve().parents[1]
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(Path(__file__).parent), str(src)]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=300).stdout
        runs.append(eval(out))
    return runs


def test_conv_bits_do_not_depend_on_blas_threads():
    runs = in_blas_threads("import test_nn as t; print(t.thread_case_digests())")
    for digests in runs:
        assert all(got == want for got, want in digests)
    assert runs[0] == runs[1]


def float64_product_digests() -> list[str]:
    """sha256 of every float64 product that conv2d_forward and
    conv2d_backward compute on a block-5 map of paper-vgg16 at 224 px,
    taken before each product is rounded as its caller asks."""
    digests = []

    def hashing_mm64(a, b, dtype=np.float32, out=None):
        product = _mm64(a, b, np.float64, out)
        digests.append(hashlib.sha256(product.tobytes()).hexdigest())
        return product if out is not None else product.astype(dtype, copy=False)

    case = (1, 256, 256, 14, 14, 3, 1, 1)
    x, w, b, r = conv_case(0, *case)
    p = nn.ConvParams(t32(w), t32(b), stride=1, padding=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_mm64", hashing_mm64)
        nn.conv2d_forward(t32(x), p)
        nn.conv2d_backward(t32(x), p, t32(r))
    return digests


def test_float64_products_do_not_depend_on_blas_threads():
    """Every conv product is banded in whole 16-column panels, so even its
    float64 bits, before any rounding, are the same at 1 and 2 threads."""
    one, two = in_blas_threads("import test_nn as t; print(t.float64_product_digests())")
    assert len(one) >= 3 and one == two


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


# Ties, signed zeros, NaN and infinities beside arbitrary float32 values.
POOL_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
                        st.floats(width=32))


@st.composite
def pool_cases(draw):
    """(x, d_out): an NCHW batch of 1-3 images with 1, 2, 3 or 5 channels and
    its pooled-shape upstream gradient."""
    n, c = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3, 5]))
    oh, ow = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x = draw(arrays(np.float32, (n, c, 2 * oh, 2 * ow), elements=POOL_VALUES))
    d = draw(arrays(np.float32, (n, c, oh, ow), elements=POOL_VALUES))
    return x, d


def _windows(*rows):
    """One image of one channel and 2x2 windows laid side by side; each row
    of `rows` lists a window's four values in row-major order."""
    x = np.array(rows, dtype=np.float32).reshape(1, 1, len(rows), 2, 2)
    return x.transpose(0, 1, 3, 2, 4).reshape(1, 1, 2, 2 * len(rows))


NAN, INF = np.float32(np.nan), np.float32(np.inf)


class TestMaxPoolMatchesWindowReference:
    """nn's pool equals the window-copy argmax of tests/pool_ref.py bit for bit."""

    @staticmethod
    def assert_same_bits(x, d):
        out, mask = nn.maxpool2d_forward(Tensor(x))
        want_out, want_mask = pool_ref.maxpool2d_forward(Tensor(x))
        assert out.array.tobytes() == want_out.array.tobytes()
        assert mask.window_argmax.dtype == want_mask.window_argmax.dtype == np.uint8
        assert np.array_equal(mask.window_argmax, want_mask.window_argmax)
        assert mask.input_shape == want_mask.input_shape
        got = nn.maxpool2d_backward(mask, Tensor(d)).array
        want = pool_ref.maxpool2d_backward(want_mask, Tensor(d)).array
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pool_cases())
    @example((_windows([1, 1, 1, 1], [0, 2, 2, 1], [-1, -3, -1, -1], [3, 0, 3, 3]),
              np.ones((1, 1, 1, 4), np.float32)))
    @example((_windows([0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0], [-0.0] * 4, [-1, 0.0, -0.0, -2]),
              np.array([[[[-0.0, 0.0, -1, NAN]]]], np.float32)))
    @example((_windows([1, NAN, 2, -NAN], [NAN, 5, 5, 5], [-INF, -INF, 0, NAN], [INF, 3, INF, NAN]),
              np.array([[[[INF, -INF, NAN, 2]]]], np.float32)))
    @example((_windows([-INF] * 4, [-INF, -INF, -INF, 0], [INF, INF, INF, INF], [2, 1, -INF, INF]),
              np.array([[[[1, 2, 3, 4]]]], np.float32)))
    def test_bit_identical(self, case):
        self.assert_same_bits(*case)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pool_cases())
    @example((_windows([-1, -2, -3, -4], [-0.0, -0.0, -1, -0.0], [-3, -1, 0.0, -1], [-INF, 2, 2, NAN]),
              np.array([[[[1, 2, 3, 4]]]], np.float32)))
    def test_relu_pool_layer_is_the_pool_of_the_relu(self, case):
        """A block's last conv pools its output as it writes it, then rectifies
        the quarter-size result. Through filters that copy each channel (1x1
        in nn, the centre tap of model.Conv's 3x3), its output equals a ReLU
        of the plain conv followed by the reference pool. model.Conv's ctx
        does not keep that output: the layer above applies the ReLU's
        backward by its sign, and model.Conv hands the conv's backward that
        pooled gradient with the pool's mask, whose pool backward equals the
        reference pool's backward masked by the ReLU (np.where on the ReLU's
        output)."""
        # the 3x3 filters' zero taps turn an infinite neighbour into NaN
        with np.errstate(invalid="ignore"):
            x, d = case
            c = x.shape[1]
            copy = np.eye(c, dtype=np.float32)[:, :, None, None]
            for p in (nn.ConvParams(Tensor(copy), Tensor.zeros((c,))),
                      nn.ConvParams(Tensor(np.pad(copy, ((0, 0), (0, 0), (1, 1), (1, 1)))),
                                    Tensor.zeros((c,)), padding=1)):
                y, _ = nn.conv2d_forward(Tensor(x), p, relu=True, pool=True)
                want_y, _ = pool_ref.maxpool2d_forward(nn.relu(nn.conv2d_forward(Tensor(x), p)))
                assert y.array.tobytes() == want_y.array.tobytes()

            layer = Conv("c", c, c, pool=True)
            y, ctx = layer.forward({"c.w": p.weights, "c.b": p.bias}, Tensor(x))
            r = nn.relu(nn.conv2d_forward(Tensor(x), p))
            want_y, want_mask = pool_ref.maxpool2d_forward(r)
            assert y.array.tobytes() == want_y.array.tobytes()
            assert all(c_ is not y for c_ in ctx)
            seen = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(nn, "conv2d_backward",
                           lambda x_, p_, d_out, **kw: seen.append((d_out, kw["mask"]))
                           or nn.LayerGradients(None, {"weights": None, "bias": None}))
                dx, grads = layer.backward(ctx, nn.relu_backward(y, Tensor(d)), True)
            d_r = pool_ref.maxpool2d_backward(want_mask, Tensor(d)).array
            want_dx = np.where(r.array > 0, d_r, np.float32(0.0))
            assert dx is None and grads == {"c.w": None, "c.b": None}
            d_pooled, mask = seen[0]
            assert nn.maxpool2d_backward(mask, d_pooled).array.tobytes() == want_dx.tobytes()

    def test_ties_in_a_large_batch(self):
        # Seven levels over 16k values: most windows hold a tie.
        rng = np.random.default_rng(11)
        x = rng.integers(-3, 4, size=(2, 5, 32, 48)).astype(np.float32)
        x[rng.random(x.shape) < 0.01] = np.nan
        d = rng.normal(size=(2, 5, 16, 24)).astype(np.float32)
        self.assert_same_bits(x, d)


def pooled_conv_case(n, c, o, oh, ow, k, pad, seed, stride=1):
    """(x, ConvParams, mask, d): a k x k conv, padded by pad, at stride, of
    n images with c channels in and o out, whose 2 * oh x 2 * ow output was
    max-pooled, and the pooled gradient d. The pool's input holds ties and
    signed zeros, and so does d."""
    rng = np.random.default_rng(seed)
    h, w = (stride * (2 * side - 1) + k - 2 * pad for side in (oh, ow))
    x = t32(rng.normal(size=(n, c, h, w)))
    p = nn.ConvParams(t32(rng.normal(size=(o, c, k, k))), t32(rng.normal(size=o)),
                      stride=stride, padding=pad)
    levels = np.array([-1.0, -0.0, 0.0, 1.0], np.float32)
    _, mask = nn.maxpool2d_forward(Tensor(rng.choice(levels, size=(n, o, 2 * oh, 2 * ow))))
    d = rng.normal(size=(n, o, oh, ow)).astype(np.float32)
    d[rng.random(d.shape) < 0.25] = rng.choice([-0.0, 0.0])
    return x, p, mask, Tensor(d)


@st.composite
def pooled_conv_cases(draw):
    """pooled_conv_case over 1-3 images, 1-16 channels in and out and output
    sides 2-32, h != w. Kernels 1, 3 and 5 are same-padded, as model.Conv
    is; an unpadded 3x3 kernel reads a larger input."""
    n, c, o = draw(st.integers(1, 3)), draw(st.integers(1, 16)), draw(st.integers(1, 16))
    oh, ow = draw(st.tuples(st.integers(1, 16), st.integers(1, 16)).filter(lambda s: s[0] != s[1]))
    k, pad = draw(st.sampled_from([(1, 0), (3, 1), (5, 2), (3, 0)]))
    return pooled_conv_case(n, c, o, oh, ow, k, pad, draw(st.integers(0, 2 ** 16)))


class TestPooledConvBackward:
    """conv2d_backward given the pool's mask runs the pool's backward inside
    its band walks, with the bits of maxpool2d_backward and then the conv's
    backward."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=pooled_conv_cases(), with_input=st.booleans(), relu=st.booleans(),
           chunk_bytes=st.sampled_from([None, 2048]))
    # 2 KB bands of 480 columns over three 32 x 20 maps: their edges fall inside maps
    @example(case=pooled_conv_case(3, 16, 16, 16, 10, 3, 1, 0), with_input=True, relu=True,
             chunk_bytes=2048)
    # a strided and an unpadded conv, widened to maps 19 and 14 pixels wide:
    # under a 2 KB cap their bands split the image
    @example(case=pooled_conv_case(1, 32, 32, 30, 5, 3, 1, 0, stride=2), with_input=True,
             relu=True, chunk_bytes=2048)
    @example(case=pooled_conv_case(1, 32, 32, 20, 6, 3, 0, 0), with_input=True, relu=False,
             chunk_bytes=2048)
    def test_keeps_the_bits_of_the_pool_backward_then_the_conv_backward(
            self, case, with_input, relu, chunk_bytes):
        """d_w and d_input have the bytes of the unfused backward, and d_bias
        is the float32 rounding of the pooled gradient's float64 sum. A 2 KB
        cap splits the bands, inside an image where the products allow it."""
        x, p, mask, d = case
        if relu:
            x = nn.relu(x)
        with pytest.MonkeyPatch.context() as mp:
            if chunk_bytes is not None:
                mp.setattr(nn, "CHUNK_BYTES", chunk_bytes)
            fused = nn.conv2d_backward(x, p, d, with_input, relu, mask=mask)
            plain = nn.conv2d_backward(x, p, nn.maxpool2d_backward(mask, d), with_input, relu)
        assert (fused.d_params["weights"].array.tobytes()
                == plain.d_params["weights"].array.tobytes())
        if with_input:
            assert fused.d_input.array.tobytes() == plain.d_input.array.tobytes()
        else:
            assert fused.d_input is None
        want_bias = np.sum(d.array, axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
        assert fused.d_params["bias"].array.tobytes() == want_bias.tobytes()

    @pytest.mark.parametrize("relu", [False, True])
    def test_holds_no_full_size_gradient(self, monkeypatch, relu):
        """Beside its outputs and one band, the fused backward allocates less
        than half of the full-size gradient at the conv's output, which the
        unfused one, maxpool2d_backward and then the conv's backward, builds
        whole: each band's rows are unpooled into a small region."""
        monkeypatch.setattr(nn, "CHUNK_BYTES", 64 << 10)
        x, w, b, _ = conv_case(0, 2, 16, 16, 96, 96, 3, 1, 1)
        p = nn.ConvParams(t32(w), t32(b), padding=1)
        x = nn.relu(t32(x)) if relu else t32(x)
        _, mask = nn.conv2d_forward(x, p, pool=True)
        d = t32(np.random.default_rng(1).normal(size=(2, 16, 48, 48)))
        full = 2 * 16 * 96 * 96 * 4
        band_bytes = 8 * 16 * 9 * max(m1 - m0 for m0, m1 in nn._bands(2 * 96 * 96, 16 * 9, 16))

        def peak(run):
            tracemalloc.start()
            try:
                grads = run()
                outputs = sum(t.array.nbytes for t in [grads.d_input, *grads.d_params.values()])
                return tracemalloc.get_traced_memory()[1] - outputs
            finally:
                tracemalloc.stop()

        fused = peak(lambda: nn.conv2d_backward(x, p, d, relu=relu, mask=mask))
        unfused = peak(lambda: nn.conv2d_backward(x, p, nn.maxpool2d_backward(mask, d), relu=relu))
        # the relu's sign of the input is a bool quarter of it
        bound = band_bytes + full / 4 * relu + full / 2
        assert fused < bound < unfused


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
