"""Layer forward/backward operations: conv, max-pool, GAP, dense, ReLU,
softmax and cross-entropy.

Every operation is a pure function; backward passes take the original
forward inputs explicitly instead of relying on hidden layer state. The
layer objects of model.layers call these functions and keep those
inputs as their ctx; a ReLU keeps its output, which is positive where
its input is. The 2x2 max pool compares strided views of its input, a
window's two columns first and then its two row winners, and keeps each
winner's position as a uint8 code; its backward writes each of the four
window positions once. The ReLU and pool backwards select float32 values
through their uint32 bits (_select), so every value keeps its bits.

A conv whose input is a ReLU's output applies that ReLU's backward
itself (conv2d_backward's relu): after d_w it takes the sign of its
input and lets the input go, then zeroes d_input where the sign is not
positive, with _select, as each band is written.

Convolution runs as im2col + matmul (the naive sliding-window loop is
kept as an oracle in the test suite) over the float64 patch matrix
[C*kh*kw x N*H*W] of a same-padded stride-1 conv, rows in (c, i, j) and
columns in (n, y, x) order, gathered from the (C, N, H, W) view of the
unpadded input with virtual zero padding of (kh // 2, kw // 2). Every
walk is such a conv's, as large as its input. One band walk,
_patch_bands, yields that matrix, zero-padded to whole 16-column panels,
in bands of patch columns, each with its runs (_runs): whole images, or a
stretch of one image's flat pixels. Each tap copies one run of flat
pixels per image and channel, shifted by its offset, and zeroes the rows
out of range and the columns that read across a row's edge (_fill_run).

Every model conv is same-padded with stride 1. Any other conv runs as
that conv on its input zero-padded by however much its padding exceeds
k // 2 on each axis (_widen; no copy where it does not): its output is a
strided slice of that conv's, and its backward is that conv's, given a
gradient that is zero except at the strided outputs, with d_input cropped
back to the input. Each output takes the same terms in the same (c, i, j)
order, so it keeps its bits; it costs the full stride-1 conv.

One correlation, _correlate, serves the forward and d_input, and each of
its bands keeps the bits of the one whole product: d_input correlates the
(O, N, H, W) view of d_out, virtually padded by k // 2, with the flipped,
transposed filters (Dumoulin & Visin, arXiv:1603.07285), and rounds once.
d_w sums d_out @ cols.T over bands in float64 and rounds once, taking
d_out's bands from the same walk as the 1x1 patch matrix of that view.
The bands split d_w's inner dimension, so its float64 sum, unlike a
correlation's product, depends on the band edges and so on CHUNK_BYTES.
One rule, _bands, sizes the bands of both: a band's K patch rows plus the
O rows beside them (the product, or d_out's band) hold at most
CHUNK_BYTES, so a non-pooled conv's d_w walks the edges of its forward.

_correlate has one epilogue, run by run: each band's product lands in one
reused float64 buffer and is rounded to float32 and added to the bias in
one pass into the output (d_input adds a zero bias, which turns -0.0 into
+0.0). conv2d_forward can rectify the output there in place, and max-pool
it first: a pooled forward's runs hold whole pairs of output rows, each
band is rounded into a reused float32 band with its bias and each run is
pooled into the quarter-size output, so the full-size map is never built.

The backward of such a conv runs the pool's backward inside its band
walks in the same way (conv2d_backward's mask; Alwani et al., "Fused-Layer
CNN Accelerators", MICRO 2016). It takes the pooled gradient, and each
run of d_w's 1x1 walk of d_out and of d_input's correlation first
unpools the whole pairs of rows that it reads, kernel halo included, into
one small float32 region with the four strided writes of
maxpool2d_backward. So the full-size gradient at the conv's output is
not built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, _mm64


@dataclass(frozen=True)
class ConvParams:
    """Filter bank [out_ch x in_ch x kh x kw], per-filter bias, stride, zero padding."""

    weights: Tensor
    bias: Tensor
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.weights.rank != 4:
            raise ShapeError(f"conv weights must be rank-4, got {self.weights.shape}")
        out_ch, _, kh, kw = self.weights.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ShapeError(f"kernel dims must be odd, got {kh}x{kw}")
        if self.bias.shape != (out_ch,):
            raise ShapeError(f"bias shape {self.bias.shape} != ({out_ch},)")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ShapeError(f"padding must be >= 0, got {self.padding}")


@dataclass(frozen=True)
class LayerGradients:
    """Gradient of a layer: d_input (None where it was skipped) plus one entry per parameter."""

    d_input: Tensor | None
    d_params: dict[str, Tensor] = field(default_factory=dict)


@dataclass(frozen=True)
class PoolMask:
    """Winning position per 2x2 window (uint8 0..3, row-major within the window)."""

    window_argmax: np.ndarray
    input_shape: tuple[int, int, int, int]


def _conv_geometry(x_shape, p: ConvParams):
    n, c, h, w = x_shape
    out_ch, in_ch, kh, kw = p.weights.shape
    if c != in_ch:
        raise ShapeError(f"input has {c} channels but filters expect {in_ch}")
    oh = (h + 2 * p.padding - kh) // p.stride + 1
    ow = (w + 2 * p.padding - kw) // p.stride + 1
    if oh < 1 or ow < 1 or h + 2 * p.padding < kh or w + 2 * p.padding < kw:
        raise ShapeError(
            f"kernel {kh}x{kw} (pad {p.padding}) does not fit input {h}x{w}"
        )
    return n, c, h, w, out_ch, kh, kw, oh, ow


CHUNK_BYTES = 16 << 20
"""Cap on the float64 buffers of one band, in bytes: its K patch rows plus
the O rows beside them, a correlation's product or d_w's d_out band. A cap
of 8 MiB or less slowed 64-px training at batch 8 by about 15%: glibc then
returned the band buffers to the OS between calls and faulted them back in
4 KiB pages on the next call."""

# A correlation's band keeps the bits of the whole product only where each
# of its columns meets the same OpenBLAS dgemm micro-kernel as in the whole.
# So bands start at multiples of the micro-kernel width (4, 8 or 16 on
# x86-64), the band dimension is zero-padded to whole panels (the kernel of
# a partial tail panel depends on the blocking around it, and so on the
# thread count), and no band falls to the M*N*K at or below which OpenBLAS
# switches to a separate small-matrix kernel.
_BAND_ALIGN = 16
_SMALL_GEMM = 100 ** 3


def _bands(length: int, k: int, o: int, align: int = 1) -> list[tuple[int, int]]:
    """Split the patch columns [0, length) of one GEMM, zero-padded to a
    multiple of 16, into near-equal bands whose inner edges fall on
    multiples of lcm(16, align).

    A band holds k patch rows and the o rows beside them (a correlation's
    product or d_w's d_out band), 8 * (k + o) float64 bytes a column, and
    at most CHUNK_BYTES of them, unless one unit of lcm(16, align) columns
    or the small-matrix limit on o * k * width asks for more.
    """
    unit = math.lcm(_BAND_ALIGN, align)
    end = -(-length // _BAND_ALIGN) * _BAND_ALIGN
    units = -(-end // unit)
    cap_units = max(1, CHUNK_BYTES // (8 * (k + o) * unit))
    min_units = _SMALL_GEMM // (o * k * unit) + 1
    count = max(1, min(-(-units // cap_units), units // min_units))
    q, r = divmod(units, count)
    edges = [0]
    for b in range(count):
        edges.append(edges[-1] + (q + (b < r)) * unit)
    # The last band ends at the last 16-column panel; cut short of a whole
    # unit, it joins the band before it if it would fall to the small kernel.
    edges[-1] = end
    if count > 1 and (end - edges[-2]) * o * k <= _SMALL_GEMM:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _runs(m0: int, m1: int, plane: int) -> list[tuple[int, tuple[int, int, int, int]]]:
    """Cover patch columns [m0, m1), in (n, y, x) order with plane columns an
    image, with runs (offset in the band, (n0, n1, e0, e1)) of the flat
    pixels [e0, e1) of each image of n0:n1: whole images, or a stretch of
    one image."""
    runs = []
    m = m0
    while m < m1:
        n, e = divmod(m, plane)
        images = max(1, (m1 - m) // plane) if e == 0 else 1
        e1 = min(plane, e + m1 - m)
        runs.append((m - m0, (n, n + images, e, e1)))
        m += images * (e1 - e)
    return runs


def _unpool(code: np.ndarray, d: np.ndarray, out: np.ndarray) -> None:
    """The input gradient of a 2x2 max pool, whose output gradient is d and
    whose winners are code, into out (twice d's last two sides): one
    strided write per window position, which covers out."""
    for k in range(4):
        _select(code == k, d, out=out[..., k // 2 :: 2, k % 2 :: 2])


def _patch_bands(x: np.ndarray, bands, kh, kw, code=None):
    """Yield (runs, cols) for each band (m0, m1) of bands, in order, of the
    float64 patch matrix of the same-padded stride-1 walk of a kh x kw
    kernel over an unpadded (C, N, H, W) input; every band reuses one
    buffer. The runs (_runs) cover the band's real columns, and the columns
    past the last real one are zero. Each run is filled tap by tap
    (_fill_run).

    With code, x is the output gradient of a 2x2 max pool and code its
    winners, both (C, N, H/2, W/2), and the input is the pool's input
    gradient: each run first unpools the whole pairs of rows it reads into
    one region that all runs reuse, so that gradient is never built."""
    taps, ph = kh * kw, kh // 2
    c, n, h, w = x.shape
    if code is not None:
        h, w = 2 * h, 2 * w
    k, m = c * taps, n * h * w
    runs = [_runs(m0, min(m1, m), h * w) for m0, m1 in bands]

    def reads(run) -> tuple[int, int]:
        """The whole pairs of input rows [r0, r1) that a run reads."""
        r0 = max(0, run[2] // w - ph) // 2 * 2
        r1 = min(h, (run[3] - 1) // w - ph + kh)
        return r0, max(r0, r1 + r1 % 2)

    if code is not None:
        size = 0
        for band in runs:
            for _, run in band:
                r0, r1 = reads(run)
                size = max(size, (run[1] - run[0]) * (r1 - r0))
        region = np.empty(c * size * w, dtype=np.float32)
    buf = np.empty(k * max(b - a for a, b in bands), dtype=np.float64)
    src, base = (x.reshape(c, n, h * w) if code is None else x), (0, 0)
    for (m0, m1), band in zip(bands, runs):
        cols = buf[: k * (m1 - m0)].reshape(k, m1 - m0)
        cols[:, m - m0 :] = 0
        for off, run in band:
            if code is not None:
                (n0, n1), (r0, r1) = run[:2], reads(run)
                # in the (N, C) order of the pool's arrays, which it writes fastest
                rows = region[: c * (n1 - n0) * (r1 - r0) * w].reshape(
                    n1 - n0, c, r1 - r0, w).transpose(1, 0, 2, 3)
                _unpool(code[:, n0:n1, r0 // 2 : r1 // 2], x[:, n0:n1, r0 // 2 : r1 // 2], rows)
                src, base = rows.reshape(c, n1 - n0, -1), (n0, r0)
            _fill_run(cols, off, run, src, base, kh, kw, h, w)
        yield band, cols


def _fill_run(cols, off, run, src, base, kh, kw, h, w):
    """Fill a run's columns of a band from src (C, N, rows * W), which holds
    the input's rows from base = (image, row) on: tap (i, j) copies the
    run's flat pixels, shifted by (i - kh // 2) * W + j - kw // 2 within
    each input plane, over the rows in range, then zeroes the rows out of
    range and the columns that read across a row's edge."""
    taps, ph, pw = kh * kw, kh // 2, kw // 2
    n0, n1, e0, e1 = run
    size = src.shape[2]
    for t in range(taps):
        i, j = divmod(t, kw)
        view = cols[t::taps, off : off + (n1 - n0) * (e1 - e0)].reshape(-1, n1 - n0, e1 - e0)
        # flat pixel e reads src[..., e + s]; its row is in range for e in [a, b)
        s = (i - ph - base[1]) * w + j - pw
        a = min(max(e0, (ph - i) * w, -s), e1)
        b = max(min(e1, (h + ph - i) * w, size - s), a)
        view[..., a - e0 : b - e0] = src[:, n0 - base[0] : n1 - base[0], a + s : b + s]
        # The zeros go after the copy, which has just brought their cache
        # lines in: written first, a column strip cost about as much as the
        # copy on a band larger than the L2 cache.
        if a > e0:
            view[..., : a - e0] = 0
        if b < e1:
            view[..., b - e0 :] = 0
        for col in (*range(min(w, pw - j)), *range(max(0, w + pw - j), w)):
            view[..., (col - e0) % w :: w] = 0


def _correlate(x: np.ndarray, w64: np.ndarray, bias, kh, kw, relu=False, pool=False,
               keep=None, code=None):
    """NCHW float32 out[n,o,y,x] = bias[o] + sum over c,i,j of
    x[c,n,y+i-kh//2,x+j-kw//2] * w64[o,(c,i,j)], zero outside a (C, N, H, W)
    input, as large as it: one _mm64 per band of the patch matrix into one
    reused float64 buffer, then one epilogue per run of the band (_runs),
    which rounds it to float32 and adds the bias into the output.

    With pool, whose runs hold whole pairs of output rows, a band is
    rounded with its bias into a reused float32 band, and each run is
    max-pooled from it into the quarter-size output, the only map built;
    (pooled, winner codes) is returned. relu then rectifies each run's
    output in place. A bool keep of the output's shape zeroes the output
    where it is False, as _select does, run by run (d_input through a
    ReLU). With code, x is a pool's output gradient, unpooled as
    _patch_bands reads it.
    """
    (c, n, h, w), o = x.shape, len(w64)
    if code is not None:
        h, w = 2 * h, 2 * w
    k, f = c * kh * kw, 2 if pool else 1
    bands = _bands(n * h * w, k, o, 2 * w if pool else 1)
    out = np.empty((n, o, h // f, w // f), dtype=np.float32)
    width = max(b - a for a, b in bands)
    product = np.empty(o * width)
    if pool:
        # the pool compares the rounded sums, so they go to a float32 band
        winner = np.empty(out.shape, dtype=np.uint8)
        conv = np.empty(o * width, dtype=np.float32)
    for runs, cols in _patch_bands(x, bands, kh, kw, code):
        band = _mm64(w64, cols, out=product[: o * cols.shape[1]].reshape(o, -1))
        if pool:
            band = np.add(band, bias[:, None], out=conv[: band.size].reshape(band.shape),
                          dtype=np.float32)
        for off, (n0, n1, e0, e1) in runs:
            src = band[:, off : off + (n1 - n0) * (e1 - e0)].reshape(o, n1 - n0, -1)
            if pool:
                y0, y1 = e0 // (2 * w), e1 // (2 * w)
                dst = out[n0:n1, :, y0:y1]
                _pool(src.reshape(o, n1 - n0, -1, w), dst.transpose(1, 0, 2, 3),
                      winner[n0:n1, :, y0:y1].transpose(1, 0, 2, 3))
            else:
                dst = out.reshape(n, o, -1)[n0:n1, :, e0:e1]
                np.add(src, bias[:, None, None], out=dst.transpose(1, 0, 2), dtype=np.float32)
                if keep is not None:
                    _select(keep.reshape(n, o, -1)[n0:n1, :, e0:e1], dst, out=dst)
            if relu:
                np.maximum(dst, np.float32(0.0), out=dst)
    return (out, winner) if pool else out


def _widen(x: np.ndarray, p: ConvParams, kh, kw, oh, ow):
    """Recast a conv that is not same-padded with stride 1 as the one that
    is: its NCHW input x, zero-padded by however much p.padding exceeds
    k // 2 on each axis (x itself where it does not), the index of the
    strided slice of the same-padded stride-1 conv's output that is this
    conv's output, and the index of the padded input that is x."""
    eh, ew = max(0, p.padding - kh // 2), max(0, p.padding - kw // 2)
    h, w = x.shape[2:]
    if eh or ew:
        x = np.pad(x, ((0, 0), (0, 0), (eh, eh), (ew, ew)))
    y0, x0, s = kh // 2 + eh - p.padding, kw // 2 + ew - p.padding, p.stride
    return (x, (..., slice(y0, y0 + s * oh, s), slice(x0, x0 + s * ow, s)),
            (..., slice(eh, eh + h), slice(ew, ew + w)))


def conv2d_forward(x: Tensor, p: ConvParams, relu=False,
                   pool=False) -> Tensor | tuple[Tensor, PoolMask]:
    """Cross-correlate an NCHW batch with the filter bank.

    out[n,o,y,x] = bias[o] + sum over c,i,j of
    input[n,c,y*s+i-pad,x*s+j-pad] * w[o,c,i,j], zero outside bounds.

    pool max-pools the output as maxpool2d_forward does and returns
    (pooled, PoolMask); relu then rectifies the result. A same-padded
    stride-1 conv runs both on each band of the output as it is written,
    with the bits of the separate ops. Any other conv's output is a strided
    slice of the same-padded stride-1 conv of its widened input (_widen),
    which pool and relu then take as maxpool2d_forward and np.maximum do.
    """
    n, c, h, w, out_ch, kh, kw, oh, ow = _conv_geometry(x.shape, p)
    if pool and (oh % 2 or ow % 2):
        raise ShapeError(f"spatial dims must be divisible by 2, got {oh}x{ow}")
    w64 = p.weights.array.reshape(out_ch, -1).astype(np.float64)
    if p.stride == 1 and p.padding == kh // 2 == kw // 2:
        out = _correlate(x.array.transpose(1, 0, 2, 3), w64, p.bias.array, kh, kw, relu, pool)
        if pool:
            return Tensor._wrap(out[0]), PoolMask(out[1], (n, out_ch, oh, ow))
        return Tensor._wrap(out)
    wide, at, _ = _widen(x.array, p, kh, kw, oh, ow)
    out = Tensor._wrap(np.ascontiguousarray(
        _correlate(wide.transpose(1, 0, 2, 3), w64, p.bias.array, kh, kw)[at]))
    out, mask = maxpool2d_forward(out) if pool else (out, None)
    if relu:
        out = Tensor._wrap(np.maximum(out.array, np.float32(0.0)))
    return (out, mask) if pool else out


def conv2d_backward(x: Tensor, p: ConvParams, d_out: Tensor, with_input=True,
                    relu=False, mask: PoolMask | None = None) -> LayerGradients:
    """Exact adjoint of conv2d_forward: weights, bias and, if with_input, input.

    relu says that x is the output of a ReLU: d_input is then the gradient
    at that ReLU's input, zero where x is not positive, as relu_backward
    gives it. x is let go once d_w and that mask are taken, so a caller
    that hands x over without keeping a name for it frees it before the
    d_input products run.

    mask says that the conv's output was max-pooled (conv2d_forward's
    pool) and d_out is the pooled gradient. In a same-padded stride-1 conv
    the gradient at the conv's output, maxpool2d_backward(mask, d_out), is
    then not built: each run of d_w's and d_input's band walks unpools the
    rows it reads, with d_input's kernel halo, into one small region. d_w
    and d_input have the bits of the unfused backward; d_bias sums d_out,
    whose values are the nonzero terms of that gradient, so its float64
    sum is grouped differently.

    Any other conv runs the backward of the same-padded stride-1 conv of
    its widened input (_widen), given a gradient that is zero except at
    the strided outputs, which hold d_out, unpooled whole under a mask;
    d_input is cropped back to x, and d_bias still sums d_out.
    """
    n, c, h, w, out_ch, kh, kw, oh, ow = _conv_geometry(x.shape, p)
    want = (n, out_ch) + ((oh, ow) if mask is None else (oh // 2, ow // 2))
    if d_out.shape != want:
        raise ShapeError(f"d_out shape {d_out.shape} != {want}")
    if mask is not None and mask.input_shape != (n, out_ch, oh, ow):
        raise ShapeError(f"pool input {mask.input_shape} != forward output "
                         f"({n}, {out_ch}, {oh}, {ow})")
    d_bias = np.sum(d_out.array, axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
    x, d, code, crop = x.array, d_out.array, None, None
    if p.stride == 1 and p.padding == kh // 2 == kw // 2:
        if mask is not None:
            code = mask.window_argmax.transpose(1, 0, 2, 3)
    else:
        x, at, crop = _widen(x, p, kh, kw, oh, ow)
        d = np.zeros((n, out_ch, *x.shape[2:]), dtype=np.float32)
        d[at] = d_out.array if mask is None else maxpool2d_backward(mask, d_out).array

    # d_w: d_out @ cols.T over bands of patch columns, summed in float64 in
    # ascending band order and rounded once; d_out's band is the 1x1 patch
    # matrix of its (O, N, H, W) view on the same edges. A band's K patch
    # rows and its O d_out rows share the cap, as in a correlation.
    d_t = d.transpose(1, 0, 2, 3)
    k = c * kh * kw
    bands = _bands(n * x.shape[2] * x.shape[3], k, out_ch)
    d_w = np.zeros((out_ch, k), dtype=np.float64)
    for (_, cols), (_, d_band) in zip(_patch_bands(x.transpose(1, 0, 2, 3), bands, kh, kw),
                                      _patch_bands(d_t, bands, 1, 1, code)):
        d_w += _mm64(d_band, cols.T, np.float64)
    del cols, d_band
    keep = x > 0 if relu and with_input else None
    del x

    # d_input: d_out, virtually padded by k // 2, correlated with flipped W.T
    d_input = None
    if with_input:
        wt64 = p.weights.array[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1).astype(np.float64)
        d_input = _correlate(d_t, wt64, np.zeros(c, np.float32), kh, kw, keep=keep, code=code)
        d_input = Tensor._wrap(d_input if crop is None else np.ascontiguousarray(d_input[crop]))
    return LayerGradients(
        d_input=d_input,
        d_params={"weights": Tensor._wrap(d_w.astype(np.float32).reshape(out_ch, c, kh, kw)),
                  "bias": Tensor._wrap(d_bias)},
    )


def _select(keep: np.ndarray, a: np.ndarray, b: np.ndarray | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """float32 a where keep, else b (else +0.0), bit for bit, into out or a
    new array. It multiplies the uint32 bits by the mask, with no branch per
    element; np.where took three times as long on a random mask."""
    if out is None:
        out = np.empty(keep.shape, dtype=np.float32)
    bits = out.view(np.uint32)
    if b is None:
        np.multiply(a.view(np.uint32), keep, out=bits)
    else:
        np.bitwise_xor(a.view(np.uint32), b.view(np.uint32), out=bits)
        bits *= keep
        bits ^= b.view(np.uint32)
    return out


def _pool(a: np.ndarray, out: np.ndarray, code: np.ndarray) -> None:
    """2x2/stride-2 max pool over the last two axes of a, into out, with
    each winner's position in code: the two columns of each window are
    compared first, then the winners of its top and bottom rows."""
    left, right = a[..., 0::2], a[..., 1::2]
    keep_left = left >= right
    keep_left |= np.isnan(left)
    best = _select(keep_left, left, right)
    top, bottom = best[..., 0::2, :], best[..., 1::2, :]
    keep_top = top >= bottom
    keep_top |= np.isnan(top)
    _select(keep_top, top, bottom, out=out)
    # code = 2 * row + column of the winner = 3 - (2 * keep_top + its row's keep_left)
    won_left = keep_top & keep_left[..., 0::2, :]
    won_left |= ~keep_top & keep_left[..., 1::2, :]
    np.multiply(keep_top.view(np.uint8), np.uint8(2), out=code)
    code += won_left.view(np.uint8)
    np.subtract(np.uint8(3), code, out=code)


def maxpool2d_forward(x: Tensor) -> tuple[Tensor, PoolMask]:
    """2x2/stride-2 max pooling with the rules of argmax: the first maximum
    in row-major order wins, and a NaN wins over any number, the first NaN
    over later ones."""
    if x.rank != 4:
        raise ShapeError(f"maxpool input must be NCHW, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"spatial dims must be divisible by 2, got {h}x{w}")
    out = np.empty((n, c, h // 2, w // 2), dtype=np.float32)
    code = np.empty(out.shape, dtype=np.uint8)
    _pool(x.array, out, code)
    return Tensor._wrap(out), PoolMask(code, (n, c, h, w))


def maxpool2d_backward(mask: PoolMask, d_out: Tensor) -> Tensor:
    """Route each output gradient to the window position that won the forward
    max: one strided write per position, which covers the input gradient."""
    n, c, h, w = mask.input_shape
    oh, ow = h // 2, w // 2
    if d_out.shape != (n, c, oh, ow):
        raise ShapeError(f"d_out shape {d_out.shape} != pooled shape ({n}, {c}, {oh}, {ow})")
    d_in = np.empty((n, c, h, w), dtype=np.float32)
    _unpool(mask.window_argmax, d_out.array, d_in)
    return Tensor._wrap(d_in)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial dims: NCHW -> [N x C]."""
    if x.rank != 4:
        raise ShapeError(f"GAP input must be NCHW, got {x.shape}")
    return Tensor._wrap(np.mean(x.array, axis=(2, 3), dtype=np.float64).astype(np.float32))


def global_avg_pool_backward(input_shape, d_out: Tensor) -> Tensor:
    """Spread each [N x C] gradient uniformly over its h*w positions."""
    n, c, h, w = input_shape
    if d_out.shape != (n, c):
        raise ShapeError(f"d_out shape {d_out.shape} != ({n}, {c})")
    d = (d_out.array.astype(np.float64) / (h * w)).astype(np.float32)
    return Tensor._wrap(np.ascontiguousarray(np.broadcast_to(d[:, :, None, None], (n, c, h, w))))


def dense_forward(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map [N x k]·[k x m] + bias, bias broadcast over rows."""
    if x.rank != 2 or weights.rank != 2:
        raise ShapeError(f"dense needs rank-2 input/weights, got {x.shape} and {weights.shape}")
    if x.shape[1] != weights.shape[0]:
        raise ShapeError(f"dense inner dimensions differ: {x.shape} x {weights.shape}")
    if bias.shape != (weights.shape[1],):
        raise ShapeError(f"bias shape {bias.shape} != ({weights.shape[1]},)")
    return Tensor._wrap(_mm64(x.array, weights.array) + bias.array)


def dense_backward(x: Tensor, weights: Tensor, d_out: Tensor) -> LayerGradients:
    if d_out.shape != (x.shape[0], weights.shape[1]):
        raise ShapeError(f"d_out shape {d_out.shape} != ({x.shape[0]}, {weights.shape[1]})")
    d_w = _mm64(x.array.T, d_out.array)
    d_b = np.sum(d_out.array, axis=0, dtype=np.float64).astype(np.float32)
    d_x = _mm64(d_out.array, weights.array.T)
    return LayerGradients(
        d_input=Tensor._wrap(d_x),
        d_params={"weights": Tensor._wrap(d_w), "bias": Tensor._wrap(d_b)},
    )


def relu(x: Tensor) -> Tensor:
    return Tensor._wrap(np.maximum(x.array, np.float32(0.0)))


def relu_backward(x: Tensor, d_out: Tensor) -> Tensor:
    """Pass gradient where x, the ReLU's input or output, is > 0; zero elsewhere."""
    if d_out.shape != x.shape:
        raise ShapeError(f"d_out shape {d_out.shape} != input shape {x.shape}")
    return Tensor._wrap(_select(x.array > 0, d_out.array))


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; rows sum to 1 within 1e-6."""
    if logits.rank != 2:
        raise ShapeError(f"softmax input must be [N x c], got {logits.shape}")
    if logits.shape[1] < 2:
        raise ShapeError(f"softmax needs at least 2 classes, got {logits.shape[1]}")
    z = logits.array.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return Tensor._wrap((e / e.sum(axis=1, keepdims=True)).astype(np.float32))


def _check_targets(probs: Tensor, targets) -> np.ndarray:
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (probs.shape[0],):
        raise ShapeError(f"need {probs.shape[0]} targets, got shape {t.shape}")
    if t.min() < 0 or t.max() >= probs.shape[1]:
        raise ValueError(f"target out of range [0, {probs.shape[1]}): {t.tolist()}")
    return t


def cross_entropy(probs: Tensor, targets) -> float:
    """Mean negative log-likelihood; probabilities clamped at 1e-12 before log."""
    t = _check_targets(probs, targets)
    p = probs.array.astype(np.float64)[np.arange(len(t)), t]
    return float(-np.mean(np.log(np.maximum(p, 1e-12))))


def cross_entropy_backward(probs: Tensor, targets) -> Tensor:
    """Fused softmax + cross-entropy gradient w.r.t. the logits: (probs - onehot) / N."""
    t = _check_targets(probs, targets)
    n = probs.shape[0]
    d = probs.array.astype(np.float64).copy()
    d[np.arange(n), t] -= 1.0
    return Tensor._wrap((d / n).astype(np.float32))
