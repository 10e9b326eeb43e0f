"""Layer forward/backward operations: conv, max-pool, GAP, dense, ReLU,
softmax and cross-entropy.

Every operation is a pure function; backward passes take the original
forward inputs explicitly instead of relying on hidden layer state. The
layer objects of model.layers call these functions and keep those
inputs as their ctx; a ReLU keeps its output, which is positive where
its input is. Convolution runs as im2col + matmul (the naive
sliding-window loop is kept as an oracle in the test suite) over the
float64 patch matrix [C*kh*kw x N*oh*ow], rows in (c, i, j) and columns
in (n, y, x) order, which _tap_walk gathers from a padded (C, N, H, W)
copy of the input. One band walk, _patch_bands, yields that matrix in
bands of patch columns of at most CHUNK_BYTES, save the exceptions listed
at _bands. One correlation, _correlate, serves the forward and d_input,
and each of its bands keeps the bits of the one whole product: d_input
correlates d_out, zero-inserted and padded, with the flipped, transposed
filters, and rounds once. d_w sums d_out @ cols.T over the same bands in
float64 and rounds once.
"""

from __future__ import annotations

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
"""Cap on one band of a float64 patch matrix, in bytes. A cap of 8 MiB or
less slowed 64-px training at batch 8 by about 15%: glibc then returned
the band buffers to the OS between calls and faulted them back in 4 KiB
pages on the next call."""

# A correlation's band keeps the bits of the whole product only where each
# of its columns meets the same OpenBLAS dgemm micro-kernel as in the whole.
# So bands start at multiples of the micro-kernel width (4, 8 or 16 on
# x86-64), a product whose band dimension ends in a partial micro-panel is
# never split (the kernel of that tail depends on the blocking around it),
# and no band falls to the M*N*K at or below which OpenBLAS switches to a
# separate small-matrix kernel.
_BAND_ALIGN = 16
_SMALL_GEMM = 100 ** 3


def _bands(length: int, line_bytes: int, other: int) -> list[tuple[int, int]]:
    """Split the patch columns [0, length) of one GEMM into near-equal bands.

    line_bytes is the float64 operand size of one column and other the
    product of the GEMM's two other dimensions. Each band holds at most
    CHUNK_BYTES of operand, unless one 16-column unit or the small-matrix
    limit asks for more.
    """
    if length % _BAND_ALIGN:
        return [(0, length)]
    units = length // _BAND_ALIGN
    cap_units = max(1, CHUNK_BYTES // (line_bytes * _BAND_ALIGN))
    min_units = _SMALL_GEMM // (other * _BAND_ALIGN) + 1
    count = max(1, min(-(-units // cap_units), units // min_units))
    q, r = divmod(units, count)
    edges = [0]
    for b in range(count):
        edges.append(edges[-1] + (q + (b < r)) * _BAND_ALIGN)
    return list(zip(edges[:-1], edges[1:]))


def _boxes(m0: int, m1: int, oh: int, ow: int) -> list[tuple[int, tuple[int, ...]]]:
    """Cover patch columns [m0, m1), in (n, y, x) order, with boxes
    (offset in the band, (n0, n1, y0, y1, x0, x1)): each box is a run of
    whole images, of whole rows of one image, or part of one row."""
    boxes = []
    m = m0
    while m < m1:
        left = m1 - m
        n, rest = divmod(m, oh * ow)
        y, x = divmod(rest, ow)
        if x or left < ow:
            images, rows, cols = 1, 1, min(ow - x, left)
        elif y or left < oh * ow:
            images, rows, cols = 1, min(oh - y, left // ow), ow
        else:
            images, rows, cols = left // (oh * ow), oh, ow
        boxes.append((m - m0, (n, n + images, y, y + rows, x, x + cols)))
        m += images * rows * cols
    return boxes


def _band_view(band: np.ndarray, off: int, box) -> np.ndarray:
    """A box's columns of a [rows x width] band, shaped (rows, n, y, x)."""
    n0, n1, y0, y1, x0, x1 = box
    return band[:, off : off + (n1 - n0) * (y1 - y0) * (x1 - x0)].reshape(
        band.shape[0], n1 - n0, y1 - y0, x1 - x0)


def _padded(x: np.ndarray, pad: int) -> np.ndarray:
    """float32 (C, N, H + 2*pad, W + 2*pad) zero-padded copy of an NCHW batch."""
    n, c, h, w = x.shape
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=np.float32)
    xp[:, :, pad : pad + h, pad : pad + w] = x.transpose(1, 0, 2, 3)
    return xp


def _tap_walk(cols: np.ndarray, xp: np.ndarray, kh, kw, stride, boxes):
    """Fill a band of the patch matrix [C*kh*kw x N*oh*ow] from the padded
    (C, N, H, W) input it reads, tap (i, j) by tap, then box by box over
    the band's columns."""
    taps = kh * kw
    for t in range(taps):
        i, j = divmod(t, kw)
        rows = cols[t::taps]
        for off, box in boxes:
            n0, n1, y0, y1, x0, x1 = box
            _band_view(rows, off, box)[...] = xp[
                :, n0:n1, i + stride * y0 : i + stride * y1 : stride,
                j + stride * x0 : j + stride * x1 : stride]


def _patch_bands(xp: np.ndarray, out_ch, kh, kw, stride, oh, ow):
    """Yield (boxes, cols) for each band of the float64 patch matrix of a
    padded (C, N, H, W) input that a GEMM with out_ch output rows reads,
    in ascending column order; every band reuses one buffer."""
    k, m = xp.shape[0] * kh * kw, xp.shape[1] * oh * ow
    bands = _bands(m, 8 * k, out_ch * k)
    buf = np.empty(k * max(b - a for a, b in bands), dtype=np.float64)
    for m0, m1 in bands:
        boxes = _boxes(m0, m1, oh, ow)
        cols = buf[: k * (m1 - m0)].reshape(k, m1 - m0)
        _tap_walk(cols, xp, kh, kw, stride, boxes)
        yield boxes, cols


def _correlate(xp: np.ndarray, w64: np.ndarray, bias, kh, kw, stride, oh, ow) -> np.ndarray:
    """NCHW float32 out[n,o,y,x] = bias[o] + sum over c,i,j of
    xp[c,n,y*stride+i,x*stride+j] * w64[o,(c,i,j)], for a padded
    (C, N, H, W) input: one _mm64 per band of the patch matrix."""
    out = np.empty((xp.shape[1], len(w64), oh, ow), dtype=np.float32)
    for boxes, cols in _patch_bands(xp, len(w64), kh, kw, stride, oh, ow):
        band = _mm64(w64, cols) + bias[:, None]
        for off, box in boxes:
            n0, n1, y0, y1, x0, x1 = box
            out[n0:n1, :, y0:y1, x0:x1] = _band_view(band, off, box).transpose(1, 0, 2, 3)
    return out


def conv2d_forward(x: Tensor, p: ConvParams) -> Tensor:
    """Cross-correlate an NCHW batch with the filter bank.

    out[n,o,y,x] = bias[o] + sum over c,i,j of
    input[n,c,y*s+i-pad,x*s+j-pad] * w[o,c,i,j], zero outside bounds.
    """
    n, c, h, w, out_ch, kh, kw, oh, ow = _conv_geometry(x.shape, p)
    w64 = p.weights.array.reshape(out_ch, -1).astype(np.float64)
    return Tensor._wrap(_correlate(_padded(x.array, p.padding), w64, p.bias.array,
                                   kh, kw, p.stride, oh, ow))


def conv2d_backward(x: Tensor, p: ConvParams, d_out: Tensor, with_input=True) -> LayerGradients:
    """Exact adjoint of conv2d_forward: weights, bias and, if with_input, input."""
    n, c, h, w, out_ch, kh, kw, oh, ow = _conv_geometry(x.shape, p)
    if d_out.shape != (n, out_ch, oh, ow):
        raise ShapeError(f"d_out shape {d_out.shape} != forward output ({n}, {out_ch}, {oh}, {ow})")
    s, pad = p.stride, p.padding
    d_bias = np.sum(d_out.array, axis=(0, 2, 3), dtype=np.float64).astype(np.float32)

    # d_w: d_out @ cols.T over the forward's bands of patch columns, summed
    # in float64 in ascending band order and rounded once.
    d_t = d_out.array.transpose(1, 0, 2, 3)
    d_w = np.zeros((out_ch, c * kh * kw), dtype=np.float64)
    for boxes, cols in _patch_bands(_padded(x.array, pad), out_ch, kh, kw, s, oh, ow):
        d_band = np.empty((out_ch, cols.shape[1]), dtype=np.float64)
        for off, box in boxes:
            n0, n1, y0, y1, x0, x1 = box
            _band_view(d_band, off, box)[...] = d_t[:, n0:n1, y0:y1, x0:x1]
        d_w += _mm64(d_band, cols.T, np.float64)
    del cols, d_band

    # d_input: d_out, zero-inserted and padded by kh-1-pad, correlated with flipped W.T
    d_input = None
    if with_input:
        wt64 = p.weights.array[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1).astype(np.float64)
        dz = np.zeros((out_ch, n, h + 2 * pad + kh - 1, w + 2 * pad + kw - 1), dtype=np.float32)
        dz[:, :, kh - 1 :: s, kw - 1 :: s][:, :, :oh, :ow] = d_t
        dz = dz[:, :, pad : pad + h + kh - 1, pad : pad + w + kw - 1]
        d_input = Tensor._wrap(_correlate(dz, wt64, np.zeros(c, np.float32), kh, kw, 1, h, w))
    return LayerGradients(
        d_input=d_input,
        d_params={"weights": Tensor._wrap(d_w.astype(np.float32).reshape(out_ch, c, kh, kw)),
                  "bias": Tensor._wrap(d_bias)},
    )


def maxpool2d_forward(x: Tensor) -> tuple[Tensor, PoolMask]:
    """2x2/stride-2 max pooling; ties go to the first position in row-major scan."""
    if x.rank != 4:
        raise ShapeError(f"maxpool input must be NCHW, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"spatial dims must be divisible by 2, got {h}x{w}")
    oh, ow = h // 2, w // 2
    win = np.ascontiguousarray(
        x.array.reshape(n, c, oh, 2, ow, 2).transpose(0, 1, 2, 4, 3, 5)
    ).reshape(n, c, oh, ow, 4)
    idx = win.argmax(axis=-1).astype(np.uint8)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return Tensor._wrap(np.ascontiguousarray(out)), PoolMask(idx, (n, c, h, w))


def maxpool2d_backward(mask: PoolMask, d_out: Tensor) -> Tensor:
    """Route each output gradient to the window position that won the forward max."""
    n, c, h, w = mask.input_shape
    oh, ow = h // 2, w // 2
    if d_out.shape != (n, c, oh, ow):
        raise ShapeError(f"d_out shape {d_out.shape} != pooled shape ({n}, {c}, {oh}, {ow})")
    d_win = np.zeros((n, c, oh, ow, 4), dtype=np.float32)
    np.put_along_axis(d_win, mask.window_argmax[..., None], d_out.array[..., None], axis=-1)
    d_in = d_win.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return Tensor._wrap(np.ascontiguousarray(d_in))


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
    return Tensor._wrap(np.where(x.array > 0, d_out.array, np.float32(0.0)))


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
