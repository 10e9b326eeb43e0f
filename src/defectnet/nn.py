"""Layer forward/backward operations: conv, max-pool, GAP, dense, ReLU,
softmax and cross-entropy.

Every operation is a pure function; backward passes take the original
forward inputs explicitly instead of relying on hidden layer state. The
layer objects of model.layers call these functions and keep those
inputs as their ctx. Convolution runs as im2col + matmul (the naive
sliding-window loop is kept as an oracle in the test suite): each
direction builds one float64 patch matrix [C*kh*kw x N*oh*ow], rows in
(c, i, j) and columns in (n, y, x) order, written straight from a padded
(C, N, H, W) copy of the input, and multiplies W @ cols, so no float32
staging copy or transpose of the patch matrix is ever made.
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
    """Gradient of a layer: d_input plus one entry per parameter."""

    d_input: Tensor
    d_params: dict[str, Tensor] = field(default_factory=dict)


@dataclass(frozen=True)
class PoolMask:
    """Winning position per 2x2 window (0..3, row-major within the window)."""

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


def _im2col(x: np.ndarray, kh, kw, stride, pad, oh, ow) -> np.ndarray:
    """float64 patch matrix [C*kh*kw x N*oh*ow]: rows (c, i, j), columns (n, y, x)."""
    n, c, h, w = x.shape
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=np.float32)
    xp[:, :, pad : pad + h, pad : pad + w] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n, oh, ow), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(c * kh * kw, n * oh * ow)


def _col2im(d_cols: np.ndarray, x_shape, kh, kw, stride, pad, oh, ow) -> np.ndarray:
    """Adjoint of _im2col: scatter-add [C*kh*kw x N*oh*ow] back to NCHW float32."""
    n, c, h, w = x_shape
    dxp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    dc = d_cols.reshape(c, kh, kw, n, oh, ow)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += dc[:, i, j]
    dx = dxp[:, :, pad : pad + h, pad : pad + w].transpose(1, 0, 2, 3)
    return np.ascontiguousarray(dx, dtype=np.float32)


def conv2d_forward(x: Tensor, p: ConvParams) -> Tensor:
    """Cross-correlate an NCHW batch with the filter bank.

    out[n,o,y,x] = bias[o] + sum over c,i,j of
    input[n,c,y*s+i-pad,x*s+j-pad] * w[o,c,i,j], zero outside bounds.
    """
    n, c, h, w, out_ch, kh, kw, oh, ow = _conv_geometry(x.shape, p)
    cols = _im2col(x.array, kh, kw, p.stride, p.padding, oh, ow)
    out = _mm64(p.weights.array.reshape(out_ch, -1), cols) + p.bias.array[:, None]
    return Tensor._wrap(np.ascontiguousarray(out.reshape(out_ch, n, oh, ow).transpose(1, 0, 2, 3)))


def conv2d_backward(x: Tensor, p: ConvParams, d_out: Tensor) -> LayerGradients:
    """Exact adjoint of conv2d_forward for input, weights and bias."""
    n, c, h, w, out_ch, kh, kw, oh, ow = _conv_geometry(x.shape, p)
    if d_out.shape != (n, out_ch, oh, ow):
        raise ShapeError(f"d_out shape {d_out.shape} != forward output ({n}, {out_ch}, {oh}, {ow})")
    cols = _im2col(x.array, kh, kw, p.stride, p.padding, oh, ow)
    d_mat = np.ascontiguousarray(d_out.array.transpose(1, 0, 2, 3), dtype=np.float64).reshape(out_ch, -1)
    d_bias = np.sum(d_out.array, axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
    d_w = _mm64(d_mat, cols.T).reshape(out_ch, c, kh, kw)
    del cols
    d_cols = _mm64(p.weights.array.reshape(out_ch, -1).T, d_mat)
    d_input = _col2im(d_cols, x.shape, kh, kw, p.stride, p.padding, oh, ow)
    return LayerGradients(
        d_input=Tensor._wrap(d_input),
        d_params={"weights": Tensor._wrap(d_w), "bias": Tensor._wrap(d_bias)},
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
    idx = win.argmax(axis=-1)
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
    """Pass gradient where input was strictly positive; zero at x <= 0."""
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
