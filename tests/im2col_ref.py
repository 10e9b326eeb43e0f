"""Whole-patch-matrix reference for the conv kernels of `defectnet.nn`.

Each direction builds the full float64 patch matrix [C*kh*kw x N*oh*ow]
(rows (c, i, j), columns (n, y, x)) and makes one matrix product per
GEMM. The banded kernels of `defectnet.nn` must equal these functions
bit for bit: output, d_input, d_weights and d_bias.
"""

import numpy as np

from defectnet.errors import ShapeError
from defectnet.nn import ConvParams, LayerGradients, _conv_geometry
from defectnet.tensor import Tensor, _mm64


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

