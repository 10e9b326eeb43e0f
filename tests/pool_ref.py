"""Window-copy reference for the 2x2 max pool of `defectnet.nn`.

The forward copies every 2x2 window into a contiguous length-4 row and
takes its `argmax`: the first maximum in row-major order wins, and a NaN
wins over any number, the first NaN over later ones. The backward puts
each output gradient at that position with `put_along_axis`. The kernels
of `defectnet.nn` must equal these functions bit for bit: pooled values,
uint8 window codes and input gradients.
"""

import numpy as np

from defectnet.errors import ShapeError
from defectnet.nn import PoolMask
from defectnet.tensor import Tensor


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
