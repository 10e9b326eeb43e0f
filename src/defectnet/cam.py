"""Class activation mapping: project classifier weights back onto the
final convolutional feature maps to localise a class, then render.

The raw map is min-max normalized into [0,1] (flat maps degenerate to
all zeros with a flag). Rendering is corner-aligned bilinear upsampling
plus an alpha blend with a fixed blue-to-green-to-red colormap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ShapeError
from .model import ForwardTrace
from .tensor import Tensor


@dataclass(frozen=True)
class Heatmap:
    """Single-channel localisation map in [0,1] for one class.

    source_size is the (H, W) of the image the map describes; cell
    coordinates back-project onto that pixel grid.
    """

    values: Tensor
    class_index: int
    source_size: tuple[int, int]
    degenerate: bool = False


@dataclass(frozen=True)
class BoundingRegion:
    """Tight axis-aligned box, in source-image pixels, around hot heatmap cells."""

    x0: int
    y0: int
    width: int
    height: int
    threshold: float


def compute_cam(trace: ForwardTrace, head_weights: Tensor, class_index: int,
                source_size: tuple[int, int] | None = None) -> Heatmap:
    """Weighted sum of feature maps by the class column of the GAP classifier.

    M(y,x) = sum_k w[k][class] * f_k(y,x), then shifted by -min and scaled
    by 1/(max-min); a constant map yields the all-zero degenerate heatmap.
    """
    maps = trace.final_conv_maps
    if maps.rank != 4 or maps.shape[0] != 1:
        raise ShapeError(f"CAM needs a single-image trace (1,C,h,w), got {maps.shape}")
    if head_weights.rank != 2:
        raise ShapeError(f"head weights must be [C x classes], got {head_weights.shape}")
    c = maps.shape[1]
    if head_weights.shape[0] != c:
        raise CapabilityError(
            f"classifier weights cover {head_weights.shape[0]} channels but the trace has {c}; "
            "class activation mapping requires a GAP-head classifier over the final maps"
        )
    if not 0 <= class_index < head_weights.shape[1]:
        raise ValueError(f"class index {class_index} out of range [0, {head_weights.shape[1]})")
    f = maps.array[0].astype(np.float64)
    w = head_weights.array[:, class_index].astype(np.float64)
    raw = np.tensordot(w, f, axes=(0, 0))
    lo, hi = raw.min(), raw.max()
    h, wd = raw.shape
    size = source_size if source_size is not None else (h, wd)
    if hi == lo:
        return Heatmap(Tensor.zeros((h, wd)), class_index, size, degenerate=True)
    values = Tensor._wrap(((raw - lo) / (hi - lo)).astype(np.float32))
    return Heatmap(values, class_index, size, degenerate=False)


def upsample(h: Heatmap, target: tuple[int, int]) -> Heatmap:
    """Corner-aligned bilinear resize to (H, W); identity when sizes match."""
    sh, sw = h.values.shape
    th, tw = target
    if th < sh or tw < sw:
        raise ShapeError(f"upsample target {target} smaller than source ({sh}, {sw})")
    if (th, tw) == (sh, sw):
        return h
    v = h.values.array.astype(np.float64)

    def positions(src: int, dst: int) -> np.ndarray:
        if dst == 1:
            return np.zeros(1)
        return np.arange(dst) * ((src - 1) / (dst - 1))

    ys = positions(sh, th)
    xs = positions(sw, tw)
    y0 = np.minimum(ys.astype(np.int64), sh - 1)
    x0 = np.minimum(xs.astype(np.int64), sw - 1)
    y1 = np.minimum(y0 + 1, sh - 1)
    x1 = np.minimum(x0 + 1, sw - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = v[y0][:, x0] * (1 - fx) + v[y0][:, x1] * fx
    bot = v[y1][:, x0] * (1 - fx) + v[y1][:, x1] * fx
    out = top * (1 - fy) + bot * fy
    values = Tensor._wrap(np.clip(out, 0.0, 1.0).astype(np.float32))
    return Heatmap(values, h.class_index, h.source_size, h.degenerate)


def _build_colormap() -> np.ndarray:
    t = np.arange(256) / 255.0
    r = np.clip(2 * t - 1, 0, 1)
    g = 1 - np.abs(2 * t - 1)
    b = np.clip(1 - 2 * t, 0, 1)
    return np.stack([r, g, b], axis=1).astype(np.float32)


COLORMAP = _build_colormap()  # 256 RGB rows, blue -> green -> red


def overlay(h: Heatmap, image: Tensor, alpha: float) -> Tensor:
    """Blend the colormapped heatmap over a [3 x H x W] image in [0,1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0,1], got {alpha}")
    if image.rank != 3 or image.shape[0] != 3:
        raise ShapeError(f"image must be [3 x H x W], got {image.shape}")
    if h.values.shape != image.shape[1:]:
        raise ShapeError(
            f"heatmap {h.values.shape} does not cover image {image.shape[1:]}; upsample first"
        )
    idx = (h.values.array.astype(np.float64) * 255 + 0.5).astype(np.int64)
    cm = COLORMAP[np.clip(idx, 0, 255)].transpose(2, 0, 1).astype(np.float64)
    out = (1.0 - alpha) * image.array.astype(np.float64) + alpha * cm
    return Tensor._wrap(np.clip(out, 0.0, 1.0).astype(np.float32))


def bounding_region(h: Heatmap, threshold: float = 0.2) -> BoundingRegion | None:
    """Tight box over cells >= threshold, in source pixels; None when nothing clears it."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    hot = h.values.array >= np.float32(threshold)
    if not hot.any():
        return None
    rows = np.nonzero(hot.any(axis=1))[0]
    cols = np.nonzero(hot.any(axis=0))[0]
    mh, mw = h.values.shape
    src_h, src_w = h.source_size
    y0 = int(rows[0]) * src_h // mh
    y1 = (int(rows[-1]) + 1) * src_h // mh
    x0 = int(cols[0]) * src_w // mw
    x1 = (int(cols[-1]) + 1) * src_w // mw
    return BoundingRegion(x0=x0, y0=y0, width=x1 - x0, height=y1 - y0, threshold=threshold)
