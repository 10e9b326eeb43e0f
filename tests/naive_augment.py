"""Stage-by-stage reference for `defectnet.data.augment`.

Each stage of the augmentation chain builds its own image: hflip, vflip,
rotation about the centre and shift, each a nearest-neighbour gather with
edge clamping. `augment` must equal this chain byte for byte, with the
same random draws in the same order.
"""

import numpy as np

from defectnet.data import AugmentParams, RasterImage


def hflip(img: RasterImage) -> RasterImage:
    a = img.as_array()[:, ::-1]
    return RasterImage(img.width, img.height, np.ascontiguousarray(a).tobytes())


def vflip(img: RasterImage) -> RasterImage:
    a = img.as_array()[::-1]
    return RasterImage(img.width, img.height, np.ascontiguousarray(a).tobytes())


def _resample_nearest(img: RasterImage, src_y: np.ndarray, src_x: np.ndarray) -> RasterImage:
    """Gather with nearest-neighbor rounding; out-of-range clamps to the edge."""
    h, w = img.height, img.width
    yi = np.clip(np.rint(src_y).astype(np.int64), 0, h - 1)
    xi = np.clip(np.rint(src_x).astype(np.int64), 0, w - 1)
    out = img.as_array()[yi, xi]
    return RasterImage(w, h, np.ascontiguousarray(out).tobytes())


def rotate_nearest(img: RasterImage, degrees: float) -> RasterImage:
    """Rotate about the image center; vacated pixels replicate the nearest edge."""
    theta = np.deg2rad(degrees)
    cy, cx = (img.height - 1) / 2.0, (img.width - 1) / 2.0
    ys, xs = np.indices((img.height, img.width))
    dy, dx = ys - cy, xs - cx
    src_x = cx + np.cos(theta) * dx + np.sin(theta) * dy
    src_y = cy - np.sin(theta) * dx + np.cos(theta) * dy
    return _resample_nearest(img, src_y, src_x)


def shift_nearest(img: RasterImage, dy_frac: float, dx_frac: float) -> RasterImage:
    """Translate by a fraction of each dimension; edges replicate."""
    dy = dy_frac * img.height
    dx = dx_frac * img.width
    ys, xs = np.indices((img.height, img.width))
    return _resample_nearest(img, ys - dy, xs - dx)


def augment(img: RasterImage, p: AugmentParams, draw: np.random.Generator) -> RasterImage:
    """Apply the chain in fixed order: hflip(0.5), vflip(0.5), rotation, shift.

    Disabled stages draw nothing, so all-zero params make this the
    identity map. The label never changes by construction.
    """
    if p.allow_hflip and draw.random() < 0.5:
        img = hflip(img)
    if p.allow_vflip and draw.random() < 0.5:
        img = vflip(img)
    if p.rotation_max_deg > 0.0:
        img = rotate_nearest(img, draw.uniform(-p.rotation_max_deg, p.rotation_max_deg))
    if p.shift_max_frac > 0.0:
        dy = draw.uniform(-p.shift_max_frac, p.shift_max_frac)
        dx = draw.uniform(-p.shift_max_frac, p.shift_max_frac)
        img = shift_nearest(img, dy, dx)
    return img
