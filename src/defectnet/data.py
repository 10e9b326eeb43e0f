"""Dataset machinery: binary PPM decode/encode, slicing survey photos into
224x224 thumbnails, directory-labelled loading, seeded splitting and
label-preserving augmentation.

Binary PPM (P6) is the raster format: bit-exact, dependency-free, and
hermetic to test. Dataset directories look like
<root>/{deterioration,mould,normal,stain}/*.ppm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DatasetError, PpmParseError
from .labels import LABEL_NAMES
from .tensor import Tensor

TILE = 224


@dataclass(frozen=True)
class RasterImage:
    """8-bit RGB image; pixels are row-major triples."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image dims must be positive, got {self.width}x{self.height}")
        if len(self.pixels) != 3 * self.width * self.height:
            raise ValueError(
                f"pixel buffer holds {len(self.pixels)} bytes, "
                f"need {3 * self.width * self.height}"
            )

    def as_array(self) -> np.ndarray:
        """uint8 view shaped (height, width, 3)."""
        return np.frombuffer(self.pixels, dtype=np.uint8).reshape(self.height, self.width, 3)


def image_to_tensor(img: RasterImage) -> Tensor:
    """[3 x H x W] float32 in [0,1] (divide by 255)."""
    a = img.as_array().astype(np.float32) / np.float32(255.0)
    return Tensor._wrap(np.ascontiguousarray(a.transpose(2, 0, 1)))


def image_from_tensor(t: Tensor) -> RasterImage:
    """Quantize a [3 x H x W] tensor in [0,1] back to 8-bit RGB (round half up)."""
    if t.rank != 3 or t.shape[0] != 3:
        raise ValueError(f"expected [3 x H x W], got {t.shape}")
    a = np.clip(t.array.astype(np.float64), 0.0, 1.0)
    q = np.floor(a * 255.0 + 0.5).astype(np.uint8).transpose(1, 2, 0)
    return RasterImage(t.shape[2], t.shape[1], np.ascontiguousarray(q).tobytes())


# --- PPM (P6) ---------------------------------------------------------------

def _skip_header_space(data: bytes, pos: int) -> int:
    """Advance past whitespace and '#' comment lines."""
    n = len(data)
    while pos < n:
        b = data[pos]
        if b in b" \t\r\n\x0b\x0c":
            pos += 1
        elif b == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    return pos


def _read_header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    pos = _skip_header_space(data, pos)
    start = pos
    while pos < len(data) and data[pos : pos + 1].isdigit():
        pos += 1
    if not 0 < pos - start <= 9 or int(data[start:pos]) == 0:
        raise PpmParseError(f"expected {what} in PPM header: a positive integer "
                            "of at most 9 digits", offset=start)
    return int(data[start:pos]), pos


def decode_ppm(data: bytes) -> RasterImage:
    """Parse a binary P6 stream; trailing bytes past the pixel payload are ignored."""
    if data[:2] != b"P6":
        raise PpmParseError(f"bad magic {data[:2]!r}, expected b'P6'", offset=0)
    width, pos = _read_header_int(data, 2, "width")
    height, pos = _read_header_int(data, pos, "height")
    maxval, pos = _read_header_int(data, pos, "maxval")
    if maxval != 255:
        raise PpmParseError(f"unsupported maxval {maxval}, only 255 is handled", offset=pos)
    if pos >= len(data) or data[pos] not in b" \t\r\n\x0b\x0c":
        raise PpmParseError("missing whitespace after maxval", offset=pos)
    pos += 1
    expected = 3 * width * height
    payload = data[pos : pos + expected]
    if len(payload) < expected:
        raise PpmParseError(
            f"truncated pixel data: expected {expected} bytes, found {len(payload)}",
            offset=pos,
        )
    return RasterImage(width, height, bytes(payload))


def encode_ppm(img: RasterImage) -> bytes:
    return b"P6\n%d %d\n255\n" % (img.width, img.height) + img.pixels


def read_ppm(path) -> RasterImage:
    """Decode a PPM file; a file that cannot be read is a PpmParseError too,
    and every PpmParseError names the file."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise PpmParseError(f"cannot read image {path}: {exc.strerror or exc}", offset=0) from None
    try:
        return decode_ppm(data)
    except PpmParseError as exc:
        raise PpmParseError(f"{path}: {exc.reason}", exc.offset) from None


def write_ppm(path, img: RasterImage) -> None:
    Path(path).write_bytes(encode_ppm(img))


# --- slicing ----------------------------------------------------------------

def slice_image(img: RasterImage, tile: int = TILE) -> list[RasterImage]:
    """Non-overlapping tile grid from the top-left, row-major; ragged
    right/bottom remainders are discarded. Smaller-than-tile images give []."""
    a = img.as_array()
    out = []
    for ty in range(img.height // tile):
        for tx in range(img.width // tile):
            block = a[ty * tile : (ty + 1) * tile, tx * tile : (tx + 1) * tile]
            out.append(RasterImage(tile, tile, np.ascontiguousarray(block).tobytes()))
    return out


# --- labelled datasets ------------------------------------------------------

@dataclass
class LabeledDataset:
    """(image, label-index) pairs over the fixed 4-class vocabulary.

    Items reference either a PPM path (decoded on demand) or an in-memory
    RasterImage; order is deterministic.
    """

    items: list[tuple[object, int]]
    warnings: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)

    def image(self, i: int) -> RasterImage:
        ref = self.items[i][0]
        return ref if isinstance(ref, RasterImage) else read_ppm(ref)

    def label(self, i: int) -> int:
        return self.items[i][1]

    def counts(self) -> list[int]:
        out = [0] * len(LABEL_NAMES)
        for _, lbl in self.items:
            out[lbl] += 1
        return out


def ppm_files(directory) -> list[Path]:
    """The .ppm files anywhere under a directory, lexicographic by path."""
    return sorted(p for p in Path(directory).rglob("*.ppm") if p.is_file())


def load_dataset(root) -> LabeledDataset:
    """Load <root>/<label>/*.ppm for the four labels, lexicographic by path."""
    root = Path(root)
    missing = [name for name in LABEL_NAMES if not (root / name).is_dir()]
    if missing:
        raise DatasetError(
            f"missing label directories under {root}: {', '.join(missing)} "
            f"(expected exactly {', '.join(LABEL_NAMES)})"
        )
    items: list[tuple[object, int]] = []
    warnings = []
    for idx, name in enumerate(LABEL_NAMES):
        files = ppm_files(root / name)
        if not files:
            warnings.append(f"no images for class {name!r}")
        items.extend((p, idx) for p in files)
    if not items:
        raise DatasetError(f"no .ppm images anywhere under {root}")
    return LabeledDataset(items=items, warnings=warnings)


def split(ds: LabeledDataset, val_fraction: float, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded uniform shuffle, then floor(n*fraction) items become validation."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0,1), got {val_fraction}")
    n = len(ds)
    order = np.random.default_rng(seed).permutation(n)
    n_val = int(n * val_fraction)
    val = [ds.items[i] for i in order[:n_val]]
    train = [ds.items[i] for i in order[n_val:]]
    return LabeledDataset(items=train), LabeledDataset(items=val)


# --- augmentation -----------------------------------------------------------

@dataclass(frozen=True)
class AugmentParams:
    """Knobs for the fixed augmentation chain: flips, rotation, shift.

    Defaults (20 degrees, 10% shift, both flips) are conventional; the
    transform list itself is the contract, the magnitudes are tunable.
    """

    rotation_max_deg: float = 20.0
    shift_max_frac: float = 0.1
    allow_hflip: bool = True
    allow_vflip: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rotation_max_deg <= 180.0:
            raise ValueError(f"rotation_max_deg must be in [0,180], got {self.rotation_max_deg}")
        if not 0.0 <= self.shift_max_frac <= 0.5:
            raise ValueError(f"shift_max_frac must be in [0,0.5], got {self.shift_max_frac}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")

    @property
    def disabled(self) -> bool:
        return (self.rotation_max_deg == 0.0 and self.shift_max_frac == 0.0
                and not self.allow_hflip and not self.allow_vflip)


def augment(img: RasterImage, p: AugmentParams, draw: np.random.Generator) -> RasterImage:
    """Apply the chain in fixed order: hflip(0.5), vflip(0.5), rotation about
    the centre, shift by a fraction of each side.

    Every stage is a nearest-neighbour map whose out-of-range sources
    replicate the nearest edge, so the chain is one gather: output indices
    are walked back through shift, rotation, vflip and hflip to source
    indices. Disabled stages draw nothing, so all-zero params make this
    the identity map. The label never changes by construction.
    """
    h, w = img.height, img.width
    flip_x = p.allow_hflip and draw.random() < 0.5
    flip_y = p.allow_vflip and draw.random() < 0.5
    r, f = p.rotation_max_deg, p.shift_max_frac
    theta = np.deg2rad(draw.uniform(-r, r)) if r > 0.0 else None
    shift = (draw.uniform(-f, f) * h, draw.uniform(-f, f) * w) if f > 0.0 else None

    def nearest(src_y, src_x):
        return (np.clip(np.rint(src_y).astype(np.int64), 0, h - 1),
                np.clip(np.rint(src_x).astype(np.int64), 0, w - 1))

    ys, xs = np.indices((h, w))
    if shift is not None:
        ys, xs = nearest(ys - shift[0], xs - shift[1])
    if theta is not None:
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        oy, ox = ys - cy, xs - cx
        ys, xs = nearest(cy - np.sin(theta) * ox + np.cos(theta) * oy,
                         cx + np.cos(theta) * ox + np.sin(theta) * oy)
    if flip_y:
        ys = h - 1 - ys
    if flip_x:
        xs = w - 1 - xs
    return RasterImage(w, h, img.as_array()[ys, xs].tobytes())
