"""Bit-exact model parameter serialization (DNW1 format).

Layout, all integers little-endian:

    magic "DNW1" | u32 entry count | entries...
    entry: u32 name length | name bytes (UTF-8) | u32 rank | u32 dims... |
           payload (4 bytes per element, IEEE-754 float32 LE)

write(read(...)) and read(write(...)) are bitwise identities. Importing
an archive with a different head (e.g. a 1000-class classifier into a
4-class model) uses the skip-missing policy: entries that match by name
and shape load, everything else keeps its initialization.
"""

from __future__ import annotations

import struct
from dataclasses import replace
from typing import BinaryIO

import numpy as np

from .errors import ArchiveError
from .model import Model
from .tensor import Tensor

MAGIC = b"DNW1"
FORMAT_VERSION = 1


def write_weights(model: Model, sink: BinaryIO) -> int:
    """Serialize every parameter in model order; returns bytes written."""
    written = 0

    def put(b: bytes):
        nonlocal written
        sink.write(b)
        written += len(b)

    put(MAGIC)
    put(struct.pack("<I", len(model.params)))
    for name, t in model.params.items():
        enc = name.encode("utf-8")
        put(struct.pack("<I", len(enc)))
        put(enc)
        put(struct.pack("<I", t.rank))
        put(struct.pack(f"<{t.rank}I", *t.shape))
        put(np.ascontiguousarray(t.array, dtype="<f4").tobytes())
    return written


_CHUNK = 1 << 24


def _read_exact(source: BinaryIO, n: int, context: str) -> bytearray:
    """Read n bytes in bounded chunks, so that a length field larger than
    the archive fails as truncation instead of allocating n bytes first."""
    buf = bytearray()
    while len(buf) < n:
        b = source.read(min(n - len(buf), _CHUNK))
        if not b:
            raise ArchiveError(f"truncated archive while reading {context} "
                               f"(wanted {n} bytes, got {len(buf)})")
        buf += b
    return buf


def read_weights(source: BinaryIO) -> dict[str, Tensor]:
    """Parse an archive back into an ordered name -> Tensor map."""
    magic = source.read(4)
    if magic != MAGIC:
        raise ArchiveError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (count,) = struct.unpack("<I", _read_exact(source, 4, "entry count"))
    params: dict[str, Tensor] = {}
    for i in range(count):
        where = f"entry {i}"
        (name_len,) = struct.unpack("<I", _read_exact(source, 4, f"{where} name length"))
        try:
            name = _read_exact(source, name_len, f"{where} name").decode("utf-8")
        except UnicodeDecodeError:
            raise ArchiveError(f"{where} name is not UTF-8") from None
        where = f"entry {i} ({name!r})"
        if name in params:
            raise ArchiveError(f"duplicate entry name {name!r}")
        (rank,) = struct.unpack("<I", _read_exact(source, 4, f"{where} rank"))
        if rank == 0:
            raise ArchiveError(f"{where} has rank 0")
        dims = struct.unpack(f"<{rank}I", _read_exact(source, 4 * rank, f"{where} dims"))
        if any(d < 1 for d in dims):
            raise ArchiveError(f"{where} has a zero dimension: {dims}")
        n_elem = 1
        for d in dims:
            n_elem *= d
        payload = _read_exact(source, 4 * n_elem, f"{where} payload")
        a = np.frombuffer(payload, dtype="<f4").astype(np.float32).reshape(dims)
        if not np.isfinite(a).all():
            raise ArchiveError(f"{where} holds non-finite values")
        params[name] = Tensor._wrap(np.ascontiguousarray(a))
    return params


POLICIES = ("strict", "skip-missing")


def load_into(model: Model, params: dict[str, Tensor], policy: str = "strict") -> Model:
    """Copy archive values into a model.

    strict: the archive and model must carry exactly the same names with
    the same shapes. skip-missing: entries matching by name and shape
    load; every other model parameter keeps its current value (how a
    differently-headed archive initializes a re-headed model).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; use 'strict' or 'skip-missing'")
    if policy == "strict":
        missing = [n for n in model.params if n not in params]
        if missing:
            raise ArchiveError(f"archive is missing model parameters: {', '.join(missing)}")
        extra = [n for n in params if n not in model.params]
        if extra:
            raise ArchiveError(f"archive has entries the model lacks: {', '.join(extra)}")
        for name, t in model.params.items():
            if params[name].shape != t.shape:
                raise ArchiveError(
                    f"shape mismatch on {name!r}: model {t.shape} vs archive {params[name].shape}"
                )
        new_params = {name: params[name] for name in model.params}
    else:
        new_params = {}
        for name, t in model.params.items():
            src = params.get(name)
            if src is not None and src.shape == t.shape:
                new_params[name] = src
            else:
                new_params[name] = t
    return replace(model, params=new_params, trainable=dict(model.trainable))
