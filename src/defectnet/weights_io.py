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
    """Read n bytes with readinto into one buffer. It starts at most _CHUNK
    long and doubles only when full, so that a length field larger than the
    archive fails as truncation instead of allocating n bytes first."""
    buf = bytearray(min(n, _CHUNK))
    got = 0
    while got < n:
        if got == len(buf):
            buf += bytes(min(n - got, got))
        with memoryview(buf) as view:
            read = source.readinto(view[got:])
        if not read:
            raise ArchiveError(f"truncated archive while reading {context} "
                               f"(wanted {n} bytes, got {got})")
        got += read
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
        a = np.frombuffer(payload, dtype="<f4").astype(np.float32, copy=False).reshape(dims)
        if not np.isfinite(a).all():
            raise ArchiveError(f"{where} holds non-finite values")
        params[name] = Tensor._wrap(a)
    return params


POLICIES = ("strict", "skip-missing")


def check_strict(shapes: dict[str, tuple[int, ...]], params: dict[str, Tensor]) -> None:
    """Raise ArchiveError unless the archive carries exactly the named
    parameters, each with its shape."""
    missing = [n for n in shapes if n not in params]
    if missing:
        raise ArchiveError(f"archive is missing model parameters: {', '.join(missing)}")
    extra = [n for n in params if n not in shapes]
    if extra:
        raise ArchiveError(f"archive has entries the model lacks: {', '.join(extra)}")
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ArchiveError(
                f"shape mismatch on {name!r}: model {shape} vs archive {params[name].shape}"
            )


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
        check_strict({n: t.shape for n, t in model.params.items()}, params)
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
