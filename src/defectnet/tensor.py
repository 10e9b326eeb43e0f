"""Dense N-dimensional float32 arrays and the kernels everything else builds on.

A Tensor is an immutable row-major float32 array. All kernels are
deterministic: identical inputs give bitwise-identical outputs run to
run. Reductions and matrix products accumulate in 64-bit and round the
result to 32-bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


class Tensor:
    """Immutable dense float32 array; shape non-empty, every dim >= 1."""

    __slots__ = ("_a",)

    def __init__(self, values, shape=None):
        a = np.array(values, dtype=np.float32, order="C")
        if shape is not None:
            a = a.reshape(tuple(shape))
        if a.ndim == 0:
            raise ShapeError("tensor shape must be non-empty (rank >= 1)")
        if any(d < 1 for d in a.shape):
            raise ShapeError(f"every dimension must be >= 1, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Tensor":
        """Take ownership of a freshly created contiguous float32 array."""
        t = object.__new__(cls)
        a.setflags(write=False)
        object.__setattr__(t, "_a", a)
        return t

    @classmethod
    def zeros(cls, shape) -> "Tensor":
        return cls._wrap(np.zeros(tuple(shape), dtype=np.float32))

    @classmethod
    def full(cls, shape, value: float) -> "Tensor":
        return cls._wrap(np.full(tuple(shape), value, dtype=np.float32))

    @property
    def array(self) -> np.ndarray:
        """Read-only float32 ndarray view of the data."""
        return self._a

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def rank(self) -> int:
        return self._a.ndim

    @property
    def size(self) -> int:
        return self._a.size

    @property
    def flat(self) -> np.ndarray:
        """Row-major flat view (length == product of shape)."""
        return self._a.reshape(-1)

    def __getitem__(self, index) -> float:
        if not isinstance(index, tuple):
            index = (index,)
        if len(index) != self.rank:
            raise ShapeError(f"need a full {self.rank}-d index, got {len(index)} components")
        return float(self._a[index])

    def tolist(self):
        return self._a.tolist()

    def __repr__(self):
        return f"Tensor(shape={list(self.shape)})"


def _mm64(a: np.ndarray, b: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Matrix product with 64-bit accumulation, rounded to float32 unless
    dtype asks for the float64 product (for a sum that rounds once).

    Operands already in float64 (the conv patch matrices) pass through
    without a copy; float32 operands are widened first.
    """
    return (a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)).astype(dtype, copy=False)
