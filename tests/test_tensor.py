import numpy as np
import pytest

from defectnet import nn
from defectnet.errors import ShapeError
from defectnet.tensor import Tensor, _mm64


def triple_loop_matmul(a, b):
    """Reference multiply: plain nested loops, 64-bit accumulate, round to 32-bit."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float32)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(a[i, p]) * float(b[p, j])
            out[i, j] = np.float32(acc)
    return out


class TestTensorType:
    def test_construction_and_shape(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.rank == 2
        assert t.size == 4

    def test_flat_data_length_matches_shape(self):
        t = Tensor(np.arange(24, dtype=np.float32), shape=(2, 3, 4))
        assert len(t.flat) == 24

    def test_rejects_rank_zero(self):
        with pytest.raises(ShapeError):
            Tensor(5.0)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0, 3), dtype=np.float32))

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.array[0] = 9.0

    def test_multi_index_access(self):
        t = Tensor(np.arange(6, dtype=np.float32), shape=(2, 3))
        assert t[1, 2] == 5.0

    def test_flat_offset_is_row_major(self):
        t = Tensor(np.arange(24, dtype=np.float32), shape=(2, 3, 4))
        for off in range(24):
            assert t[np.unravel_index(off, t.shape)] == float(off)


class TestMatmul:
    def test_identity(self):
        eye = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        m = np.array([[5.0, 7.0], [1.0, 2.0]], dtype=np.float32)
        assert _mm64(eye, m).tolist() == [[5.0, 7.0], [1.0, 2.0]]

    def test_zeros_annihilate(self):
        z = np.zeros((3, 4), dtype=np.float32)
        rng = np.random.default_rng(7)
        b = rng.normal(size=(4, 2)).astype(np.float32)
        assert _mm64(z, b).tolist() == [[0.0, 0.0]] * 3

    def test_hand_computed_case(self):
        a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32)
        b = np.array([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]], dtype=np.float32)
        out = _mm64(a, b)
        assert out.dtype == np.float32
        assert out.tolist() == [[58.0, 64.0], [139.0, 154.0]]

    def test_matches_triple_loop_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = rng.integers(-9, 10, size=(2, 3)).astype(np.float32)
            b = rng.integers(-9, 10, size=(3, 2)).astype(np.float32)
            assert np.array_equal(_mm64(a, b), triple_loop_matmul(a, b))

    def test_shape_mismatch_names_both_shapes(self):
        # the rank-2 product of the dense layer checks its operands before _mm64
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            nn.dense_forward(Tensor.zeros((2, 3)), Tensor.zeros((2, 2)), Tensor.zeros((2,)))

    def test_integer_associativity_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.integers(-5, 6, size=(2, 3)).astype(np.float32)
        b = rng.integers(-5, 6, size=(3, 4)).astype(np.float32)
        c = rng.integers(-5, 6, size=(4, 2)).astype(np.float32)
        assert np.array_equal(_mm64(_mm64(a, b), c), _mm64(a, _mm64(b, c)))

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 7)).astype(np.float32)
        b = rng.normal(size=(7, 3)).astype(np.float32)
        assert np.array_equal(_mm64(a, b), _mm64(a, b))
