import numpy as np
import pytest

from defectnet.cam import (COLORMAP, BoundingRegion, Heatmap, bounding_region,
                           compute_cam, overlay, upsample)
from defectnet.errors import CapabilityError, ShapeError
from defectnet.model import ForwardTrace
from defectnet.tensor import Tensor


def make_trace(maps):
    a = np.asarray(maps, dtype=np.float32)
    logits = Tensor.zeros((1, 4))
    return ForwardTrace(logits=logits, probs=Tensor.full((1, 4), 0.25),
                        final_conv_maps=Tensor(a))


def normalize(raw):
    lo, hi = raw.min(), raw.max()
    return (raw - lo) / (hi - lo)


class TestComputeCam:
    def test_one_hot_weights_select_channel(self):
        rng = np.random.default_rng(0)
        maps = rng.normal(size=(1, 3, 4, 4))
        w = np.zeros((3, 4), dtype=np.float32)
        w[0, 2] = 1.0
        h = compute_cam(make_trace(maps), Tensor(w), class_index=2)
        want = normalize(maps[0, 0])
        assert np.allclose(h.values.array, want, atol=1e-6)
        assert not h.degenerate
        assert h.values.array.max() == 1.0

    def test_constant_maps_degenerate(self):
        maps = np.full((1, 2, 3, 3), 5.0)
        w = np.ones((2, 4), dtype=np.float32)
        h = compute_cam(make_trace(maps), Tensor(w), class_index=0)
        assert h.degenerate
        assert not h.values.array.any()

    def test_weighted_sum_matches_direct_oracle(self):
        rng = np.random.default_rng(1)
        maps = rng.normal(size=(1, 5, 6, 6))
        w = rng.normal(size=(5, 4)).astype(np.float32)
        h = compute_cam(make_trace(maps), Tensor(w), class_index=3)
        raw = sum(float(w[k, 3]) * maps[0, k] for k in range(5))
        assert np.allclose(h.values.array, normalize(raw), atol=1e-6)

    def test_quadrant_hotspot_localised(self):
        maps = np.zeros((1, 2, 8, 8))
        maps[0, 0, 1, 2] = 3.0  # top-left quadrant feature
        maps[0, 1] = 1.0        # constant distractor channel
        w = np.array([[1.0], [0.0]], dtype=np.float32)
        h = compute_cam(make_trace(maps), Tensor(w), class_index=0)
        arg = np.unravel_index(np.argmax(h.values.array), h.values.shape)
        assert arg == (1, 2)
        assert arg[0] < 4 and arg[1] < 4

    def test_argmax_invariant_under_weight_scaling(self):
        rng = np.random.default_rng(2)
        maps = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(3, 4)).astype(np.float32)
        h1 = compute_cam(make_trace(maps), Tensor(w), 1)
        h2 = compute_cam(make_trace(maps), Tensor(7.5 * w), 1)
        assert np.argmax(h1.values.array) == np.argmax(h2.values.array)

    def test_channel_mismatch_is_capability_error(self):
        maps = np.zeros((1, 3, 4, 4))
        with pytest.raises(CapabilityError):
            compute_cam(make_trace(maps), Tensor.zeros((8, 4)), 0)

    def test_class_index_out_of_range(self):
        maps = np.zeros((1, 2, 4, 4))
        with pytest.raises(ValueError, match="class index"):
            compute_cam(make_trace(maps), Tensor.zeros((2, 4)), 4)


class TestUpsample:
    def test_same_size_is_identity(self):
        h = Heatmap(Tensor([[0.0, 1.0], [0.5, 0.25]]), 0, (2, 2))
        up = upsample(h, (2, 2))
        assert up.values is h.values

    def test_1x1_becomes_constant(self):
        h = Heatmap(Tensor([[0.5]]), 0, (4, 4))
        up = upsample(h, (3, 3))
        assert np.allclose(up.values.array, 0.5)

    def test_2x2_to_2x4_hand_oracle(self):
        h = Heatmap(Tensor([[0.0, 1.0], [0.0, 1.0]]), 0, (2, 4))
        up = upsample(h, (2, 4))
        want = np.array([[0.0, 1 / 3, 2 / 3, 1.0]] * 2, dtype=np.float32)
        assert np.allclose(up.values.array, want, atol=1e-7)

    def test_corners_preserved_exactly(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0, 1, (3, 3)).astype(np.float32)
        v[0, 0], v[-1, -1] = v.max(), v.min()
        h = Heatmap(Tensor(v), 0, (9, 9))
        up = upsample(h, (9, 9))
        assert up.values[0, 0] == float(v[0, 0])
        assert up.values[8, 8] == float(v[-1, -1])

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(4)
        h = Heatmap(Tensor(rng.uniform(0, 1, (4, 4)).astype(np.float32)), 0, (16, 16))
        up = upsample(h, (13, 17))
        assert up.values.array.min() >= 0.0
        assert up.values.array.max() <= 1.0

    def test_smaller_target_rejected(self):
        h = Heatmap(Tensor.zeros((4, 4)), 0, (4, 4))
        with pytest.raises(ShapeError):
            upsample(h, (3, 4))


class TestOverlay:
    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(5)
        img = Tensor(rng.uniform(0, 1, (3, 4, 4)).astype(np.float32))
        h = Heatmap(Tensor(rng.uniform(0, 1, (4, 4)).astype(np.float32)), 0, (4, 4))
        out = overlay(h, img, alpha=0.0)
        assert np.array_equal(out.array, img.array)

    def test_alpha_one_is_pure_colormap(self):
        img = Tensor.full((3, 2, 2), 0.3)
        h = Heatmap(Tensor([[0.0, 1.0], [0.5, 0.25]]), 0, (2, 2))
        out = overlay(h, img, alpha=1.0)
        for y in range(2):
            for x in range(2):
                want = COLORMAP[int(h.values[y, x] * 255 + 0.5)]
                assert np.allclose(out.array[:, y, x], want, atol=1e-7)

    def test_half_alpha_blend_on_zero_heatmap(self):
        img = Tensor.full((3, 2, 2), 0.5)
        h = Heatmap(Tensor.zeros((2, 2)), 0, (2, 2), degenerate=True)
        out = overlay(h, img, alpha=0.5)
        blue = COLORMAP[0]  # (0, 0, 1)
        want = [0.5 * 0.5 + 0.5 * c for c in blue]
        assert np.allclose(out.array[:, 0, 0], want, atol=1e-7)

    def test_colormap_endpoints(self):
        assert COLORMAP[0].tolist() == [0.0, 0.0, 1.0]  # blue
        assert COLORMAP[255].tolist() == [1.0, 0.0, 0.0]  # red
        g = COLORMAP[128]  # the entry overlay picks for 0.5
        assert g[1] > 0.98 and g[0] < 0.02
        assert COLORMAP.shape == (256, 3)

    def test_size_mismatch_rejected(self):
        h = Heatmap(Tensor.zeros((2, 2)), 0, (4, 4))
        with pytest.raises(ShapeError, match="upsample"):
            overlay(h, Tensor.zeros((3, 4, 4)), 0.5)


class TestBoundingRegion:
    def test_single_hot_cell_back_projects_to_block(self):
        v = np.zeros((7, 7), dtype=np.float32)
        v[2, 3] = 1.0
        h = Heatmap(Tensor(v), 0, (224, 224))
        r = bounding_region(h, 0.5)
        assert r == BoundingRegion(x0=96, y0=64, width=32, height=32, threshold=0.5)

    def test_degenerate_map_is_empty(self):
        h = Heatmap(Tensor.zeros((4, 4)), 0, (16, 16), degenerate=True)
        assert bounding_region(h, 0.2) is None

    def test_opposite_corners_span_full_map(self):
        v = np.zeros((4, 4), dtype=np.float32)
        v[0, 0] = 1.0
        v[3, 3] = 1.0
        h = Heatmap(Tensor(v), 0, (16, 16))
        r = bounding_region(h, 0.5)
        assert (r.x0, r.y0, r.width, r.height) == (0, 0, 16, 16)

    def test_region_contains_argmax_cell(self):
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(5, 5))
        v = normalize(raw).astype(np.float32)
        h = Heatmap(Tensor(v), 0, (20, 20))
        r = bounding_region(h, 0.3)
        ay, ax = np.unravel_index(np.argmax(v), v.shape)
        assert r.y0 <= ay * 4 and ay * 4 + 4 <= r.y0 + r.height
        assert r.x0 <= ax * 4 and ax * 4 + 4 <= r.x0 + r.width

    def test_threshold_validation(self):
        h = Heatmap(Tensor.zeros((2, 2)), 0, (2, 2))
        with pytest.raises(ValueError):
            bounding_region(h, 0.0)
        with pytest.raises(ValueError):
            bounding_region(h, 1.0)
