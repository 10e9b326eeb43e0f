import naive_augment
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from synth_data import from_float, solid_image

from defectnet.data import (AugmentParams, LabeledDataset, RasterImage, augment,
                            decode_ppm, encode_ppm, image_from_tensor, image_to_tensor,
                            load_dataset, slice_image, split)
from defectnet.errors import DatasetError, PpmParseError
from defectnet.labels import LABEL_NAMES


def random_image(rng, w, h):
    return RasterImage(w, h, rng.integers(0, 256, size=3 * w * h, dtype=np.uint8).tobytes())


class TestPpm:
    def test_minimal_white_pixel(self):
        img = decode_ppm(b"P6\n1 1\n255\n\xff\xff\xff")
        assert (img.width, img.height) == (1, 1)
        assert img.pixels == b"\xff\xff\xff"

    def test_encode_header_format(self):
        img = RasterImage(2, 1, b"\x01\x02\x03\x04\x05\x06")
        assert encode_ppm(img) == b"P6\n2 1\n255\n\x01\x02\x03\x04\x05\x06"

    def test_roundtrip_fixed(self):
        rng = np.random.default_rng(0)
        img = random_image(rng, 5, 3)
        assert decode_ppm(encode_ppm(img)) == img

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, w, h, seed):
        img = random_image(np.random.default_rng(seed), w, h)
        assert decode_ppm(encode_ppm(img)) == img

    def test_bad_magic_offset_zero(self):
        with pytest.raises(PpmParseError, match="magic") as e:
            decode_ppm(b"P5\n1 1\n255\n\x00")
        assert e.value.offset == 0

    def test_truncated_payload_names_byte_counts(self):
        # header promises 4 pixels (12 bytes), only 2 pixels present
        with pytest.raises(PpmParseError, match="expected 12 bytes, found 6"):
            decode_ppm(b"P6\n2 2\n255\n" + b"\x00" * 6)

    def test_comments_in_header(self):
        img = decode_ppm(b"P6\n# made by hand\n1 1\n255\n\x01\x02\x03")
        assert img.pixels == b"\x01\x02\x03"

    def test_unsupported_maxval(self):
        with pytest.raises(PpmParseError, match="maxval"):
            decode_ppm(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")

    def test_missing_header_field(self):
        with pytest.raises(PpmParseError, match="height"):
            decode_ppm(b"P6\n1")


class TestTensorBridge:
    def test_to_tensor_scales_into_unit_interval(self):
        img = RasterImage(1, 1, bytes([0, 128, 255]))
        t = image_to_tensor(img)
        assert t.shape == (3, 1, 1)
        assert np.allclose(t.array[:, 0, 0], [0.0, 128 / 255, 1.0])

    def test_roundtrip_through_tensor(self):
        rng = np.random.default_rng(1)
        img = random_image(rng, 6, 4)
        assert image_from_tensor(image_to_tensor(img)) == img


class TestSliceImage:
    def test_672x448_gives_six_tiles(self):
        rng = np.random.default_rng(2)
        img = random_image(rng, 672, 448)
        tiles = slice_image(img)
        assert len(tiles) == 6
        assert all(t.width == 224 and t.height == 224 for t in tiles)

    def test_exact_tile_passthrough(self):
        rng = np.random.default_rng(3)
        img = random_image(rng, 224, 224)
        tiles = slice_image(img)
        assert tiles == [img]

    def test_remainder_discarded(self):
        rng = np.random.default_rng(4)
        img = random_image(rng, 300, 250)
        tiles = slice_image(img)
        assert len(tiles) == 1
        want = img.as_array()[:224, :224]
        assert np.array_equal(tiles[0].as_array(), want)

    def test_smaller_than_tile_is_empty(self):
        assert slice_image(solid_image(64, (1, 2, 3))) == []

    def test_tiles_match_source_regions(self):
        rng = np.random.default_rng(5)
        img = random_image(rng, 10, 7)
        tiles = slice_image(img, tile=3)
        assert len(tiles) == (10 // 3) * (7 // 3)
        a = img.as_array()
        k = 0
        for ty in range(2):
            for tx in range(3):
                want = a[ty * 3 : ty * 3 + 3, tx * 3 : tx * 3 + 3]
                assert np.array_equal(tiles[k].as_array(), want)
                k += 1


class TestLoadDataset:
    def _write_tree(self, root, counts):
        for name, n in counts.items():
            d = root / name
            d.mkdir(parents=True)
            for i in range(n):
                (d / f"{i:04d}.ppm").write_bytes(encode_ppm(solid_image(1, (9, 9, 9))))

    def test_paper_counts_total_1890(self, tmp_path):
        counts = {"mould": 534, "stain": 449, "deterioration": 411, "normal": 496}
        self._write_tree(tmp_path, counts)
        ds = load_dataset(tmp_path)
        assert len(ds) == 1890
        assert ds.counts() == [411, 534, 496, 449]  # label order
        assert ds.warnings == []

    def test_empty_class_warns(self, tmp_path):
        self._write_tree(tmp_path, {"mould": 2, "deterioration": 1, "normal": 1, "stain": 0})
        ds = load_dataset(tmp_path)
        assert ds.counts()[3] == 0
        assert any("stain" in w for w in ds.warnings)

    def test_missing_label_dir_lists_expected(self, tmp_path):
        self._write_tree(tmp_path, {"mould": 1, "normal": 1, "stain": 1})
        with pytest.raises(DatasetError, match="deterioration"):
            load_dataset(tmp_path)

    def test_zero_images_rejected(self, tmp_path):
        self._write_tree(tmp_path, {n: 0 for n in LABEL_NAMES})
        with pytest.raises(DatasetError, match="no .ppm images"):
            load_dataset(tmp_path)

    def test_order_deterministic(self, tmp_path):
        self._write_tree(tmp_path, {"mould": 5, "deterioration": 3, "normal": 2, "stain": 4})
        a = load_dataset(tmp_path)
        b = load_dataset(tmp_path)
        assert [(str(p), l) for p, l in a.items] == [(str(p), l) for p, l in b.items]


class TestSplit:
    def _dataset(self, n):
        img = solid_image(1, (0, 0, 0))
        return LabeledDataset(items=[(img, i % 4) for i in range(n)])

    def test_floor_rule_1890(self):
        train, val = split(self._dataset(1890), 0.2, seed=0)
        assert len(val) == 378  # floor(1890 * 0.2); the printed 382 is not derivable
        assert len(train) == 1512

    def test_half_of_ten(self):
        ds = LabeledDataset(items=[(solid_image(1, (i, 0, 0)), i % 4) for i in range(10)])
        train, val = split(ds, 0.5, seed=1)
        assert len(train) == len(val) == 5
        key = lambda item: item[0].pixels
        assert sorted(train.items + val.items, key=key) == sorted(ds.items, key=key)

    def test_deterministic_and_seed_sensitive(self):
        ds = LabeledDataset(items=[(solid_image(1, (i % 256, 0, 0)), i % 4) for i in range(100)])
        t1, v1 = split(ds, 0.2, seed=7)
        t2, v2 = split(ds, 0.2, seed=7)
        t3, v3 = split(ds, 0.2, seed=8)
        assert [i[0].pixels for i in v1.items] == [i[0].pixels for i in v2.items]
        assert [i[0].pixels for i in v1.items] != [i[0].pixels for i in v3.items]

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split(self._dataset(10), 0.0, seed=0)
        with pytest.raises(ValueError):
            split(self._dataset(10), 1.0, seed=0)

    @given(st.integers(min_value=2, max_value=60),
           st.floats(min_value=0.05, max_value=0.95),
           st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, n, frac, seed):
        ds = LabeledDataset(items=[(solid_image(1, (i % 256, i // 256, 0)), i % 4)
                                   for i in range(n)])
        train, val = split(ds, frac, seed)
        assert len(val) == int(n * frac)
        assert len(train) + len(val) == n
        key = lambda item: item[0].pixels
        assert sorted(train.items + val.items, key=key) == sorted(ds.items, key=key)


class FixedDraw:
    """Stand-in for the augmentation draw: every random() and uniform() call
    returns the same value."""

    def __init__(self, random=0.0, uniform=0.0):
        self._random, self._uniform = random, uniform

    def random(self):
        return self._random

    def uniform(self, low, high):
        return self._uniform


def rotation_only(max_deg):
    return AugmentParams(rotation_max_deg=max_deg, shift_max_frac=0,
                         allow_hflip=False, allow_vflip=False)


class TestAugment:
    def _checker(self):
        a = np.zeros((2, 2, 3))
        a[0, 0] = (1, 0, 0)
        a[0, 1] = (0, 1, 0)
        a[1, 0] = (0, 0, 1)
        a[1, 1] = (1, 1, 0)
        return from_float(a)

    def test_all_disabled_is_identity(self):
        p = AugmentParams(rotation_max_deg=0, shift_max_frac=0,
                          allow_hflip=False, allow_vflip=False)
        assert p.disabled
        img = self._checker()
        assert augment(img, p, np.random.default_rng((0, 0))) == img

    def test_hflip_involution(self):
        img = self._checker()
        hflip = AugmentParams(rotation_max_deg=0, shift_max_frac=0, allow_vflip=False)
        vflip = AugmentParams(rotation_max_deg=0, shift_max_frac=0, allow_hflip=False)
        for p, flipped in ((hflip, img.as_array()[:, ::-1]), (vflip, img.as_array()[::-1])):
            once = augment(img, p, FixedDraw(random=0.0))
            assert np.array_equal(once.as_array(), flipped)
            assert augment(once, p, FixedDraw(random=0.0)) == img

    def test_rotation_180_reverses_row_major(self):
        img = self._checker()
        rot = augment(img, rotation_only(180.0), FixedDraw(uniform=180.0))
        a, b = img.as_array(), rot.as_array()
        assert np.array_equal(b, a[::-1, ::-1])

    def test_rotation_90_is_exact_permutation(self):
        img = self._checker()
        rot = augment(img, rotation_only(90.0), FixedDraw(uniform=90.0))
        assert rot != img
        assert sorted(rot.as_array().reshape(-1, 3).tolist()) == \
            sorted(img.as_array().reshape(-1, 3).tolist())

    def test_shift_replicates_edges(self):
        img = solid_image(4, (10, 20, 30))
        out = augment(img, rotation_only(33.0), FixedDraw(uniform=33.0))
        assert out == img  # solid image is rotation-invariant under edge replication

    def test_dimensions_never_change(self):
        rng = np.random.default_rng(6)
        img = random_image(rng, 9, 7)
        p = AugmentParams(rotation_max_deg=25, shift_max_frac=0.3,
                          allow_hflip=True, allow_vflip=True, rng_seed=3)
        for i in range(10):
            out = augment(img, p, np.random.default_rng((p.rng_seed, i)))
            assert (out.width, out.height) == (img.width, img.height)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40),
           st.sampled_from([0.0, 5.0, 20.0, 90.0, 180.0]),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
           st.booleans(), st.booleans(), st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(1, 1, 180.0, 0.5, True, True, 0)
    @example(1, 9, 90.0, 0.3, True, False, 1)
    @example(9, 1, 20.0, 0.0, False, True, 2)
    @settings(max_examples=1000, deadline=None)
    def test_matches_stage_by_stage_oracle(self, w, h, rot, shift, hf, vf, seed):
        img = random_image(np.random.default_rng(seed), w, h)
        p = AugmentParams(rotation_max_deg=rot, shift_max_frac=shift,
                          allow_hflip=hf, allow_vflip=vf, rng_seed=seed)
        got_draw, want_draw = np.random.default_rng((seed, 1)), np.random.default_rng((seed, 1))
        assert augment(img, p, got_draw) == naive_augment.augment(img, p, want_draw)
        assert got_draw.random() == want_draw.random()  # same number of draws

    def test_per_item_streams_are_schedule_independent(self):
        img = self._checker()
        p = AugmentParams(rng_seed=5)
        a = augment(img, p, np.random.default_rng((5, 17)))
        b = augment(img, p, np.random.default_rng((5, 17)))
        assert a == b
