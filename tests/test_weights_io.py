import io
from dataclasses import replace

import numpy as np
import pytest

from defectnet.errors import ArchiveError
from defectnet.model import ArchSpec, GapHead, arch_preset, build, param_block, replace_head
from defectnet.tensor import Tensor
from defectnet.weights_io import load_into, read_weights, write_weights

TOY = ArchSpec(((1, 4),), GapHead(), num_classes=4, in_channels=3, input_size=8)


def params_only(params):
    """A bare Model-shaped carrier for serializing arbitrary maps."""
    m = build(TOY, seed=0)
    return replace(m, params=params, trainable={n: True for n in params})


def roundtrip(model):
    buf = io.BytesIO()
    write_weights(model, buf)
    buf.seek(0)
    return read_weights(buf)


class TestWriteFormat:
    def test_empty_map_is_eight_bytes(self):
        buf = io.BytesIO()
        n = write_weights(params_only({}), buf)
        assert n == 8
        assert buf.getvalue() == b"DNW1\x00\x00\x00\x00"

    def test_single_entry_hand_encoded(self):
        buf = io.BytesIO()
        n = write_weights(params_only({"b": Tensor([1.0, 2.0])}), buf)
        want = (b"DNW1"
                + b"\x01\x00\x00\x00"          # one entry
                + b"\x01\x00\x00\x00" + b"b"   # name
                + b"\x01\x00\x00\x00"          # rank 1
                + b"\x02\x00\x00\x00"          # dim 2
                + b"\x00\x00\x80\x3f"          # 1.0f LE
                + b"\x00\x00\x00\x40")         # 2.0f LE
        assert n == 29
        assert buf.getvalue() == want

    def test_write_deterministic(self):
        m = build(TOY, seed=3)
        a, b = io.BytesIO(), io.BytesIO()
        write_weights(m, a)
        write_weights(m, b)
        assert a.getvalue() == b.getvalue()

    def test_archive_size_matches_output(self):
        m = build(arch_preset("paper-vgg16"), seed=1)
        buf = io.BytesIO()
        n = write_weights(m, buf)
        assert n == len(buf.getvalue())


class TestReadErrors:
    def test_bad_magic(self):
        with pytest.raises(ArchiveError, match="magic"):
            read_weights(io.BytesIO(b"DNWX\x00\x00\x00\x00"))

    def test_truncated_payload_names_entry(self):
        buf = io.BytesIO()
        write_weights(params_only({"conv1.w": Tensor(np.ones((2, 2), np.float32))}), buf)
        data = buf.getvalue()[:-4]
        with pytest.raises(ArchiveError, match=r"truncate.*conv1\.w.*payload"):
            read_weights(io.BytesIO(data))

    def test_truncated_header(self):
        with pytest.raises(ArchiveError, match="entry count"):
            read_weights(io.BytesIO(b"DNW1\x00"))

    def test_duplicate_name_cited(self):
        entry = (b"\x01\x00\x00\x00" + b"w"
                 + b"\x01\x00\x00\x00" + b"\x01\x00\x00\x00"
                 + b"\x00\x00\x80\x3f")
        raw = b"DNW1" + b"\x02\x00\x00\x00" + entry + entry
        with pytest.raises(ArchiveError, match="duplicate.*'w'"):
            read_weights(io.BytesIO(raw))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_entry(self, bad):
        w = np.ones((2, 3), np.float32)
        w[1, 2] = bad
        buf = io.BytesIO()
        write_weights(params_only({"block1.conv1.w": Tensor(w)}), buf)
        with pytest.raises(ArchiveError, match=r"'block1\.conv1\.w'.*non-finite"):
            read_weights(io.BytesIO(buf.getvalue()))

    def test_undecodable_name(self):
        raw = b"DNW1" + b"\x01\x00\x00\x00" + b"\x02\x00\x00\x00" + b"\xff\xfe"
        with pytest.raises(ArchiveError, match="entry 0 name is not UTF-8"):
            read_weights(io.BytesIO(raw))

    @pytest.mark.parametrize("field, tail", [
        ("name", b"\xff\xff\xff\x7f"),
        ("dims", b"\x01\x00\x00\x00a" + b"\xff\xff\xff\x3f"),
        ("payload", b"\x01\x00\x00\x00a" + b"\x02\x00\x00\x00" + b"\xa0\x86\x01\x00" * 2),
    ])
    def test_oversized_length_is_truncation_not_allocation(self, field, tail):
        class CappedReads(io.BytesIO):
            def read(self, n=-1):
                assert 0 <= n <= 1 << 24, f"asked for {n} bytes at once"
                return super().read(n)

        # a 25-byte archive declaring a 100000 x 100000 entry, and kin
        with pytest.raises(ArchiveError, match=f"truncated.*{field}"):
            read_weights(CappedReads(b"DNW1" + b"\x01\x00\x00\x00" + tail))


class TestRoundTrip:
    def test_paper_vgg16_bitwise(self):
        m = build(arch_preset("paper-vgg16"), seed=5)
        got = roundtrip(m)
        assert list(got) == list(m.params)
        for name in m.params:
            assert np.array_equal(got[name].array, m.params[name].array), name

    def test_random_maps_bitwise(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            rank = int(rng.integers(1, 5))
            shape = tuple(int(d) for d in rng.integers(1, 5, size=rank))
            params = {f"t{trial}.{i}": Tensor(rng.normal(size=shape).astype(np.float32))
                      for i in range(int(rng.integers(1, 4)))}
            got = roundtrip(params_only(params))
            assert list(got) == list(params)
            for name in params:
                assert np.array_equal(got[name].array, params[name].array)


class TestLoadInto:
    def test_strict_roundtrip_noop(self):
        m = build(TOY, seed=9)
        loaded = load_into(m, roundtrip(m), policy="strict")
        for name in m.params:
            assert np.array_equal(loaded.params[name].array, m.params[name].array)

    def test_strict_then_write_is_byte_identical(self):
        m = build(TOY, seed=11)
        buf = io.BytesIO()
        write_weights(m, buf)
        loaded = load_into(build(TOY, seed=999), read_weights(io.BytesIO(buf.getvalue())),
                           policy="strict")
        buf2 = io.BytesIO()
        write_weights(loaded, buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_strict_missing_param_rejected(self):
        m = build(TOY, seed=0)
        partial = dict(roundtrip(m))
        partial.pop("head.out.b")
        with pytest.raises(ArchiveError, match=r"missing.*head\.out\.b"):
            load_into(m, partial, policy="strict")

    def test_strict_extra_entry_rejected(self):
        m = build(TOY, seed=0)
        extra = dict(roundtrip(m))
        extra["mystery"] = Tensor([1.0])
        with pytest.raises(ArchiveError, match="mystery"):
            load_into(m, extra, policy="strict")

    def test_strict_shape_mismatch_names_param_and_shapes(self):
        m = build(TOY, seed=0)
        bad = dict(roundtrip(m))
        bad["block1.conv1.w"] = Tensor.zeros((2, 3, 3, 3))
        with pytest.raises(ArchiveError, match=r"block1\.conv1\.w.*\(4, 3, 3, 3\).*\(2, 3, 3, 3\)"):
            load_into(m, bad, policy="strict")

    def test_thousand_class_archive_into_four_class_model(self):
        # the transfer-learning entry point: conv blocks load, head keeps its init
        src = build(replace(TOY, num_classes=1000), seed=21)
        archive = roundtrip(src)
        target = replace_head(build(replace(TOY, num_classes=1000), seed=22), 4, seed=23)
        fresh_head = {n: t.array.copy() for n, t in target.params.items()
                      if param_block(n) is None}
        loaded = load_into(target, archive, policy="skip-missing")
        for name in loaded.params:
            if param_block(name) is not None:
                assert np.array_equal(loaded.params[name].array, archive[name].array), name
            else:
                assert np.array_equal(loaded.params[name].array, fresh_head[name]), name

    def test_unknown_policy(self):
        m = build(TOY, seed=0)
        with pytest.raises(ValueError, match="policy"):
            load_into(m, roundtrip(m), policy="lenient")
