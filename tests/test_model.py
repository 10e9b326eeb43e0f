import sys

import numpy as np
import pytest

from defectnet import nn
from defectnet.errors import CapabilityError, DivergenceError, ShapeError
from defectnet.model import (ArchSpec, FcHead, GapHead, arch_preset, build,
                             forward, gap_head_weights, loss_and_gradients,
                             param_block, predict, replace_head,
                             set_trainable, spec_from_params)
from defectnet.tensor import Tensor

TOY = ArchSpec(((1, 4),), GapHead(), num_classes=4, in_channels=3, input_size=8)


def zeroed(model):
    from dataclasses import replace
    return replace(model, params={n: Tensor.zeros(t.shape) for n, t in model.params.items()})


def set_param(model, name, values):
    from dataclasses import replace
    params = dict(model.params)
    params[name] = Tensor(np.asarray(values, dtype=np.float32))
    return replace(model, params=params)


class TestArchSpec:
    def test_paper_preset_head_shape(self):
        m = build(arch_preset("paper-vgg16"), seed=0)
        assert m.params["head.out.w"].shape == (256, 4)
        assert m.params["head.out.b"].shape == (4,)

    def test_canonical_preset_widths(self):
        spec = arch_preset("canonical-vgg16")
        assert [f for _, f in spec.blocks] == [64, 128, 256, 512, 512]

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            arch_preset("vgg-19")

    def test_empty_blocks_rejected(self):
        with pytest.raises(ValueError):
            ArchSpec((), GapHead(), 4)

    def test_zero_classes_rejected(self):
        with pytest.raises(ValueError):
            ArchSpec(((1, 4),), GapHead(), num_classes=0, input_size=8)

    def test_decreasing_filters_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ArchSpec(((1, 8), (1, 4)), GapHead(), 4, input_size=16)

    def test_indivisible_input_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ArchSpec(((1, 4), (1, 8)), GapHead(), 4, input_size=10)


class TestBuild:
    def test_deterministic(self):
        a = build(arch_preset("paper-vgg16"), seed=7)
        b = build(arch_preset("paper-vgg16"), seed=7)
        assert list(a.params) == list(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name].array, b.params[name].array), name

    def test_different_seeds_differ(self):
        a = build(TOY, seed=1)
        b = build(TOY, seed=2)
        assert not np.array_equal(a.params["block1.conv1.w"].array,
                                  b.params["block1.conv1.w"].array)

    def test_all_trainable_initially(self):
        m = build(TOY, seed=0)
        assert all(m.trainable.values())

    def test_toy_geometry(self):
        m = build(TOY, seed=0)
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32))
        trace = forward(m, x)
        assert trace.final_conv_maps.shape == (2, 4, 4, 4)

    def test_fc_head_params(self):
        spec = ArchSpec(((1, 4),), FcHead((16, 8)), num_classes=4, input_size=8)
        m = build(spec, seed=0)
        assert m.params["head.fc1.w"].shape == (4 * 4 * 4, 16)
        assert m.params["head.fc2.w"].shape == (16, 8)
        assert m.params["head.out.w"].shape == (8, 4)


class TestReplaceHead:
    def test_conv_params_bit_unchanged(self):
        m = build(ArchSpec(((1, 4),), GapHead(), num_classes=1000, input_size=8), seed=3)
        m2 = replace_head(m, num_classes=4, seed=9)
        for name in m.params:
            if param_block(name) is not None:
                assert m2.params[name] is m.params[name], name
        assert m2.params["head.out.w"].shape == (4, 4)
        assert m2.spec.num_classes == 4

    def test_idempotent_with_same_seed(self):
        m = build(TOY, seed=0)
        once = replace_head(m, 4, seed=5)
        twice = replace_head(once, 4, seed=5)
        for name in once.params:
            assert np.array_equal(once.params[name].array, twice.params[name].array), name

    def test_forward_shape_after_replacement(self):
        m = replace_head(build(TOY, seed=0), num_classes=4, seed=1)
        x = Tensor(np.zeros((3, 3, 8, 8), dtype=np.float32))
        assert forward(m, x).logits.shape == (3, 4)

    def test_fc_head_redrawn_at_new_width(self):
        spec = ArchSpec(((1, 4),), FcHead((16, 8)), num_classes=1000, input_size=8)
        m = set_trainable(build(spec, seed=3), freeze_up_to_block=1)
        m2 = replace_head(m, num_classes=4, seed=9)
        assert list(m2.params) == list(build(m2.spec, seed=0).params)
        assert m2.params["block1.conv1.w"] is m.params["block1.conv1.w"]
        assert m2.params["head.out.w"].shape == (8, 4)
        assert not np.array_equal(m2.params["head.fc1.w"].array, m.params["head.fc1.w"].array)
        assert [n for n, on in m2.trainable.items() if not on] == ["block1.conv1.w", "block1.conv1.b"]
        x = Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32))
        assert forward(m2, x).logits.shape == (2, 4)

    def test_new_head_trainable(self):
        m = set_trainable(build(TOY, seed=0), freeze_up_to_block=1)
        m2 = replace_head(m, 4, seed=2)
        assert m2.trainable["head.out.w"]
        assert not m2.trainable["block1.conv1.w"]  # conv flags survive


class TestSetTrainable:
    def test_freeze_up_to_four_on_five_blocks(self):
        m = set_trainable(build(arch_preset("paper-vgg16"), seed=0), 4)
        for name, on in m.trainable.items():
            b = param_block(name)
            assert on == (b is None or b == 5), name

    def test_freeze_zero_trains_everything(self):
        m = set_trainable(build(TOY, seed=0), 0)
        assert all(m.trainable.values())

    def test_freeze_all_blocks_leaves_head(self):
        m = set_trainable(build(arch_preset("paper-vgg16"), seed=0), 5)
        trainable = [n for n, on in m.trainable.items() if on]
        assert trainable == ["head.out.w", "head.out.b"]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            set_trainable(build(TOY, seed=0), 2)


class TestForward:
    def test_zero_model_uniform_probs(self):
        m = zeroed(build(TOY, seed=0))
        x = Tensor(np.random.default_rng(1).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32))
        trace = forward(m, x)
        assert not trace.logits.array.any()
        assert np.allclose(trace.probs.array, 0.25)

    def test_identical_images_identical_rows(self):
        m = build(TOY, seed=4)
        one = np.random.default_rng(2).uniform(0, 1, (1, 3, 8, 8)).astype(np.float32)
        batch = Tensor(np.concatenate([one, one]))
        trace = forward(m, batch)
        assert np.array_equal(trace.logits.array[0], trace.logits.array[1])

    def test_paper_vgg16_final_maps_7x7(self):
        m = build(arch_preset("paper-vgg16"), seed=0)
        x = Tensor(np.random.default_rng(3).uniform(0, 1, (1, 3, 224, 224)).astype(np.float32))
        trace = forward(m, x)
        assert trace.final_conv_maps.shape == (1, 256, 7, 7)

    def test_probs_rows_sum_to_one(self):
        m = build(TOY, seed=5)
        x = Tensor(np.random.default_rng(4).uniform(0, 1, (3, 3, 8, 8)).astype(np.float32))
        s = forward(m, x).probs.array.sum(axis=1)
        assert np.max(np.abs(s - 1.0)) < 1e-6

    def test_untaped_forward_holds_at_most_two_activations(self, monkeypatch):
        """Without a tape, a layer's input is freed once its output exists, so
        beside one band of a conv's patch matrix the forward never holds more
        than two activations, here 16-channel 128 px maps, at once."""
        import tracemalloc
        monkeypatch.setattr(nn, "CHUNK_BYTES", 64 << 10)
        spec = ArchSpec(((3, 16),), GapHead(), num_classes=4, in_channels=3, input_size=128)
        m = build(spec, seed=0)
        x = Tensor(np.random.default_rng(7).uniform(0, 1, (2, 3, 128, 128)).astype(np.float32))
        act = 2 * 16 * 128 * 128 * 4
        band = max(8 * k * max(b - a for a, b in nn._bands(2 * 128 * 128, k, 16))
                   for k in (3 * 9, 16 * 9))
        tracemalloc.start()
        try:
            forward(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * act + band + act / 4

    def test_untaped_forward_never_builds_a_block_end_map(self, monkeypatch):
        """A block's last conv pools each band of its output as it writes it,
        so beside its input it holds only the pooled map, the pool's mask and
        one band: never its own full-size output, here a 16-channel 128 px
        map like its input. The first conv's output is that input."""
        import tracemalloc
        monkeypatch.setattr(nn, "CHUNK_BYTES", 64 << 10)
        spec = ArchSpec(((2, 16),), GapHead(), num_classes=4, in_channels=3, input_size=128)
        m = build(spec, seed=0)
        x = Tensor(np.random.default_rng(7).uniform(0, 1, (2, 3, 128, 128)).astype(np.float32))
        act = 2 * 16 * 128 * 128 * 4
        bands, real_patch_bands = [], nn._patch_bands

        def patch_bands(*args):
            for boxes, cols in real_patch_bands(*args):
                bands.append(cols.nbytes)
                yield boxes, cols

        monkeypatch.setattr(nn, "_patch_bands", patch_bands)
        tracemalloc.start()
        try:
            forward(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        band = max(bands)
        # the input, the pooled map, one band, and a quarter of the input
        # for the mask, the band's product and the pool's temporaries
        assert peak < act + act / 4 + band + act / 4

    def test_untaped_forward_peak_does_not_grow_with_the_batch(self, monkeypatch):
        """An untaped forward runs the convs one image at a time, so a 6-image
        forward holds, beyond the peak of a 1-image one, only the batch's
        input and final maps: never six images' activations at once."""
        import tracemalloc
        monkeypatch.setattr(nn, "CHUNK_BYTES", 64 << 10)
        spec = ArchSpec(((3, 16),), GapHead(), num_classes=4, in_channels=3, input_size=128)
        m = build(spec, seed=0)
        x = np.random.default_rng(7).uniform(0, 1, (6, 3, 128, 128)).astype(np.float32)
        act, maps = 16 * 128 * 128 * 4, 6 * 16 * 64 * 64 * 4

        def peak(batch):
            batch = Tensor(batch)
            tracemalloc.start()
            try:
                forward(m, batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(x) < peak(x[:1]) + x.nbytes + maps + act / 4

    def test_batch_forward_equals_each_image_alone(self, monkeypatch):
        """forward runs the convs one image at a time, so the whole batch goes
        through the taped path: the probs of loss_and_gradients on a batch
        equal those of forward on each image, bit for bit, with bands that
        split inside images and cross their edges."""
        monkeypatch.setattr(nn, "CHUNK_BYTES", 64 << 10)
        m = build(arch_preset("paper-vgg16", input_size=64), seed=3)
        x = np.random.default_rng(8).uniform(0, 1, (5, 3, 64, 64)).astype(np.float32)
        probs = loss_and_gradients(m, Tensor(x), [0, 1, 2, 3, 0])[1].array
        for i in range(len(x)):
            one = forward(m, Tensor(x[i : i + 1])).probs.array
            assert probs[i : i + 1].tobytes() == one.tobytes(), i

    @pytest.mark.parametrize("head", [GapHead(), FcHead((8,))], ids=["gap", "fc"])
    def test_sequence_of_images_equals_the_batch(self, head):
        """forward of a generator of CHW images walks them as it does the
        batch's one-image views and runs the head once on all of them: the
        logits, probs and maps are those of the stacked batch, bit for bit."""
        m = build(ArchSpec(((1, 4), (1, 8)), head, 4, 3, 16), seed=2)
        x = np.random.default_rng(4).uniform(0, 1, (3, 3, 16, 16)).astype(np.float32)
        whole = forward(m, Tensor(x))
        seq = forward(m, (Tensor(image) for image in x))
        for field in ("logits", "probs", "final_conv_maps"):
            assert getattr(seq, field).array.tobytes() == getattr(whole, field).array.tobytes()

    def test_wrong_input_shape(self):
        m = build(TOY, seed=0)
        with pytest.raises(ShapeError):
            forward(m, Tensor.zeros((1, 3, 16, 16)))
        with pytest.raises(ShapeError, match="image shape"):
            forward(m, [Tensor.zeros((3, 8, 8)), Tensor.zeros((3, 16, 16))])

    def test_fc_head_forward(self):
        m = build(ArchSpec(((1, 4),), FcHead((16,)), num_classes=4, input_size=8), seed=6)
        x = Tensor(np.random.default_rng(5).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32))
        trace = forward(m, x)
        assert trace.logits.shape == (2, 4)
        assert trace.final_conv_maps.shape == (2, 4, 4, 4)

    def test_overflowing_logits_raise_divergence_error(self):
        # finite weights whose products overflow float32
        from dataclasses import replace
        m = build(TOY, seed=0)
        m = replace(m, params={n: Tensor(t.array * np.float32(1e20)) for n, t in m.params.items()})
        x = Tensor(np.random.default_rng(6).uniform(0, 1, (1, 3, 8, 8)).astype(np.float32))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="the logits are not finite"):
            forward(m, x)


class TestPredict:
    def test_argmax_of_crafted_probs(self):
        # zero conv weights make the logits equal the head bias exactly
        m = zeroed(build(TOY, seed=0))
        m = set_param(m, "head.out.b", np.log([0.1, 0.7, 0.1, 0.1]))
        img = Tensor.full((3, 8, 8), 0.5)
        label, probs = predict(m, img)
        assert label == 1
        assert np.allclose(probs.array, [0.1, 0.7, 0.1, 0.1], atol=1e-6)

    def test_uniform_ties_break_to_lowest_index(self):
        m = zeroed(build(TOY, seed=0))
        label, probs = predict(m, Tensor.full((3, 8, 8), 0.5))
        assert label == 0
        assert np.allclose(probs.array, 0.25)

    def test_decision_invariant_under_logit_scale_and_shift(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(5, 4)).astype(np.float32)
        base = np.argmax(nn.softmax(Tensor(logits)).array, axis=1)
        moved = np.argmax(nn.softmax(Tensor(3.5 * logits + 2.0)).array, axis=1)
        assert np.array_equal(base, moved)


class TestPredictOnTrainedModel:
    def test_holdout_textures_map_to_generating_class(self):
        # a functioning trainer + predict must recover the generating class
        # of clean procedural textures almost perfectly
        from synth_data import texture_dataset
        from defectnet.data import AugmentParams, image_to_tensor
        from defectnet.train import TrainConfig, train

        arch = ArchSpec(((1, 8), (1, 16)), GapHead(), num_classes=4, input_size=64)
        aug_off = AugmentParams(rotation_max_deg=0, shift_max_frac=0,
                                allow_hflip=False, allow_vflip=False)
        train_ds = texture_dataset(24, 64, seed=500)
        val_ds = texture_dataset(8, 64, seed=501)
        cfg = TrainConfig(epochs=2, batch_size=8, steps_per_epoch=45,
                          learning_rate=0.02, momentum=0.9, seed=502)
        m, _ = train(build(arch, seed=503), train_ds, val_ds, aug_off, cfg)

        holdout = texture_dataset(20, 64, seed=504)
        hits = 0
        for i in range(len(holdout)):
            label, _ = predict(m, image_to_tensor(holdout.image(i)))
            hits += label == holdout.label(i)
        assert hits >= 0.95 * len(holdout), f"{hits}/{len(holdout)} correct"


class TestGapHeadWeights:
    def test_gap_model_exposes_weights(self):
        m = build(TOY, seed=0)
        assert gap_head_weights(m).shape == (4, 4)

    def test_fc_model_raises_capability_error(self):
        m = build(ArchSpec(((1, 4),), FcHead((8,)), num_classes=4, input_size=8), seed=0)
        with pytest.raises(CapabilityError):
            gap_head_weights(m)


class TestSpecFromParams:
    def test_roundtrip_gap(self):
        spec = ArchSpec(((2, 4), (1, 8)), GapHead(), num_classes=4, input_size=16)
        m = build(spec, seed=0)
        got = spec_from_params(m.params, input_size=16)
        assert got == spec

    def test_roundtrip_fc(self):
        spec = ArchSpec(((1, 4), (1, 8)), FcHead((16,)), num_classes=4, input_size=16)
        m = build(spec, seed=0)
        got = spec_from_params(m.params)
        assert got == spec

    @pytest.mark.parametrize("name", ["block1.conv1.w", "head.fc1.w", "head.out.w"])
    def test_wrong_rank_is_value_error(self, name):
        m = build(ArchSpec(((1, 4),), FcHead((8,)), num_classes=4, input_size=8), seed=0)
        params = dict(m.params, **{name: Tensor(np.zeros(4, np.float32))})
        with pytest.raises(ValueError, match=f"{name} has rank 1"):
            spec_from_params(params)


class TestLossAndGradients:
    def test_gradients_cover_every_parameter(self):
        m = build(TOY, seed=8)
        x = Tensor(np.random.default_rng(7).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32))
        loss, probs, grads = loss_and_gradients(m, x, [0, 1])
        assert set(grads) == set(m.params)
        for name, g in grads.items():
            assert g.shape == m.params[name].shape, name
        assert loss > 0

    def test_relu_ctx_is_the_array_the_next_layer_receives(self, monkeypatch):
        # a conv with its ReLU, a block's last conv with its pool and ReLU,
        # and a ReLU between two denses: each ReLU's output is kept once, as
        # the ctx of the layer that receives it (a conv, Flatten or Dense),
        # and no conv ctx keeps its own output
        import defectnet.model as model_mod

        received = []

        class Recorder:
            def __init__(self, layer):
                self.layer = layer

            def shapes(self):
                return self.layer.shapes()

            def forward(self, params, x):
                received.append(x.array)
                return self.layer.forward(params, x)

        spec = ArchSpec(((2, 2),), FcHead((3,)), num_classes=3, in_channels=1, input_size=4)
        m = build(spec, seed=9)
        real = model_mod.layers
        monkeypatch.setattr(model_mod, "layers",
                            lambda s: tuple([Recorder(l) for l in part] for part in real(s)))
        tape = []
        x = np.random.default_rng(3).normal(size=(2, 1, 4, 4)).astype(np.float32)
        model_mod._run(m, Tensor(x), tape)
        relus = [k for k, (rec, _) in enumerate(tape) if isinstance(rec.layer, model_mod.Relu)]
        convs = [k for k, (rec, _) in enumerate(tape) if isinstance(rec.layer, model_mod.Conv)]
        pools = [k for k in convs if tape[k][0].layer.pool]
        assert len(tape) == 6 and relus == [4] and convs == [0, 1] and pools == [1]
        for k in relus:
            assert tape[k][1].array is received[k + 1]
        for k in convs:
            assert tape[k][1][0].array is received[k]
            assert all(getattr(c, "array", None) is not received[k + 1] for c in tape[k][1])
        assert isinstance(tape[2][0].layer, model_mod.Flatten)
        assert tape[2][1].array is received[2]

    def test_backward_frees_each_ctx_once_no_layer_below_reads_it(self, monkeypatch):
        """When a layer's backward runs, the ctx arrays of the layers above it
        are gone, save those that a layer at or below it keeps as well (a
        conv's rectified output, pooled at a block's end, is the next layer's
        input)."""
        import weakref

        import defectnet.model as model_mod

        refs: list[list] = []  # per layer in forward order: its ctx arrays
        leaks = []
        spec = ArchSpec(((2, 2), (1, 4)), FcHead((3,)), num_classes=3, in_channels=1,
                        input_size=8)
        m = build(spec, seed=9)
        params = {id(t.array) for t in m.params.values()}

        class Recorder:
            def __init__(self, layer):
                self.layer = layer

            def shapes(self):
                return self.layer.shapes()

            def forward(self, params_, x):
                y, ctx = self.layer.forward(params_, x)
                self.index = len(refs)
                parts = [getattr(c, "array", getattr(c, "window_argmax", None))
                         for c in (ctx if isinstance(ctx, (tuple, list)) else (ctx,))]
                refs.append([weakref.ref(a) for a in parts
                             if isinstance(a, np.ndarray) and id(a) not in params])
                return y, ctx

            def backward(self, ctx, dy, need_dx):
                alive = [{id(r()) for r in layer_refs if r() is not None} for layer_refs in refs]
                below = set().union(*alive[: self.index + 1])
                leaks.extend((self.index, j) for j in range(self.index + 1, len(refs))
                             if alive[j] - below)
                return self.layer.backward(ctx, dy, need_dx)

        real = model_mod.layers
        monkeypatch.setattr(model_mod, "layers",
                            lambda s: tuple([Recorder(l) for l in part] for part in real(s)))
        x = np.random.default_rng(3).normal(size=(2, 1, 8, 8)).astype(np.float32)
        loss_and_gradients(m, Tensor(x), [0, 2])
        assert len(refs) == 7 and all(refs[:3])
        assert leaks == []

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython keeps a call's arguments alive in the caller")
    def test_conv_backward_runs_without_the_output_or_its_gradient(self, monkeypatch):
        """A conv's output is the next layer's input, which that layer frees
        in its own backward: it is not alive while the conv's own backward
        runs. A pooled conv hands its pooled gradient and the pool's mask to
        conv2d_backward, which unpools the gradient band by band: a step
        never calls maxpool2d_backward."""
        import weakref
        outputs, alive, pooled = {}, [], []
        real_forward, real_conv_backward = nn.conv2d_forward, nn.conv2d_backward

        def conv2d_forward(x, p, **kwargs):
            out = real_forward(x, p, **kwargs)
            y = out[0] if isinstance(out, tuple) else out
            outputs[id(p.weights)] = weakref.ref(y.array)
            return out

        def maxpool2d_backward(mask, d_out):
            raise AssertionError("a step ran the pool's backward outside the conv's")

        def conv2d_backward(x, p, d_out, **kwargs):
            alive.append(outputs.pop(id(p.weights))() is not None)
            mask = kwargs.get("mask")
            pooled.append(None if mask is None else (d_out.shape, mask.input_shape))
            return real_conv_backward(x, p, d_out, **kwargs)

        monkeypatch.setattr(nn, "conv2d_forward", conv2d_forward)
        monkeypatch.setattr(nn, "maxpool2d_backward", maxpool2d_backward)
        monkeypatch.setattr(nn, "conv2d_backward", conv2d_backward)
        spec = ArchSpec(((2, 4), (1, 8)), GapHead(), num_classes=4, in_channels=3, input_size=8)
        x = Tensor(np.random.default_rng(4).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32))
        loss_and_gradients(build(spec, seed=1), x, [0, 1])
        assert alive == [False, False, False]
        # block2.conv1 and block1.conv2 pool, block1.conv1 does not
        assert pooled == [((2, 8, 2, 2), (2, 8, 4, 4)), ((2, 4, 4, 4), (2, 4, 8, 8)), None]

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython keeps a call's arguments alive in the caller")
    @pytest.mark.parametrize("head", [GapHead(), FcHead((3,))], ids=["gap", "fc"])
    def test_conv_input_is_freed_before_its_d_input_products(self, monkeypatch, head):
        """Every conv but the first takes the sign of its input, the ReLU
        output of the conv below, after its d_w and lets the input go: no
        conv's input is alive while its d_input products run, and no conv's
        ctx holds its output."""
        import weakref

        import defectnet.model as model_mod

        inputs, current, alive, held = {}, [], [], []

        class Recorder:
            def __init__(self, layer):
                self.layer = layer

            def shapes(self):
                return self.layer.shapes()

            def forward(self, params_, x):
                y, ctx = self.layer.forward(params_, x)
                if isinstance(self.layer, model_mod.Conv):
                    inputs[self.layer.name] = weakref.ref(x.array)
                    held.extend(self.layer.name for c in ctx if getattr(c, "array", None) is y.array)
                return y, ctx

            def backward(self, ctx, dy, need_dx):
                current.append(getattr(self.layer, "name", None))
                try:
                    return self.layer.backward(ctx, dy, need_dx)
                finally:
                    current.pop()

        def mm64(a, b, *args, **kwargs):
            # in a backward, only d_input's correlation writes into out
            if current and "out" in kwargs:
                alive.append((current[-1], inputs[current[-1]]() is not None))
            return real_mm64(a, b, *args, **kwargs)

        m = build(ArchSpec(((2, 4), (1, 8)), head, num_classes=4, in_channels=3, input_size=8),
                  seed=1)
        real, real_mm64 = model_mod.layers, nn._mm64
        monkeypatch.setattr(model_mod, "layers",
                            lambda s: tuple([Recorder(l) for l in part] for part in real(s)))
        monkeypatch.setattr(nn, "_mm64", mm64)
        x = Tensor(np.random.default_rng(4).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32))
        loss_and_gradients(m, x, [0, 1])
        assert {name for name, _ in alive} == {"block1.conv2", "block2.conv1"}
        assert not any(is_alive for _, is_alive in alive)
        assert held == []

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython keeps a call's arguments alive in the caller")
    @pytest.mark.parametrize("head", [GapHead(), FcHead((3,))], ids=["gap", "fc"])
    def test_step_holds_no_conv_input_beside_its_gradients(self, monkeypatch, head):
        """While a conv's d_input runs, the step holds its d_out and d_input,
        the sign of its input (a bool quarter of an activation) and one band,
        but neither the input, here a 16-channel 128 px map like d_out, nor a
        masked copy of a gradient."""
        import tracemalloc
        monkeypatch.setattr(nn, "CHUNK_BYTES", 64 << 10)
        spec = ArchSpec(((2, 16), (1, 16)), head, num_classes=4, in_channels=3, input_size=128)
        m = build(spec, seed=0)
        x = Tensor(np.random.default_rng(7).uniform(0, 1, (2, 3, 128, 128)).astype(np.float32))
        act = 2 * 16 * 128 * 128 * 4
        bands, real_patch_bands = [], nn._patch_bands

        def patch_bands(*args):
            for boxes, cols in real_patch_bands(*args):
                bands.append(cols.nbytes)
                yield boxes, cols

        monkeypatch.setattr(nn, "_patch_bands", patch_bands)
        tracemalloc.start()
        try:
            loss_and_gradients(m, x, [0, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # d_out, d_input, the mask and one band, plus a quarter of an
        # activation for the input batch, the band's product and the gradients
        assert peak < 2 * act + act / 4 + max(bands) + act / 4

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython keeps a call's arguments alive in the caller")
    @pytest.mark.parametrize("k", [0, 1], ids=["freeze0", "freeze1"])
    def test_lowest_taped_conv_output_is_dead_until_the_backward_above(self, monkeypatch, k):
        """The lowest conv of the tape does not pool here, so the tape drops
        its output once the next conv's forward returns: the output is dead
        in every layer's forward and backward that follows, until the next
        conv's backward runs that conv again (a new array) for its input,
        right before conv2d_backward, which runs the pool's backward of the
        conv above inside its band walks."""
        import weakref
        spec = ArchSpec(((2, 4), (2, 8)), GapHead(), num_classes=4, in_channels=3, input_size=8)
        m = set_trainable(build(spec, seed=1), k)
        names = {id(t): n[:-2] for n, t in m.params.items() if n.endswith(".w")}
        low = f"block{k + 1}.conv1"
        out, events = [], []

        def watch(name, real):
            def call(*args, **kwargs):
                p = args[1] if name.startswith("conv") else None
                event = (name, names[id(p.weights)] if p is not None else None)
                if out:
                    events.append((event, out[0]() is not None))
                result = real(*args, **kwargs)
                if event == ("conv2d_forward", low) and not out:
                    out.append(weakref.ref(result.array))
                return result
            return call

        for name in ("conv2d_forward", "conv2d_backward", "maxpool2d_backward",
                     "global_avg_pool", "global_avg_pool_backward", "dense_forward",
                     "dense_backward"):
            monkeypatch.setattr(nn, name, watch(name, getattr(nn, name)))
        x = Tensor(np.random.default_rng(4).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32))
        loss_and_gradients(m, x, [0, 1])
        above = f"block{k + 1}.conv2"
        assert events[0] == (("conv2d_forward", above), True)
        assert not any(alive for _, alive in events[1:])
        calls = [event for event, _ in events]
        rerun = calls.index(("conv2d_forward", low), 1)
        assert calls[rerun : rerun + 2] == [("conv2d_forward", low), ("conv2d_backward", above)]
        assert ("maxpool2d_backward", None) not in calls

    @pytest.mark.parametrize("blocks,forwards", [
        (((1, 8), (1, 16)), {"block1.conv1": 1, "block2.conv1": 1}),
        (((2, 8), (1, 16)), {"block1.conv1": 2, "block1.conv2": 1, "block2.conv1": 1}),
    ], ids=["low-pools", "low-no-pool"])
    def test_only_a_lowest_conv_that_does_not_pool_runs_twice(self, monkeypatch, blocks,
                                                              forwards):
        """A step runs each conv's forward once, save the lowest conv of the
        tape when it does not pool: the conv above runs it again in its
        backward. A lowest conv that pools keeps only its quarter-size
        output on the tape, so it is not run again."""
        spec = ArchSpec(blocks, GapHead(), num_classes=4, in_channels=3, input_size=16)
        m = build(spec, seed=1)
        names = {id(t): n[:-2] for n, t in m.params.items() if n.endswith(".w")}
        calls: dict[str, int] = {}
        real_forward = nn.conv2d_forward

        def conv_forward(x, p, **kwargs):
            name = names[id(p.weights)]
            calls[name] = calls.get(name, 0) + 1
            return real_forward(x, p, **kwargs)

        monkeypatch.setattr(nn, "conv2d_forward", conv_forward)
        x = Tensor(np.random.default_rng(4).uniform(0, 1, (2, 3, 16, 16)).astype(np.float32))
        loss_and_gradients(m, x, [0, 1])
        assert calls == forwards

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython keeps a call's arguments alive in the caller")
    def test_step_holds_no_lowest_conv_output_in_the_blocks_above(self, monkeypatch):
        """The step peaks in block 2's backward. There it holds the input
        batch, block 2's d_out at both sizes and its input, and three
        quarters of the lowest conv's output, here an 8-channel 128 px map,
        for the pool masks, the pool backward's temporaries and one band:
        too little to hold that output as well."""
        import tracemalloc
        monkeypatch.setattr(nn, "CHUNK_BYTES", 64 << 10)
        spec = ArchSpec(((2, 8), (1, 64)), GapHead(), num_classes=4, in_channels=3,
                        input_size=128)
        m = build(spec, seed=0)
        x = Tensor(np.random.default_rng(7).uniform(0, 1, (2, 3, 128, 128)).astype(np.float32))
        act = 2 * 8 * 128 * 128 * 4
        d_out, pooled, block2_input = 2 * act, act / 2, act / 4
        tracemalloc.start()
        try:
            loss_and_gradients(m, x, [0, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.array.nbytes + d_out + pooled + block2_input + 3 * act / 4

    @pytest.mark.parametrize("head", [GapHead(), FcHead((3,))], ids=["gap", "fc"])
    def test_whole_model_gradient_matches_finite_differences(self, head):
        # end-to-end check through conv+relu+pool, then gap+dense or
        # flatten+dense+relu+dense, then softmax+CE
        from gradcheck import assert_grad_close, central_diff
        from naive_ops import naive_conv2d, naive_dense, naive_gap, naive_relu, naive_softmax_ce

        spec = ArchSpec(((1, 2),), head, num_classes=3, in_channels=1, input_size=4)
        m = build(spec, seed=9)
        rng = np.random.default_rng(8)
        x = rng.uniform(0.1, 1.0, (2, 1, 4, 4)).astype(np.float32)
        targets = [0, 2]
        _, _, grads = loss_and_gradients(m, Tensor(x), targets)
        p = {name: t.array.astype(np.float64) for name, t in m.params.items()}

        def f():
            a = naive_relu(naive_conv2d(x.astype(np.float64), p["block1.conv1.w"],
                                        p["block1.conv1.b"], 1, 1))
            pooled = a.reshape(2, 2, 2, 2, 2, 2).max(axis=(3, 5))
            if isinstance(head, GapHead):
                feats = naive_gap(pooled)
            else:
                feats = naive_relu(naive_dense(pooled.reshape(2, -1), p["head.fc1.w"],
                                               p["head.fc1.b"]))
            return naive_softmax_ce(naive_dense(feats, p["head.out.w"], p["head.out.b"]), targets)

        for name, value in p.items():
            assert_grad_close(grads[name].array, central_diff(f, value), name)

    @pytest.mark.parametrize("k", [0, 1], ids=["freeze0", "freeze1"])
    def test_model_convs_take_the_flat_walk(self, monkeypatch, k):
        """Every model conv is 3x3, same-padded and stride 1, so a forward and
        a step, pooled convs and all, never widen an input the way a strided
        or otherwise padded conv is widened: the path every workload times."""
        def widen(*args):
            raise AssertionError("a model conv was widened")

        monkeypatch.setattr(nn, "_widen", widen)
        spec = ArchSpec(((2, 4), (1, 8)), GapHead(), num_classes=4, in_channels=3,
                        input_size=16)
        m = set_trainable(build(spec, seed=1), k)
        x = Tensor(np.random.default_rng(4).uniform(0, 1, (2, 3, 16, 16)).astype(np.float32))
        forward(m, x)
        loss_and_gradients(m, x, [0, 1])

    @pytest.mark.parametrize("k", [0, 1], ids=["freeze0", "freeze1"])
    def test_lowest_trainable_conv_runs_no_d_input_gemm(self, monkeypatch, k):
        """Nothing reads the gradient at the input of the lowest trainable
        conv, so it runs only its d_w GEMMs, whose products have one row per
        filter; the convs above run d_input too, and no frozen conv runs a
        backward at all. Only the trainable parameters get gradients."""
        spec = ArchSpec(((1, 4), (1, 8), (1, 16)), GapHead(), num_classes=4, in_channels=3,
                        input_size=8)
        m = set_trainable(build(spec, seed=1), k)
        rows: dict[int, set] = {}
        current = []
        real_backward, real_mm64 = nn.conv2d_backward, nn._mm64

        def backward(x, p, d_out, **kwargs):
            current.append(rows.setdefault(p.weights.shape[0], set()))
            try:
                return real_backward(x, p, d_out, **kwargs)
            finally:
                current.pop()

        def mm64(a, b, *args, **kwargs):
            if current:
                current[-1].add(a.shape[0])
            return real_mm64(a, b, *args, **kwargs)

        monkeypatch.setattr(nn, "conv2d_backward", backward)
        monkeypatch.setattr(nn, "_mm64", mm64)
        x = Tensor(np.random.default_rng(4).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32))
        _, _, grads = loss_and_gradients(m, x, [0, 1])
        assert set(grads) == {name for name, t in m.trainable.items() if t}
        filters = [f for _, f in spec.blocks]
        assert set(rows) == set(filters[k:])
        assert rows[filters[k]] == {filters[k]}
        assert all(rows[f] - {f} for f in filters[k + 1:])

    @pytest.mark.parametrize("head,first_dense", [(GapHead(), "head.out"),
                                                  (FcHead((3,)), "head.fc1")], ids=["gap", "fc"])
    @pytest.mark.parametrize("k", [0, 1, 2], ids=["freeze0", "freeze1", "freeze2"])
    def test_tape_starts_at_the_lowest_trainable_layer(self, head, first_dense, k):
        """The frozen blocks run as inference: the tape holds each layer from
        the lowest one with a trainable parameter up, and none below it."""
        import defectnet.model as model_mod
        spec = ArchSpec(((1, 4), (1, 8)), head, num_classes=4, in_channels=3, input_size=8)
        m = set_trainable(build(spec, seed=1), k)
        features, head_layers = model_mod.layers(spec)
        named = [(type(layer), getattr(layer, "name", None)) for layer in features + head_layers]
        start = named.index([(model_mod.Conv, "block1.conv1"), (model_mod.Conv, "block2.conv1"),
                             (model_mod.Dense, first_dense)][k])
        tape = []
        x = Tensor(np.random.default_rng(4).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32))
        model_mod._run(m, x, tape)
        assert [(type(layer), getattr(layer, "name", None)) for layer, _ in tape] == named[start:]

    @pytest.mark.parametrize("k", [1, 2], ids=["freeze1", "freeze2"])
    def test_frozen_convs_run_one_image_at_a_time(self, monkeypatch, k):
        """The frozen convs below the tape run as inference on each image
        alone; the trainable convs above run on the whole batch."""
        spec = ArchSpec(((1, 4), (1, 8), (1, 16)), GapHead(), num_classes=4, in_channels=3,
                        input_size=8)
        m = set_trainable(build(spec, seed=1), k)
        images: dict[int, set] = {}
        real_forward = nn.conv2d_forward

        def conv_forward(x, p, **kwargs):
            images.setdefault(p.weights.shape[0], set()).add(x.shape[0])
            return real_forward(x, p, **kwargs)

        monkeypatch.setattr(nn, "conv2d_forward", conv_forward)
        x = Tensor(np.random.default_rng(4).uniform(0, 1, (4, 3, 8, 8)).astype(np.float32))
        loss_and_gradients(m, x, [0, 1, 2, 3])
        filters = [f for _, f in spec.blocks]
        assert images == {f: {1} if b < k else {4} for b, f in enumerate(filters)}

    def test_frozen_step_peak_does_not_grow_with_the_batch(self, monkeypatch):
        """With every block frozen, a step runs the convs one image at a
        time, as an untaped forward does: a 6-image step holds, beyond the
        peak of a 1-image one, only the batch's input and final maps."""
        import tracemalloc
        monkeypatch.setattr(nn, "CHUNK_BYTES", 64 << 10)
        spec = ArchSpec(((3, 16),), GapHead(), num_classes=4, in_channels=3, input_size=128)
        m = set_trainable(build(spec, seed=0), 1)
        x = np.random.default_rng(7).uniform(0, 1, (6, 3, 128, 128)).astype(np.float32)
        act, maps = 16 * 128 * 128 * 4, 6 * 16 * 64 * 64 * 4

        def peak(batch):
            targets = [0, 1, 2, 3, 0, 1][: len(batch)]
            batch = Tensor(batch)
            tracemalloc.start()
            try:
                loss_and_gradients(m, batch, targets)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(x) < peak(x[:1]) + x.nbytes + maps + act / 4
