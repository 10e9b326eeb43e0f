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

    def test_wrong_input_shape(self):
        m = build(TOY, seed=0)
        with pytest.raises(ShapeError):
            forward(m, Tensor.zeros((1, 3, 16, 16)))

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
        # ReLUs before a conv, before a pool and between two denses
        import defectnet.model as model_mod

        received = []

        class Recorder:
            def __init__(self, layer):
                self.layer = layer

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
        assert len(relus) == 3
        for k in relus:
            assert tape[k][1].array is received[k + 1]

    def test_backward_frees_each_ctx_once_no_layer_below_reads_it(self, monkeypatch):
        """When a layer's backward runs, the ctx arrays of the layers above it
        are gone, save those that a layer at or below it keeps as well (a
        ReLU's output is the next layer's input)."""
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

            def forward(self, params_, x):
                y, ctx = self.layer.forward(params_, x)
                self.index = len(refs)
                parts = [getattr(c, "array", getattr(c, "window_argmax", None))
                         for c in (ctx if isinstance(ctx, tuple) else (ctx,))]
                refs.append([weakref.ref(a) for a in parts
                             if isinstance(a, np.ndarray) and id(a) not in params])
                return y, ctx

            def backward(self, ctx, dy):
                alive = [{id(r()) for r in layer_refs if r() is not None} for layer_refs in refs]
                below = set().union(*alive[: self.index + 1])
                leaks.extend((self.index, j) for j in range(self.index + 1, len(refs))
                             if alive[j] - below)
                return self.layer.backward(ctx, dy)

        real = model_mod.layers
        monkeypatch.setattr(model_mod, "layers",
                            lambda s: tuple([Recorder(l) for l in part] for part in real(s)))
        x = np.random.default_rng(3).normal(size=(2, 1, 8, 8)).astype(np.float32)
        loss_and_gradients(m, Tensor(x), [0, 2])
        assert len(refs) == 12 and all(refs[:8])
        assert leaks == []

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

    def test_first_conv_runs_no_d_input_gemm(self, monkeypatch):
        """Nothing reads the gradient of the input batch, so block1.conv1 runs
        only its d_w GEMMs, whose products have one row per filter; the other
        convs run d_input too."""
        spec = ArchSpec(((1, 4), (1, 8)), GapHead(), num_classes=4, in_channels=3, input_size=8)
        rows: dict[tuple, set] = {}
        current = []
        real_backward, real_mm64 = nn.conv2d_backward, nn._mm64

        def backward(x, p, d_out, **kwargs):
            current.append(rows.setdefault(p.weights.shape, set()))
            try:
                return real_backward(x, p, d_out, **kwargs)
            finally:
                current.pop()

        def mm64(a, b, *dtype):
            if current:
                current[-1].add(a.shape[0])
            return real_mm64(a, b, *dtype)

        monkeypatch.setattr(nn, "conv2d_backward", backward)
        monkeypatch.setattr(nn, "_mm64", mm64)
        x = Tensor(np.random.default_rng(4).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32))
        _, _, grads = loss_and_gradients(build(spec, seed=1), x, [0, 1])
        assert set(grads) == {"block1.conv1.w", "block1.conv1.b", "block2.conv1.w",
                              "block2.conv1.b", "head.out.w", "head.out.b"}
        assert rows[(4, 3, 3, 3)] == {4}
        assert rows[(8, 4, 3, 3)] - {8}
