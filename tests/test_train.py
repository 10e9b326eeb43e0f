import tracemalloc

import numpy as np
import pytest
from synth_data import noise_dataset, solid_image

from defectnet import nn
from defectnet.data import AugmentParams, LabeledDataset, augment, image_to_tensor
from defectnet.errors import DatasetError
from defectnet.model import (ArchSpec, FcHead, GapHead, arch_preset, build, forward,
                             loss_and_gradients, param_block, set_trainable)
from defectnet.tensor import Tensor
from defectnet.train import (TrainConfig, TrainHistory, _evaluate_with_loss, _stack_batch,
                             evaluate, sgd_step, train)

TOY = ArchSpec(((1, 4),), GapHead(), num_classes=4, in_channels=3, input_size=8)
AUG_OFF = AugmentParams(rotation_max_deg=0, shift_max_frac=0,
                        allow_hflip=False, allow_vflip=False)


def t32(a):
    return Tensor(np.asarray(a, dtype=np.float32))


def passthrough_color_model():
    """Handcrafted model that classifies solid colors perfectly.

    Center-tap conv filters copy the RGB channels, GAP recovers the mean
    color, and the head separates red/green/blue/white linearly.
    """
    m = build(TOY, seed=0)
    w = np.zeros((4, 3, 3, 3), dtype=np.float32)
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    head = np.array([
        [2.0, -1.0, -1.0, 1.0],
        [-1.0, 2.0, -1.0, 1.0],
        [-1.0, -1.0, 2.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ], dtype=np.float32)
    params = {
        "block1.conv1.w": t32(w),
        "block1.conv1.b": Tensor.zeros((4,)),
        "head.out.w": t32(head),
        "head.out.b": Tensor.zeros((4,)),
    }
    from dataclasses import replace
    return replace(m, params=params)


def color_dataset():
    return LabeledDataset(items=[
        (solid_image(8, (255, 0, 0)), 0),
        (solid_image(8, (0, 255, 0)), 1),
        (solid_image(8, (0, 0, 255)), 2),
        (solid_image(8, (255, 255, 255)), 3),
        (solid_image(8, (255, 0, 0)), 0),
        (solid_image(8, (0, 0, 255)), 2),
    ])


class TestSgdStep:
    def test_plain_gradient_step(self):
        params = {"p": t32([0.0, 0.0])}
        grads = {"p": t32([1.0, 1.0])}
        vel = {"p": Tensor.zeros((2,))}
        new_p, new_v = sgd_step(params, grads, vel, lr=0.1, momentum=0.0,
                                trainable={"p": True})
        assert np.allclose(new_p["p"].array, [-0.1, -0.1])
        assert np.allclose(new_v["p"].array, [-0.1, -0.1])

    def test_frozen_params_bit_unchanged(self):
        rng = np.random.default_rng(0)
        params = {"p": t32(rng.normal(size=5))}
        grads = {"p": t32(rng.normal(size=5))}
        vel = {"p": t32(rng.normal(size=5))}
        new_p, new_v = sgd_step(params, grads, vel, lr=0.5, momentum=0.9,
                                trainable={"p": False})
        assert new_p["p"] is params["p"]
        assert new_v["p"] is vel["p"]

    def test_momentum_recurrence_two_steps(self):
        # hand-iterate v <- 0.9 v - 0.1 g; p <- p + v in float32
        params = {"p": t32([0.0])}
        grads = {"p": t32([1.0])}
        vel = {"p": Tensor.zeros((1,))}
        trainable = {"p": True}
        params, vel = sgd_step(params, grads, vel, 0.1, 0.9, trainable)
        assert np.allclose(params["p"].array, [-0.1], atol=1e-7)
        params, vel = sgd_step(params, grads, vel, 0.1, 0.9, trainable)
        assert np.allclose(vel["p"].array, [-0.19], atol=1e-7)
        assert np.allclose(params["p"].array, [-0.29], atol=1e-7)

    def test_exact_float32_arithmetic(self):
        params = {"p": t32([0.25])}
        grads = {"p": t32([0.5])}
        vel = {"p": t32([0.125])}
        new_p, new_v = sgd_step(params, grads, vel, lr=0.5, momentum=0.5,
                                trainable={"p": True})
        want_v = np.float32(0.5) * np.float32(0.125) - np.float32(0.5) * np.float32(0.5)
        assert new_v["p"].array[0] == want_v
        assert new_p["p"].array[0] == np.float32(0.25) + want_v


class TestTrainLoop:
    def test_zero_epochs_no_op(self):
        m = build(TOY, seed=1)
        ds = color_dataset()
        cfg = TrainConfig(epochs=0, batch_size=2, steps_per_epoch=1, seed=0)
        m2, hist = train(m, ds, ds, AUG_OFF, cfg)
        assert len(hist) == 0
        for name in m.params:
            assert m2.params[name] is m.params[name]

    def test_history_length_matches_epochs(self):
        m = build(TOY, seed=2)
        ds = noise_dataset(2, 8, seed=3)
        cfg = TrainConfig(epochs=3, batch_size=4, steps_per_epoch=2,
                          learning_rate=1e-3, seed=5)
        _, hist = train(m, ds, ds, AUG_OFF, cfg)
        assert len(hist) == 3
        for e in hist.epochs:
            assert 0.0 <= e.train_acc <= 1.0
            assert e.train_loss >= 0.0

    def test_empty_dataset_rejected(self):
        m = build(TOY, seed=0)
        with pytest.raises(DatasetError):
            train(m, LabeledDataset(items=[]), color_dataset(), AUG_OFF,
                  TrainConfig(epochs=1, batch_size=1, steps_per_epoch=1))

    def test_deterministic_end_to_end(self):
        ds = noise_dataset(3, 8, seed=7)
        aug = AugmentParams(rotation_max_deg=15, shift_max_frac=0.1, rng_seed=2)
        cfg = TrainConfig(epochs=2, batch_size=4, steps_per_epoch=3,
                          learning_rate=1e-2, seed=9)
        m1, h1 = train(build(TOY, seed=4), ds, ds, aug, cfg)
        m2, h2 = train(build(TOY, seed=4), ds, ds, aug, cfg)
        assert h1.to_csv() == h2.to_csv()
        for name in m1.params:
            assert np.array_equal(m1.params[name].array, m2.params[name].array), name

    def test_frozen_blocks_never_move(self):
        spec = ArchSpec(((1, 4), (1, 8)), GapHead(), 4, 3, 16)
        m = set_trainable(build(spec, seed=6), freeze_up_to_block=1)
        before = {n: t.array.copy() for n, t in m.params.items()}
        ds = noise_dataset(3, 16, seed=8)
        cfg = TrainConfig(epochs=2, batch_size=4, steps_per_epoch=5,
                          learning_rate=1e-2, seed=1)
        m2, _ = train(m, ds, ds, AUG_OFF, cfg)
        for name, arr in before.items():
            if param_block(name) == 1:
                assert np.array_equal(m2.params[name].array, arr), name

    def test_paper_preset_freeze_block4_semantics(self):
        # same preset and freeze depth as the reference configuration,
        # exercised at a small input size for speed
        m = set_trainable(build(arch_preset("paper-vgg16", input_size=32), seed=0), 4)
        before = {n: t.array.copy() for n, t in m.params.items()}
        ds = noise_dataset(1, 32, seed=2)
        cfg = TrainConfig(epochs=1, batch_size=2, steps_per_epoch=2,
                          learning_rate=1e-2, seed=3)
        m2, _ = train(m, ds, ds, AUG_OFF, cfg)
        for name, arr in before.items():
            b = param_block(name)
            if b is not None and b <= 4:
                assert np.array_equal(m2.params[name].array, arr), name
        assert not np.array_equal(m2.params["block5.conv1.w"].array,
                                  before["block5.conv1.w"])

    def test_loss_decreases_after_tiny_step(self):
        m = build(TOY, seed=11)
        rng = np.random.default_rng(12)
        batch = Tensor(rng.uniform(0, 1, (4, 3, 8, 8)).astype(np.float32))
        targets = [0, 1, 2, 3]
        loss0, _, grads = loss_and_gradients(m, batch, targets)
        vel = {n: Tensor.zeros(t.shape) for n, t in m.params.items()}
        params, _ = sgd_step(m.params, grads, vel, lr=1e-4, momentum=0.0,
                             trainable=m.trainable)
        from dataclasses import replace
        loss1, _, _ = loss_and_gradients(replace(m, params=params), batch, targets)
        assert loss1 < loss0


class TestEvaluate:
    def test_perfect_model_diagonal(self):
        cm = evaluate(passthrough_color_model(), color_dataset())
        assert cm.counts == ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1))

    def test_constant_prediction_all_in_column0(self):
        from dataclasses import replace
        m = build(TOY, seed=0)
        m = replace(m, params={n: Tensor.zeros(t.shape) for n, t in m.params.items()})
        cm = evaluate(m, color_dataset())
        for k in range(4):
            assert cm.col_sum(k) == (len(color_dataset()) if k == 0 else 0)

    def test_row_sums_equal_class_counts(self):
        ds = noise_dataset(3, 8, seed=13)
        cm = evaluate(build(TOY, seed=14), ds)
        assert [cm.row_sum(k) for k in range(4)] == ds.counts()
        assert cm.total() == len(ds)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError):
            evaluate(build(TOY, seed=0), LabeledDataset(items=[]))

    @pytest.mark.parametrize("head", [GapHead(), FcHead((8,))], ids=["gap", "fc"])
    def test_groups_equal_forward_on_the_stacked_batch(self, head):
        """Five images in groups of two, the last one short: the confusion
        counts and the loss bits are those of forward on each stacked group."""
        m = build(ArchSpec(((1, 4), (1, 8)), head, 4, 3, 16), seed=5)
        ds = LabeledDataset(items=noise_dataset(2, 16, seed=6).items[::-1][:5])
        counts = np.zeros((4, 4), dtype=int)
        loss_sum = 0.0
        for start in range(0, 5, 2):
            idxs = range(start, min(start + 2, 5))
            batch = Tensor(np.stack([image_to_tensor(ds.image(i)).array for i in idxs]))
            probs = forward(m, batch).probs
            targets = [ds.label(i) for i in idxs]
            loss_sum += nn.cross_entropy(probs, targets) * len(targets)
            for t, p in zip(targets, np.argmax(probs.array, axis=1)):
                counts[t, p] += 1
        cm, loss = _evaluate_with_loss(m, ds, 2)
        assert cm.counts == tuple(map(tuple, counts.tolist()))
        assert np.float64(loss).tobytes() == np.float64(loss_sum / 5).tobytes()

    def test_peak_does_not_grow_with_the_group(self, monkeypatch):
        """Each image is read and converted only when forward's per-image walk
        reaches it, so a 6-image group holds, beyond the peak of a 1-image
        one, only the group's final maps: no float32 batch."""
        monkeypatch.setattr(nn, "CHUNK_BYTES", 64 << 10)
        m = build(ArchSpec(((3, 16),), GapHead(), 4, 3, 128), seed=0)
        ds = noise_dataset(2, 128, seed=7)
        act, maps = 16 * 128 * 128 * 4, 6 * 16 * 64 * 64 * 4

        def peak(n):
            part = LabeledDataset(items=ds.items[:n])
            tracemalloc.start()
            try:
                evaluate(m, part, batch_size=6)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(6) < peak(1) + maps + act / 4


def test_train_and_evaluate_reject_a_model_of_other_classes():
    m = build(ArchSpec(((1, 4),), GapHead(), num_classes=3, in_channels=3, input_size=8), seed=0)
    ds = color_dataset()
    message = "model classifies 3 classes but the dataset has 4 labels"
    with pytest.raises(DatasetError, match=message):
        train(m, ds, ds, AUG_OFF, TrainConfig(epochs=1, batch_size=1, steps_per_epoch=1))
    with pytest.raises(DatasetError, match=message):
        evaluate(m, ds)


def test_history_csv_format():
    hist = TrainHistory(epochs=[])
    from defectnet.train import EpochStats
    hist.epochs.append(EpochStats(1.5, 0.25, 1.25, 0.3))
    hist.epochs.append(EpochStats(0.75, 0.5, 1.0, 0.45))
    csv = hist.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert lines[1] == "1,1.500000,0.250000,1.250000,0.300000"
    assert lines[2] == "2,0.750000,0.500000,1.000000,0.450000"


def test_stack_batch_fills_one_preallocated_batch():
    """Each image is converted into its slot of one float32 batch: the peak is
    that batch plus one image's conversion, never a list of images beside
    their stacked copy. The bits are those of stacking the converted images."""
    ds = noise_dataset(2, 64, seed=3)
    aug = AugmentParams(rotation_max_deg=15, shift_max_frac=0.1, rng_seed=2)
    batch, targets = _stack_batch(ds, range(8), 64, aug, 1, 2)
    want = np.stack([image_to_tensor(augment(ds.image(i), aug,
                                             np.random.default_rng((2, 1, 2, i)))).array
                     for i in range(8)])
    assert batch.array.tobytes() == want.tobytes()
    assert targets == [ds.label(i) for i in range(8)]
    tracemalloc.start()
    try:
        batch, _ = _stack_batch(ds, range(8), 64, AUG_OFF, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    image = 3 * 64 * 64 * 4
    assert batch.array.nbytes == 8 * image
    assert peak < batch.array.nbytes + 3 * image
