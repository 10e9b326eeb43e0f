"""Mini-batch training over the trainable parameter subset, plus test-set
evaluation into a confusion matrix.

The optimizer is SGD with momentum (v <- m*v - lr*g; p <- p + v).
Frozen parameters are never touched: they stay bitwise equal to their
pre-training values, as does their velocity. Runs are deterministic
given (model, data, config): batch order reshuffles from a per-epoch
seed and each sample's augmentation draws from its own derived stream.
A training batch is converted into one preallocated float32 array; a
batch_size whose array cannot be allocated is refused before the first step.
Evaluation and validation build no batch: each image is read and
converted as the model's per-image walk reaches it, and the head runs
once per group of batch_size images.
A step or a validation pass that leaves the loss or a trainable parameter
non-finite stops the run with a DivergenceError naming the epoch, the step
and the loss or the parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model as model_mod
from . import nn
from .data import AugmentParams, LabeledDataset, RasterImage, augment, image_to_tensor
from .errors import ConfigError, DatasetError, DivergenceError, ShapeError
from .labels import LABEL_NAMES
from .metrics import ConfusionMatrix
from .model import Model
from .tensor import Tensor


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    steps_per_epoch: int = 250
    learning_rate: float = 1e-3
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for name in ("batch_size", "steps_per_epoch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # sgd_step scales float32 gradients by it, so it must fit in float32
        if not 0 < self.learning_rate <= float(np.finfo(np.float32).max):
            raise ValueError("learning_rate must be > 0 and finite in float32")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0,1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class EpochStats:
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats]

    def __len__(self) -> int:
        return len(self.epochs)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
        for i, e in enumerate(self.epochs, 1):
            lines.append(
                f"{i},{e.train_loss:.6f},{e.train_acc:.6f},{e.val_loss:.6f},{e.val_acc:.6f}"
            )
        return "\n".join(lines) + "\n"


def sgd_step(params: dict[str, Tensor], grads: dict[str, Tensor],
             velocity: dict[str, Tensor], lr: float, momentum: float,
             trainable: dict[str, bool]) -> tuple[dict[str, Tensor], dict[str, Tensor]]:
    """One momentum-SGD update; frozen entries pass through untouched."""
    new_params = {}
    new_velocity = {}
    for name, p in params.items():
        if not trainable.get(name, False):
            new_params[name] = p
            new_velocity[name] = velocity[name]
            continue
        g = grads[name]
        v = velocity[name]
        if g.shape != p.shape or v.shape != p.shape:
            raise ShapeError(
                f"param/grad/velocity shapes differ for {name}: "
                f"{p.shape} / {g.shape} / {v.shape}"
            )
        nv = momentum * v.array - lr * g.array
        new_velocity[name] = Tensor._wrap(nv)
        new_params[name] = Tensor._wrap(p.array + nv)
    return new_params, new_velocity


def _batches(n: int, batch_size: int, steps: int, rng: np.random.Generator):
    """Index batches; the pool reshuffles whenever it runs dry mid-epoch."""
    order = rng.permutation(n)
    pos = 0
    for _ in range(steps):
        batch = []
        while len(batch) < batch_size:
            if pos == n:
                order = rng.permutation(n)
                pos = 0
            take = min(n - pos, batch_size - len(batch))
            batch.extend(int(i) for i in order[pos : pos + take])
            pos += take
        yield batch


def _sized_image(ds: LabeledDataset, i: int, size: int) -> RasterImage:
    """Image i of ds, read and checked to be size x size."""
    img = ds.image(i)
    if (img.width, img.height) != (size, size):
        ref = ds.items[i][0]
        name = f"#{i}" if isinstance(ref, RasterImage) else ref
        raise DatasetError(f"image {name} is {img.width}x{img.height}, "
                           f"the model takes {size}x{size}")
    return img


def _stack_batch(ds: LabeledDataset, idxs, size: int, aug: AugmentParams,
                 epoch: int, step: int) -> tuple[Tensor, list[int]]:
    """A training batch: each image is read, augmented and converted into its
    slot of one float32 array, so no second batch is built."""
    x = None
    for slot, i in enumerate(idxs):
        img = _sized_image(ds, i, size)
        if not aug.disabled:
            draw = np.random.default_rng((aug.rng_seed, epoch, step, slot))
            img = augment(img, aug, draw)
        image = image_to_tensor(img).array
        if x is None:
            # allocated after the first conversion: allocated before it, the
            # batch raised train-vgg224's peak RSS from 178 to 192 MB, by
            # where glibc placed it, not by its size
            x = np.empty((len(idxs), *image.shape), dtype=np.float32)
        x[slot] = image
        del image  # before the next image's conversion
    return Tensor._wrap(x), [ds.label(i) for i in idxs]


def _check_finite(where: str, loss: float, params: dict[str, Tensor],
                  trainable: dict[str, bool]) -> None:
    """Stop a diverging run: raise DivergenceError naming the loss, or the
    first trainable parameter, that is not finite."""
    if not np.isfinite(loss):
        raise DivergenceError(f"training diverged at {where}: the loss is {loss}")
    for name, t in params.items():
        if trainable[name] and not np.isfinite(t.array).all():
            raise DivergenceError(f"training diverged at {where}: "
                                  f"parameter {name!r} holds non-finite values")


def _check_datasets(model: Model, *datasets: LabeledDataset):
    if model.spec.num_classes != len(LABEL_NAMES):
        raise DatasetError(f"model classifies {model.spec.num_classes} classes but the dataset "
                           f"has {len(LABEL_NAMES)} labels")
    for ds in datasets:
        if len(ds) == 0:
            raise DatasetError("dataset is empty")


def train(model: Model, train_ds: LabeledDataset, val_ds: LabeledDataset,
          aug: AugmentParams, cfg: TrainConfig) -> tuple[Model, TrainHistory]:
    """Run cfg.epochs epochs of cfg.steps_per_epoch augmented batches,
    validating on un-augmented images after each epoch."""
    _check_datasets(model, train_ds, val_ds)
    history = TrainHistory(epochs=[])
    if cfg.epochs == 0:
        return model, history
    velocity = {name: Tensor.zeros(t.shape) for name, t in model.params.items()}
    size = model.spec.input_size
    try:
        # the batch's array, tried before _batches builds a list that long
        np.empty((cfg.batch_size, 3, size, size), dtype=np.float32)
    except MemoryError:
        raise ConfigError(f"batch_size = {cfg.batch_size}: a batch of {size}x{size} images "
                          "does not fit in memory") from None
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng((cfg.seed, epoch))
        loss_sum = 0.0
        seen = 0
        correct = 0
        for step, idxs in enumerate(_batches(len(train_ds), cfg.batch_size,
                                             cfg.steps_per_epoch, rng)):
            batch, targets = _stack_batch(train_ds, idxs, size, aug, epoch, step)
            # overflow is caught by the check below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                loss, probs, grads = model_mod.loss_and_gradients(model, batch, targets)
                params, velocity = sgd_step(model.params, grads, velocity,
                                            cfg.learning_rate, cfg.momentum, model.trainable)
            _check_finite(f"epoch {epoch + 1}, step {step + 1}", loss, params, model.trainable)
            model = replace(model, params=params)
            loss_sum += loss
            seen += len(targets)
            correct += int(np.sum(np.argmax(probs.array, axis=1) == np.asarray(targets)))
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                val_cm, val_loss = _evaluate_with_loss(model, val_ds, cfg.batch_size)
        except DivergenceError as exc:
            raise DivergenceError(f"training diverged at epoch {epoch + 1}, validation: "
                                  f"{exc}") from None
        history.epochs.append(EpochStats(
            train_loss=loss_sum / cfg.steps_per_epoch,
            train_acc=correct / seen,
            val_loss=val_loss,
            val_acc=val_cm.trace() / val_cm.total(),
        ))
    return model, history


def _evaluate_with_loss(model: Model, ds: LabeledDataset,
                        batch_size: int) -> tuple[ConfusionMatrix, float]:
    """Confusion counts and mean loss over ds, in groups of batch_size images.

    Each image is read, size-checked and converted only when forward's
    per-image walk reaches it, so no float32 batch is built and the peak
    does not depend on batch_size: forward keeps one image and the group's
    final conv maps. The head and softmax run once per group, on the
    concatenated maps, so the bits are those of forward on the stacked
    group."""
    n_classes = model.spec.num_classes
    size = model.spec.input_size
    counts = [[0] * n_classes for _ in range(n_classes)]
    loss_sum = 0.0
    for start in range(0, len(ds), batch_size):
        idxs = range(start, min(start + batch_size, len(ds)))
        trace = model_mod.forward(model, (image_to_tensor(_sized_image(ds, i, size))
                                          for i in idxs))
        targets = [ds.label(i) for i in idxs]
        loss_sum += nn.cross_entropy(trace.probs, targets) * len(targets)
        preds = np.argmax(trace.probs.array, axis=1)
        for t, p in zip(targets, preds):
            counts[t][int(p)] += 1
    cm = ConfusionMatrix.from_rows(counts)
    return cm, loss_sum / len(ds)


def evaluate(model: Model, test_ds: LabeledDataset, batch_size: int = 32) -> ConfusionMatrix:
    """Confusion counts over a dataset, no augmentation, predict's tie rule."""
    _check_datasets(model, test_ds)
    cm, _ = _evaluate_with_loss(model, test_ds, batch_size)
    return cm
