"""VGG-style block architectures as one layer list, with transfer-learning surgery.

A model is an ordered map of named parameters plus per-parameter
trainability flags. Names encode (block, layer, role), e.g.
"block3.conv2.w" or "head.out.b", so freezing by block depth is
well-defined. Two presets ship: "paper-vgg16" (filter widths
32/64/128/256/256) and "canonical-vgg16" (64/128/256/512/512).

`layers(spec)` lists the layers of an ArchSpec in forward order: one
layer per conv, which applies its ReLU as it writes its output and, at a
block's end, the max pool before that ReLU, then the head. The backward
of a conv's ReLU runs in the layer above, which keeps that ReLU's output
as its input: the next conv masks its d_input with it, and for the last
conv GlobalAvgPool or Flatten does. build, replace_head, forward and
loss_and_gradients all walk that list, and param_shapes reads the
parameter names and shapes off it, so it is the one place that knows the
order of layers and parameters. The backward's tape starts at the lowest
layer with a trainable parameter. When that is a conv that does not pool,
the tape keeps its input but not its output, a map as large as any of
the step: the conv above runs it again in its own backward. The feature
layers below the tape, all of them in an untaped forward, run as
inference one image at a time, so their memory does not grow with the
batch; the layers above it and the head run on the whole batch. An
untaped forward also takes the batch as a sequence of CHW images, read
as the walk reaches each, so evaluation builds no batch tensor; the head
still runs once on the whole batch's final maps, since a one-row product
need not have the bits of that row of the whole one.

The default head is GAP -> single dense -> softmax, which serves both
classification and class-activation mapping; a conventional FC head is
available through ArchSpec for comparison runs.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import nn
from .errors import CapabilityError, DivergenceError, ShapeError
from .tensor import Tensor

KERNEL = 3  # all convolutions are 3x3, same-padded; spatial size changes only at pools


@dataclass(frozen=True)
class GapHead:
    """Global average pool followed by one dense layer (CAM-compatible)."""


@dataclass(frozen=True)
class FcHead:
    """Flatten followed by dense+ReLU stages of the given widths, then the classifier."""

    widths: tuple[int, ...] = (4096, 4096)

    def __post_init__(self):
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError(f"FC head widths must be positive, got {self.widths}")


Head = GapHead | FcHead


class InputSizeError(ValueError):
    """An input size that the blocks' pools cannot halve down to whole maps."""


@dataclass(frozen=True)
class ArchSpec:
    """Block layout: ordered (conv-layer count, filter count) pairs plus a head."""

    blocks: tuple[tuple[int, int], ...]
    head: Head = field(default_factory=GapHead)
    num_classes: int = 4
    in_channels: int = 3
    input_size: int = 224

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("architecture needs at least one block")
        for count, filters in self.blocks:
            if count < 1 or filters < 1:
                raise ValueError(f"bad block ({count}, {filters})")
        widths = [f for _, f in self.blocks]
        if widths != sorted(widths):
            raise ValueError(f"filter counts must be non-decreasing across blocks, got {widths}")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.in_channels < 1:
            raise ValueError("in_channels must be >= 1")
        pools = len(self.blocks)
        if self.input_size < 2 ** pools or self.input_size % 2 ** pools:
            raise InputSizeError(f"input_size {self.input_size} is not a positive size "
                                 f"divisible by 2^{pools} pools")

    @property
    def final_filters(self) -> int:
        return self.blocks[-1][1]

    @property
    def map_size(self) -> int:
        """Spatial side of the feature maps after the last block (one pool per block)."""
        return self.input_size // (2 ** len(self.blocks))


PRESETS = {
    # Filter widths as printed in the source description of the architecture;
    # the fifth block reuses 256.
    "paper-vgg16": ((2, 32), (2, 64), (3, 128), (3, 256), (3, 256)),
    # Standard VGG-16 widths.
    "canonical-vgg16": ((2, 64), (2, 128), (3, 256), (3, 512), (3, 512)),
}


def arch_preset(name: str, head: Head | None = None, num_classes: int = 4,
                input_size: int = 224) -> ArchSpec:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {', '.join(sorted(PRESETS))}")
    return ArchSpec(PRESETS[name], head or GapHead(), num_classes, 3, input_size)


@dataclass
class Model:
    spec: ArchSpec
    params: dict[str, Tensor]
    trainable: dict[str, bool]


class Layer:
    """One step of the forward walk.

    forward(params, x) -> (y, ctx) keeps in ctx what backward(ctx, dy,
    need_dx) -> (dx, grads by parameter name) needs; need_dx is false at the
    bottom of the tape, whose dx nothing reads. shapes() names the layer's
    parameters and their shapes, weights before biases.
    """

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {}


def _draw(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator) -> dict[str, Tensor]:
    """Uniform weights (bound sqrt(6/fan_in), fan_in = weights per output, the
    length of the bias) drawn in order from one stream, and zero biases."""
    params = {}
    for name, shape in shapes.items():
        if name.endswith(".b"):
            params[name] = Tensor.zeros(shape)
        else:
            bound = math.sqrt(6.0 / (math.prod(shape) // shapes[name[:-1] + "b"][0]))
            params[name] = Tensor._wrap(rng.uniform(-bound, bound, size=shape).astype(np.float32))
    return params


def _param_grads(name: str, lg: nn.LayerGradients):
    return lg.d_input, {f"{name}.w": lg.d_params["weights"], f"{name}.b": lg.d_params["bias"]}


@dataclass(frozen=True)
class Conv(Layer):
    """3x3 same-padded, stride-1 convolution and its ReLU. A block's last conv
    also max-pools its output before the ReLU, as the conv writes it, so the
    full-size map of that conv is never built: max and ReLU commute, and
    np.maximum(+-0, 0) is +0, so the bits are those of a pool of the ReLU.

    Its ctx keeps the input and, after a pool, the pool's mask, never the
    output: the layer above applies this ReLU's backward, as a conv masks
    its d_input with the sign of its input, the rectified output of the conv
    below (GlobalAvgPool and Flatten do so for the last conv). The backward
    hands the pooled gradient and the mask to conv2d_backward, which runs
    the pool's backward inside its band walks, so the full-size gradient of
    this conv is not built either. Above the lowest conv of the tape, when
    that one does not pool, the input is a recipe instead (see _walk), which
    the backward runs to get it back."""

    name: str
    in_ch: int
    out_ch: int
    pool: bool = False

    def shapes(self):
        return {f"{self.name}.w": (self.out_ch, self.in_ch, KERNEL, KERNEL),
                f"{self.name}.b": (self.out_ch,)}

    def forward(self, params, x):
        cp = nn.ConvParams(params[f"{self.name}.w"], params[f"{self.name}.b"],
                           stride=1, padding=KERNEL // 2)
        out = nn.conv2d_forward(x, cp, relu=True, pool=self.pool)
        y, mask = out if self.pool else (out, None)
        return y, [x, cp, mask]

    def backward(self, ctx, dy, need_dx):
        """The conv's backward, with d_input if need_dx, and the pool's
        inside it: dy has this conv's ReLU backward applied and, after a
        pool, is the pooled gradient, which conv2d_backward unpools band by
        band with the mask. A recipe input is run again first, while that
        quarter-size dy is alive, and the input leaves ctx (a list) straight
        into conv2d_backward, which frees it before the d_input products."""
        mask, cp = ctx.pop(), ctx.pop()
        return _param_grads(self.name, nn.conv2d_backward(
            _rerun(ctx.pop()), cp, dy, with_input=need_dx, relu=need_dx, mask=mask))


def _rerun(x) -> Tensor:
    """A taped input, or the output of the recipe that stands for it: a
    call of its own, so that no name in Conv.backward holds the input."""
    return x if isinstance(x, Tensor) else x()[0]


@dataclass(frozen=True)
class Dense(Layer):
    """Affine map [N x fan_in] -> [N x out]."""

    name: str
    fan_in: int
    out: int

    def shapes(self):
        return {f"{self.name}.w": (self.fan_in, self.out), f"{self.name}.b": (self.out,)}

    def forward(self, params, x):
        w = params[f"{self.name}.w"]
        return nn.dense_forward(x, w, params[f"{self.name}.b"]), (x, w)

    def backward(self, ctx, dy, need_dx):
        return _param_grads(self.name, nn.dense_backward(*ctx, dy))


class Relu(Layer):
    """Keeps its output as ctx, the array the next layer keeps as its input."""

    def forward(self, params, x):
        y = nn.relu(x)
        return y, y

    def backward(self, ctx, dy, need_dx):
        return nn.relu_backward(ctx, dy), {}


class GlobalAvgPool(Layer):
    """Keeps its input, the last conv's rectified output, as ctx, and applies
    that conv's ReLU backward to its input gradient."""

    def forward(self, params, x):
        return nn.global_avg_pool(x), x

    def backward(self, ctx, dy, need_dx):
        return nn.relu_backward(ctx, nn.global_avg_pool_backward(ctx.shape, dy)), {}


class Flatten(Layer):
    """Keeps its input, the last conv's rectified output, as ctx (its flat
    output is a view of it), and applies that conv's ReLU backward to its
    input gradient."""

    def forward(self, params, x):
        return Tensor._wrap(np.ascontiguousarray(x.array.reshape(x.shape[0], -1))), x

    def backward(self, ctx, dy, need_dx):
        return nn.relu_backward(ctx, Tensor._wrap(dy.array.reshape(ctx.shape))), {}


def layers(spec: ArchSpec) -> tuple[list[Layer], list[Layer]]:
    """(feature layers, head layers) in forward order.

    The feature layers end in the final conv maps that CAM projects onto;
    the head turns those maps into logits.
    """
    features: list[Layer] = []
    in_ch = spec.in_channels
    for b, (count, filters) in enumerate(spec.blocks, 1):
        for i in range(1, count + 1):
            features.append(Conv(f"block{b}.conv{i}", in_ch, filters, pool=i == count))
            in_ch = filters
    if isinstance(spec.head, GapHead):
        head: list[Layer] = [GlobalAvgPool()]
        fan_in = spec.final_filters
    else:
        head = [Flatten()]
        fan_in = spec.final_filters * spec.map_size * spec.map_size
        for i, width in enumerate(spec.head.widths, 1):
            head += [Dense(f"head.fc{i}", fan_in, width), Relu()]
            fan_in = width
    head.append(Dense("head.out", fan_in, spec.num_classes))
    return features, head


def param_shapes(spec: ArchSpec) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter by name, in layer order: the architecture
    without its weights."""
    features, head = layers(spec)
    return {name: shape for layer in features + head for name, shape in layer.shapes().items()}


def build(spec: ArchSpec, seed: int) -> Model:
    """Instantiate a model; (spec, seed) fully determines every parameter bit.

    Weights are fan-in-scaled uniform draws (bound sqrt(6/fan_in)) from a
    single seeded stream consumed in layer order; biases start at zero.
    """
    params = _draw(param_shapes(spec), np.random.default_rng(seed))
    return Model(spec=spec, params=params, trainable={name: True for name in params})


def param_block(name: str) -> int | None:
    """Block number encoded in a parameter name, or None for head parameters."""
    m = re.match(r"block(\d+)\.", name)
    return int(m.group(1)) if m else None


def replace_head(model: Model, num_classes: int, seed: int) -> Model:
    """Swap the classifier head for a freshly initialized one of a new width.

    Convolutional parameters are shared bit-for-bit with the input model;
    the new head is marked trainable.
    """
    spec = replace(model.spec, num_classes=num_classes)
    params = {n: t for n, t in model.params.items() if param_block(n) is not None}
    head = {n: s for n, s in param_shapes(spec).items() if param_block(n) is None}
    params.update(_draw(head, np.random.default_rng(seed)))
    trainable = {n: param_block(n) is None or model.trainable[n] for n in params}
    return Model(spec=spec, params=params, trainable=trainable)


def set_trainable(model: Model, freeze_up_to_block: int) -> Model:
    """Freeze blocks 1..k; blocks above k and the head become trainable."""
    blocks = len(model.spec.blocks)
    if not 0 <= freeze_up_to_block <= blocks:
        raise ValueError(f"freeze depth {freeze_up_to_block} out of range 0..{blocks}")
    trainable = {}
    for name in model.params:
        b = param_block(name)
        trainable[name] = b is None or b > freeze_up_to_block
    return Model(spec=model.spec, params=model.params, trainable=trainable)


@dataclass(frozen=True)
class ForwardTrace:
    """Model outputs plus the feature maps CAM projects onto."""

    logits: Tensor
    probs: Tensor
    final_conv_maps: Tensor


def _trains(model: Model, layer: Layer) -> bool:
    return any(model.trainable[n] for n in layer.shapes())


def _walk(model: Model, stack: list[Layer], x: Tensor, tape) -> Tensor:
    """Run the layers in order. A ctx is dropped once it is on the tape, or at
    once without one or below the lowest layer with a trainable parameter,
    so an untaped layer frees its input as soon as its output exists.

    The lowest conv of the tape, when it does not pool, writes a full-size
    map as large as any of the step, which the tape would keep only as the
    next conv's input. That conv's ctx keeps a recipe in its place, the
    conv below and the input that its own ctx holds, so the map is freed
    once the next conv's forward returns and is built again in that conv's
    backward (Chen et al., arXiv:1604.06174, for one layer). The forward
    is deterministic, so every gradient keeps its bits."""
    for layer in stack:
        x, ctx = layer.forward(model.params, x)
        if tape is not None and (tape or _trains(model, layer)):
            if len(tape) == 1 and isinstance(layer, Conv):
                below, below_ctx = tape[0]
                if isinstance(below, Conv) and not below.pool:
                    ctx[0] = partial(below.forward, model.params, below_ctx[0])
            tape.append((layer, ctx))
        del ctx
    return x


def _images(spec: ArchSpec, batch) -> Iterable[Tensor]:
    """The images of a batch as (1, C, H, W) tensors, checked against the
    input shape: views of an NCHW tensor, all checked before the first, or
    each CHW tensor of a sequence, checked and viewed as the walk reaches it."""
    expect = (spec.in_channels, spec.input_size, spec.input_size)
    if isinstance(batch, Tensor):
        if batch.rank != 4:
            raise ShapeError(f"batch must be NCHW, got {batch.shape}")
        if batch.shape[1:] != expect:
            raise ShapeError(f"batch shape {batch.shape[1:]} != expected {expect}")
        return [Tensor._wrap(batch.array[i : i + 1]) for i in range(batch.shape[0])]
    return (_one_image(image, expect) for image in batch)


def _one_image(image: Tensor, expect: tuple[int, int, int]) -> Tensor:
    if image.shape != expect:
        raise ShapeError(f"image shape {image.shape} != expected {expect}")
    return Tensor._wrap(image.array[None])


def _run(model: Model, batch: Tensor | Iterable[Tensor], tape=None) -> ForwardTrace:
    """Forward pass; tapes (layer, ctx) from the lowest trainable layer up,
    given a tape; the output of that layer, if it is a conv that does not
    pool, stands in the next ctx as a recipe (see _walk). The feature
    layers below that one (all of them without a tape) run untaped on each
    image alone, and their outputs are concatenated; the layers above and
    the head run on the whole batch. A conv's bits do not depend on its
    band edges, so the outputs are those of the whole batch.

    The batch is an NCHW tensor or a sequence of CHW images. A sequence is
    read one image at a time as the walk reaches it, so a generator that
    decodes each image on demand never holds the group's input at once. A
    batch tensor whose lowest layer is taped goes to it whole, uncopied."""
    features, head = layers(model.spec)
    low = next((i for i, layer in enumerate(features)
                if tape is not None and _trains(model, layer)), len(features))
    images = _images(model.spec, batch)
    if low == 0 and isinstance(batch, Tensor):
        x = batch
    else:
        x = Tensor._wrap(np.concatenate([_walk(model, features[:low], image, None).array
                                         for image in images]))
    maps = _walk(model, features[low:], x, tape)
    logits = _walk(model, head, maps, tape)
    return ForwardTrace(logits=logits, probs=nn.softmax(logits), final_conv_maps=maps)


def forward(model: Model, batch: Tensor | Iterable[Tensor]) -> ForwardTrace:
    """Untaped forward pass of an NCHW batch, or of a sequence of CHW images
    (a generator may decode each on demand): the convs run one image at a
    time, so memory does not grow with the batch, and the head runs once on
    the whole batch's final maps, which gives both inputs the same bits.
    Finite weights can still overflow float32: logits that are not finite
    raise DivergenceError."""
    trace = _run(model, batch)
    if not np.isfinite(trace.logits.array).all():
        raise DivergenceError("the logits are not finite")
    return trace


def loss_and_gradients(model: Model, batch: Tensor, targets) -> tuple[float, Tensor, dict[str, Tensor]]:
    """One forward/backward pass: (mean loss, probs, gradient per trainable
    parameter). The layers below the lowest trainable one run untaped, the
    feature layers one image at a time, and that one skips d_input; each
    (layer, ctx) leaves the tape as its backward runs, so an activation is
    freed once no layer below still reads it. The output of the lowest
    layer, when it is a conv that does not pool, is not taped at all: the
    conv above builds it again from the taped input, while only its own
    incoming gradient (quarter-size if it pools) is alive, so one conv
    forward is run twice."""
    tape: list = []
    probs = _run(model, batch, tape).probs
    loss = nn.cross_entropy(probs, targets)
    grads: dict[str, Tensor] = {}
    # The gradient waits between backwards in a list that each call empties,
    # so no name here holds it while the backward that received it runs.
    d = [nn.cross_entropy_backward(probs, targets)]
    while tape:
        layer, ctx = tape.pop()
        dx, layer_grads = layer.backward(ctx, d.pop(), bool(tape))
        d.append(dx)
        del dx
        grads.update(layer_grads)
    return loss, probs, grads


def predict(model: Model, image: Tensor) -> tuple[int, Tensor]:
    """Classify one CHW image; ties break to the lowest class index."""
    if image.rank != 3:
        raise ShapeError(f"image must be CHW, got {image.shape}")
    batch = Tensor._wrap(np.ascontiguousarray(image.array[None]))
    trace = forward(model, batch)
    probs = Tensor._wrap(np.ascontiguousarray(trace.probs.array[0]))
    return int(np.argmax(probs.array)), probs


def gap_head_weights(model: Model) -> Tensor:
    """Classifier weights [C x num_classes] for CAM; errors on FC-head models."""
    if not isinstance(model.spec.head, GapHead):
        raise CapabilityError("class activation mapping requires a GAP-head model")
    return model.params["head.out.w"]


def spec_from_params(params: dict[str, Tensor], input_size: int | None = None) -> ArchSpec:
    """Reconstruct an ArchSpec from a parameter map (for loading archives).

    For GAP-head maps the input size is not encoded in any shape, so it
    defaults to 224 unless given; FC-head maps determine it exactly.
    """
    def shape(name: str, rank: int) -> tuple[int, ...]:
        if params[name].rank != rank:
            raise ValueError(f"{name} has rank {params[name].rank}, expected {rank}")
        return params[name].shape

    def count(name: str) -> int:
        """How many of name % 1, name % 2, ... are present, up to the first gap."""
        n = 0
        while name % (n + 1) in params:
            n += 1
        return n

    blocks: list[tuple[int, int]] = []
    for b in range(1, count("block%d.conv1.w") + 1):
        filters = [shape(f"block{b}.conv{i}.w", 4)[0]
                   for i in range(1, count(f"block{b}.conv%d.w") + 1)]
        blocks.append((len(filters), filters[-1]))
    if not blocks:
        raise ValueError("parameter map contains no convolution blocks")
    in_channels = shape("block1.conv1.w", 4)[1]
    if "head.out.w" not in params:
        raise ValueError("parameter map has no classifier head")
    num_classes = shape("head.out.w", 2)[1]
    if "head.fc1.w" in params:
        head: Head = FcHead(tuple(shape(f"head.fc{i}.w", 2)[1]
                                  for i in range(1, count("head.fc%d.w") + 1)))
        flat = shape("head.fc1.w", 2)[0]
        side = int(round(math.sqrt(flat / blocks[-1][1])))
        size = side * (2 ** len(blocks))
    else:
        head = GapHead()
        size = input_size if input_size is not None else 224
    return ArchSpec(tuple(blocks), head, num_classes, in_channels, size)
