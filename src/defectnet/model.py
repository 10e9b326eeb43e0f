"""VGG-style block architectures as one layer list, with transfer-learning surgery.

A model is an ordered map of named parameters plus per-parameter
trainability flags. Names encode (block, layer, role), e.g.
"block3.conv2.w" or "head.out.b", so freezing by block depth is
well-defined. Two presets ship: "paper-vgg16" (filter widths
32/64/128/256/256) and "canonical-vgg16" (64/128/256/512/512).

`layers(spec)` lists the layers of an ArchSpec in forward order: conv +
ReLU pairs and a max-pool per block, then the head. build, replace_head,
forward and loss_and_gradients all walk that list, so it is the one
place that knows the order of layers and parameters.

The default head is GAP -> single dense -> softmax, which serves both
classification and class-activation mapping; a conventional FC head is
available through ArchSpec for comparison runs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

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
            raise ValueError(f"input_size {self.input_size} is not a positive size "
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

    forward(params, x) -> (y, ctx) keeps in ctx what backward(ctx, dy) ->
    (dx, grads by parameter name) needs; init(rng) draws its parameters.
    """

    def init(self, rng: np.random.Generator) -> dict[str, Tensor]:
        return {}


def _draw(name: str, rng: np.random.Generator, shape, out: int) -> dict[str, Tensor]:
    """Uniform weights (bound sqrt(6/fan_in), fan_in = weights per output) and zero biases."""
    bound = math.sqrt(6.0 / (math.prod(shape) // out))
    w = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return {f"{name}.w": Tensor._wrap(w), f"{name}.b": Tensor.zeros((out,))}


def _param_grads(name: str, lg: nn.LayerGradients):
    return lg.d_input, {f"{name}.w": lg.d_params["weights"], f"{name}.b": lg.d_params["bias"]}


@dataclass(frozen=True)
class Conv(Layer):
    """3x3 same-padded, stride-1 convolution. The first conv of a model
    reads the input batch, whose gradient nothing uses, so it skips d_input."""

    name: str
    in_ch: int
    out_ch: int
    first: bool = False

    def init(self, rng):
        return _draw(self.name, rng, (self.out_ch, self.in_ch, KERNEL, KERNEL), self.out_ch)

    def forward(self, params, x):
        cp = nn.ConvParams(params[f"{self.name}.w"], params[f"{self.name}.b"],
                           stride=1, padding=KERNEL // 2)
        return nn.conv2d_forward(x, cp), (x, cp)

    def backward(self, ctx, dy):
        return _param_grads(self.name, nn.conv2d_backward(*ctx, dy, with_input=not self.first))


@dataclass(frozen=True)
class Dense(Layer):
    """Affine map [N x fan_in] -> [N x out]."""

    name: str
    fan_in: int
    out: int

    def init(self, rng):
        return _draw(self.name, rng, (self.fan_in, self.out), self.out)

    def forward(self, params, x):
        w = params[f"{self.name}.w"]
        return nn.dense_forward(x, w, params[f"{self.name}.b"]), (x, w)

    def backward(self, ctx, dy):
        return _param_grads(self.name, nn.dense_backward(*ctx, dy))


class Relu(Layer):
    """Keeps its output as ctx, the array the next layer keeps as its input."""

    def forward(self, params, x):
        y = nn.relu(x)
        return y, y

    def backward(self, ctx, dy):
        return nn.relu_backward(ctx, dy), {}


class MaxPool(Layer):
    def forward(self, params, x):
        return nn.maxpool2d_forward(x)

    def backward(self, ctx, dy):
        return nn.maxpool2d_backward(ctx, dy), {}


class GlobalAvgPool(Layer):
    def forward(self, params, x):
        return nn.global_avg_pool(x), x.shape

    def backward(self, ctx, dy):
        return nn.global_avg_pool_backward(ctx, dy), {}


class Flatten(Layer):
    def forward(self, params, x):
        return Tensor._wrap(np.ascontiguousarray(x.array.reshape(x.shape[0], -1))), x.shape

    def backward(self, ctx, dy):
        return Tensor._wrap(np.ascontiguousarray(dy.array.reshape(ctx))), {}


def layers(spec: ArchSpec) -> tuple[list[Layer], list[Layer]]:
    """(feature layers, head layers) in forward order.

    The feature layers end in the final conv maps that CAM projects onto;
    the head turns those maps into logits.
    """
    features: list[Layer] = []
    in_ch = spec.in_channels
    for b, (count, filters) in enumerate(spec.blocks, 1):
        for i in range(1, count + 1):
            features += [Conv(f"block{b}.conv{i}", in_ch, filters, first=not features), Relu()]
            in_ch = filters
        features.append(MaxPool())
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


def build(spec: ArchSpec, seed: int) -> Model:
    """Instantiate a model; (spec, seed) fully determines every parameter bit.

    Weights are fan-in-scaled uniform draws (bound sqrt(6/fan_in)) from a
    single seeded stream consumed in layer order; biases start at zero.
    """
    rng = np.random.default_rng(seed)
    features, head = layers(spec)
    params: dict[str, Tensor] = {}
    for layer in features + head:
        params.update(layer.init(rng))
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
    rng = np.random.default_rng(seed)
    for layer in layers(spec)[1]:
        params.update(layer.init(rng))
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


def _walk(stack: list[Layer], params: dict[str, Tensor], x: Tensor, tape) -> Tensor:
    for layer in stack:
        x, ctx = layer.forward(params, x)
        if tape is not None:
            tape.append((layer, ctx))
    return x


def _run(model: Model, batch: Tensor, tape=None) -> ForwardTrace:
    """Forward pass; appends (layer, ctx) per layer to tape when one is given."""
    spec = model.spec
    if batch.rank != 4:
        raise ShapeError(f"batch must be NCHW, got {batch.shape}")
    expect = (spec.in_channels, spec.input_size, spec.input_size)
    if batch.shape[1:] != expect:
        raise ShapeError(f"batch shape {batch.shape[1:]} != expected {expect}")
    features, head = layers(spec)
    maps = _walk(features, model.params, batch, tape)
    logits = _walk(head, model.params, maps, tape)
    return ForwardTrace(logits=logits, probs=nn.softmax(logits), final_conv_maps=maps)


def forward(model: Model, batch: Tensor) -> ForwardTrace:
    """Forward pass. Finite weights can still overflow float32: logits that
    are not finite raise DivergenceError."""
    trace = _run(model, batch)
    if not np.isfinite(trace.logits.array).all():
        raise DivergenceError("the logits are not finite")
    return trace


def loss_and_gradients(model: Model, batch: Tensor, targets) -> tuple[float, Tensor, dict[str, Tensor]]:
    """One forward/backward pass: (mean loss, probs, gradient per parameter).

    Each (layer, ctx) leaves the tape as its backward runs, so an
    activation is freed once no layer below still reads it.
    """
    tape: list = []
    trace = _run(model, batch, tape)
    loss = nn.cross_entropy(trace.probs, targets)
    grads: dict[str, Tensor] = {}
    d = nn.cross_entropy_backward(trace.probs, targets)
    while tape:
        layer, ctx = tape.pop()
        d, layer_grads = layer.backward(ctx, d)
        grads.update(layer_grads)
    return loss, trace.probs, grads


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

    blocks: list[tuple[int, int]] = []
    b = 1
    while f"block{b}.conv1.w" in params:
        i = 1
        filters = None
        while f"block{b}.conv{i}.w" in params:
            filters = shape(f"block{b}.conv{i}.w", 4)[0]
            i += 1
        blocks.append((i - 1, filters))
        b += 1
    if not blocks:
        raise ValueError("parameter map contains no convolution blocks")
    in_channels = shape("block1.conv1.w", 4)[1]
    if "head.out.w" not in params:
        raise ValueError("parameter map has no classifier head")
    num_classes = shape("head.out.w", 2)[1]
    if "head.fc1.w" in params:
        widths = []
        i = 1
        while f"head.fc{i}.w" in params:
            widths.append(shape(f"head.fc{i}.w", 2)[1])
            i += 1
        head: Head = FcHead(tuple(widths))
        flat = shape("head.fc1.w", 2)[0]
        side = int(round(math.sqrt(flat / blocks[-1][1])))
        size = side * (2 ** len(blocks))
    else:
        head = GapHead()
        size = input_size if input_size is not None else 224
    return ArchSpec(tuple(blocks), head, num_classes, in_channels, size)
