"""Spans around the calls into each defectnet module, recorded from outside.

The tracer replaces module attributes (for example `defectnet.nn.conv2d_backward`
or `defectnet.nn._mm64`) with wrappers that record a span per call: name,
start, end, parent span, the CLI command (unit) it belongs to and, inside
`train.train`, the step. A function imported by name into several modules is
replaced in every one of them, so `from .tensor import _mm64` in nn.py is
traced too. `uninstall` puts every original back.

Work and memory figures attached to spans (flops and float64-copy bytes of a
matrix product, im2col bytes of a convolution) are computed from operand
shapes, not measured. The one measured memory figure is the tracemalloc peak
of a convolution call. It is taken on the first call of each layer, direction
and input shape only: later calls with the same shapes allocate the same
buffers, and tracemalloc on every call of the toy model slowed it by a third.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

# (module, function, span name). Every function of the head (dense, GAP,
# softmax, cross-entropy) shares one span name, as the layer table asks.
TARGETS = [
    ("tensor", "_mm64", "tensor._mm64"),
    ("nn", "conv2d_forward", "nn.conv2d_forward"),
    ("nn", "conv2d_backward", "nn.conv2d_backward"),
    ("nn", "maxpool2d_forward", "nn.maxpool2d_forward"),
    ("nn", "maxpool2d_backward", "nn.maxpool2d_backward"),
    ("nn", "relu", "nn.relu"),
    ("nn", "relu_backward", "nn.relu_backward"),
    ("nn", "global_avg_pool", "nn.head"),
    ("nn", "global_avg_pool_backward", "nn.head"),
    ("nn", "dense_forward", "nn.head"),
    ("nn", "dense_backward", "nn.head"),
    ("nn", "softmax", "nn.head"),
    ("nn", "cross_entropy", "nn.head"),
    ("nn", "cross_entropy_backward", "nn.head"),
    ("model", "build", "model.build"),
    ("model", "forward", "model.forward"),
    ("model", "loss_and_gradients", "model.loss_and_gradients"),
    ("train", "train", "train.train"),
    ("train", "sgd_step", "train.sgd_step"),
    ("train", "_evaluate_with_loss", "train.evaluate"),
    ("data", "read_ppm", "data.read_ppm"),
    ("data", "write_ppm", "data.write_ppm"),
    ("data", "augment", "data.augment"),
    ("data", "image_to_tensor", "data.image_to_tensor"),
    ("data", "load_dataset", "data.load_dataset"),
    ("data", "slice_image", "data.slice_image"),
    ("weights_io", "read_weights", "weights_io.read_weights"),
    ("weights_io", "write_weights", "weights_io.write_weights"),
    ("weights_io", "load_into", "weights_io.load_into"),
    ("cli", "load_model", "cli.load_model"),
    ("cli", "main", "cli.main"),
    ("cam", "compute_cam", "cam.compute_cam"),
    ("cam", "upsample", "cam.upsample"),
    ("cam", "overlay", "cam.overlay"),
    ("cam", "bounding_region", "cam.bounding_region"),
    ("metrics", "report", "metrics.report"),
    ("metrics", "render_text", "metrics.report"),
]

# Span fields, kept as plain lists for low overhead.
NAME, START, END, PARENT, UNIT, STEP, EXTRA = range(7)

MB = 1e6

# Spans whose time under train.train splits into compute, validation and
# data wait (reads, augmentation and conversion of training batches).
TRAIN_PARTS = {"model.loss_and_gradients", "train.evaluate", "data.read_ppm",
               "data.augment", "data.image_to_tensor"}


class Tracer:
    """Collects spans while installed; `spans` survives `uninstall`."""

    def __init__(self):
        self.spans: list[list] = []
        self.unit = None
        self._stack: list[int] = []
        self._step = None
        self._param_names: dict[int, str] = {}
        self._peaked: set[tuple] = set()
        self._patched: list[tuple[object, str, object]] = []

    # --- installing -------------------------------------------------------

    def install(self) -> None:
        modules = {name[len("defectnet."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("defectnet.") and mod is not None}
        before = {
            "tensor._mm64": self._mm64_extra,
            "nn.conv2d_forward": self._conv_extra,
            "nn.conv2d_backward": self._conv_extra,
            "model.forward": self._remember_params,
            "model.loss_and_gradients": self._remember_params,
            "train.train": self._start_steps,
            "data.write_ppm": lambda args: {"mb": _image_mb(args[1])},
            "cli.main": lambda args: {"command": args[0][0]},
        }
        after = {
            "data.read_ppm": lambda span, result: span[EXTRA].update(mb=_image_mb(result)),
            "train.sgd_step": self._count_step,
            "train.train": self._stop_steps,
        }
        memory = {"nn.conv2d_forward", "nn.conv2d_backward"}
        for mod_name, attr, span_name in TARGETS:
            original = getattr(modules[mod_name], attr)
            wrapper = self._wrap(original, span_name, before.get(span_name),
                                 after.get(span_name), span_name in memory)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, fn, name, before, after, peak_memory):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit, self._step,
                    before(args) if before else {}]
            stack.append(len(spans))
            spans.append(span)
            measure = peak_memory and self._first_shape(span, args)
            if measure:
                tracemalloc.start()
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                if measure:
                    span[EXTRA]["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                stack.pop()
            if after:
                after(span, result)
            return result

        return traced

    # --- hooks ------------------------------------------------------------

    @staticmethod
    def _mm64_extra(args):
        a, b = args[0], args[1]
        m, k = a.shape
        n = b.shape[1]
        return {"gflop": 2.0 * m * k * n / 1e9, "f64_mb": 8.0 * (m * k + k * n + m * n) / MB}

    def _conv_extra(self, args):
        x, p = args[0], args[1]
        n, c, h, w = x.shape
        _, _, kh, kw = p.weights.shape
        oh = (h + 2 * p.padding - kh) // p.stride + 1
        ow = (w + 2 * p.padding - kw) // p.stride + 1
        name = self._param_names.get(id(p.weights), "unknown.w")
        return {"layer": name.rsplit(".", 1)[0], "cols_mb": 4.0 * n * oh * ow * c * kh * kw / MB}

    def _first_shape(self, span, args) -> bool:
        key = (span[NAME], span[EXTRA]["layer"], args[0].shape)
        first = key not in self._peaked
        self._peaked.add(key)
        return first

    def _remember_params(self, args):
        self._param_names = {id(t): name for name, t in args[0].params.items()}
        return {}

    def _start_steps(self, args):
        self._step = 0
        return {}

    def _stop_steps(self, span, result):
        self._step = None

    def _count_step(self, span, result):
        self._step += 1

    # --- output -----------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span; times are perf_counter seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "unit": s[UNIT], "step": s[STEP],
                                     **s[EXTRA]}) + "\n")


def _image_mb(img) -> float:
    return 3.0 * img.width * img.height / MB


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children never overlap each other and lie
    inside their parent.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _ancestors(spans, i):
    p = spans[i][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]


def conv_layer_names(blocks) -> list[str]:
    return [f"block{b}.conv{i}" for b, (count, _) in enumerate(blocks, 1)
            for i in range(1, count + 1)]


def layer_metrics(spans, layers, cam_requests: int) -> dict[str, float]:
    """Per-layer totals over the given spans, keyed by metric name.

    `layers` lists the conv layer names to report (every one is reported,
    with 0 where the workload's model has no such layer).
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, st in zip(spans, selfs):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + s[END] - s[START]
        own[name] = own.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1

    def extra_sum(name, key):
        return sum(s[EXTRA].get(key, 0.0) for s in spans if s[NAME] == name)

    m: dict[str, float] = {}
    m["tensor._mm64.calls"] = calls.get("tensor._mm64", 0)
    m["tensor._mm64.self_s"] = own.get("tensor._mm64", 0.0)
    m["tensor._mm64.gflop"] = extra_sum("tensor._mm64", "gflop")
    m["tensor._mm64.f64_copy_mb"] = extra_sum("tensor._mm64", "f64_mb")

    for name in ("nn.conv2d_forward", "nn.conv2d_backward"):
        m[f"{name}.self_s"] = own.get(name, 0.0)
        m[f"{name}.cols_mb"] = extra_sum(name, "cols_mb")
        m[f"{name}.peak_alloc_mb"] = max(
            (s[EXTRA].get("peak_mb", 0.0) for s in spans if s[NAME] == name), default=0.0)
    for name in ("nn.maxpool2d_forward", "nn.maxpool2d_backward", "nn.relu",
                 "nn.relu_backward", "nn.head"):
        m[f"{name}.self_s"] = own.get(name, 0.0)

    per_layer = {}
    for s in spans:
        if s[NAME] in ("nn.conv2d_forward", "nn.conv2d_backward"):
            key = (s[NAME], s[EXTRA]["layer"])
            t, cols, peak = per_layer.get(key, (0.0, 0.0, 0.0))
            per_layer[key] = (t + s[END] - s[START], max(cols, s[EXTRA]["cols_mb"]),
                              max(peak, s[EXTRA].get("peak_mb", 0.0)))
    for layer in layers:
        fwd = per_layer.get(("nn.conv2d_forward", layer), (0.0, 0.0, 0.0))
        bwd = per_layer.get(("nn.conv2d_backward", layer), (0.0, 0.0, 0.0))
        m[f"nn.conv2d_forward.{layer}.s"] = fwd[0]
        m[f"nn.conv2d_backward.{layer}.s"] = bwd[0]
        m[f"nn.conv2d.{layer}.cols_mb"] = max(fwd[1], bwd[1])
        m[f"nn.conv2d_forward.{layer}.peak_alloc_mb"] = fwd[2]
        m[f"nn.conv2d_backward.{layer}.peak_alloc_mb"] = bwd[2]

    m["model.forward.calls"] = calls.get("model.forward", 0)
    m["model.forward.self_s"] = own.get("model.forward", 0.0)
    m["model.loss_and_gradients.self_s"] = own.get("model.loss_and_gradients", 0.0)
    m["model.build.s"] = total.get("model.build", 0.0)

    data_wait = compute = validate = 0.0
    for i, s in enumerate(spans):
        if s[NAME] not in TRAIN_PARTS:
            continue
        above = {spans[a][NAME] for a in _ancestors(spans, i)}
        if "train.train" not in above:
            continue
        d = s[END] - s[START]
        if s[NAME] == "model.loss_and_gradients":
            compute += d
        elif s[NAME] == "train.evaluate":
            validate += d
        elif "train.evaluate" not in above:
            data_wait += d
    m["train.steps"] = calls.get("train.sgd_step", 0)
    m["train.data_wait_s"] = data_wait
    m["train.compute_s"] = compute
    m["train.sgd_step.self_s"] = own.get("train.sgd_step", 0.0)
    m["train.validate_s"] = validate
    m["train.train.self_s"] = own.get("train.train", 0.0)

    m["data.read_ppm.calls"] = calls.get("data.read_ppm", 0)
    m["data.read_ppm.self_s"] = own.get("data.read_ppm", 0.0)
    m["data.read_ppm.mb"] = extra_sum("data.read_ppm", "mb")
    m["data.augment.self_s"] = own.get("data.augment", 0.0)
    m["data.image_to_tensor.self_s"] = own.get("data.image_to_tensor", 0.0)
    m["data.load_dataset.s"] = total.get("data.load_dataset", 0.0)
    m["data.slice_image.self_s"] = own.get("data.slice_image", 0.0)
    m["data.write_ppm.self_s"] = own.get("data.write_ppm", 0.0)
    m["data.write_ppm.mb"] = extra_sum("data.write_ppm", "mb")

    for name in ("read_weights", "write_weights", "load_into"):
        m[f"weights_io.{name}.s"] = total.get(f"weights_io.{name}", 0.0)
    # load_model's self time keeps the build of the fresh model it overwrites.
    m["cli.load_model.self_s"] = own.get("cli.load_model", 0.0) + sum(
        s[END] - s[START] for s in spans
        if s[NAME] == "model.build" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "cli.load_model")
    m["cli.main.self_s"] = own.get("cli.main", 0.0)
    for name in ("compute_cam", "upsample", "overlay", "bounding_region"):
        m[f"cam.{name}.s"] = total.get(f"cam.{name}", 0.0)
    cam_forwards = sum(1 for i, s in enumerate(spans) if s[NAME] == "model.forward"
                       and spans[_root(spans, i)][EXTRA]["command"] == "cam")
    m["cam.forwards_per_request"] = cam_forwards / cam_requests if cam_requests else 0.0
    m["metrics.report.s"] = total.get("metrics.report", 0.0)
    return m


def _root(spans, i) -> int:
    while spans[i][PARENT] >= 0:
        i = spans[i][PARENT]
    return i
