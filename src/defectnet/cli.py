"""Command-line surface: prepare data, train, evaluate, predict and
render CAM overlays.

Exit codes are a stable contract: 0 success, 2 config problem,
3 data/model problem, 4 input image problem, 5 missing model capability.
Every command is deterministic: identical inputs, config and seed give
byte-identical output files.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import cam as cam_mod
from . import metrics, model as model_mod, weights_io
from .data import (AugmentParams, image_from_tensor, image_to_tensor, load_dataset,
                   ppm_files, read_ppm, slice_image, split, write_ppm)
from .errors import (ArchiveError, CapabilityError, ConfigError, DatasetError,
                     DivergenceError, ImageSizeError, PpmParseError, ShapeError)
from .labels import LABEL_NAMES, label_index
from .model import ArchSpec, FcHead, GapHead, arch_preset, build, set_trainable
from .tensor import Tensor
from .train import TrainConfig, evaluate, train

# One flat key=value namespace; unknown keys are an error so typos fail fast.
DEFAULTS = {
    "arch": "paper-vgg16",        # preset name, or "custom" with custom_blocks
    "custom_blocks": "",          # e.g. "2x32,2x64" -> [(2,32),(2,64)]
    "head": "gap",                # gap | fc
    "fc_widths": "4096,4096",     # dense widths when head=fc
    "input_size": 224,
    "freeze_blocks": 0,
    "epochs": 50,
    "batch_size": 32,
    "steps_per_epoch": 250,
    "learning_rate": 1e-3,
    "momentum": 0.9,
    "seed": 0,
    "rotation_max_deg": 20.0,
    "shift_max_frac": 0.1,
    "allow_hflip": True,
    "allow_vflip": True,
    "aug_seed": 0,
    "val_fraction": 0.2,
    "data_dir": "data",
    "out_dir": "run",
    "init_weights": "",           # optional .dnw to load before training
    "init_policy": "skip-missing",
}


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"config key {key!r}: expected a boolean, got {raw!r}")


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines ('#' comments); unknown keys are errors."""
    cfg = dict(DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        default = DEFAULTS[key]
        try:
            if isinstance(default, bool):
                cfg[key] = _parse_bool(key, raw)
            elif isinstance(default, int):
                cfg[key] = int(raw)
            elif isinstance(default, float):
                cfg[key] = float(raw)
            else:
                cfg[key] = raw
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: bad value for {key!r}: {raw!r}") from exc
    return cfg


def load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from None
    return parse_config_text(text)


def _parse_blocks(text: str) -> tuple[tuple[int, int], ...]:
    blocks = []
    for part in text.split(","):
        part = part.strip()
        try:
            count, filters = part.split("x")
            blocks.append((int(count), int(filters)))
        except ValueError:
            raise ConfigError(
                f"bad custom_blocks entry {part!r}; expected COUNTxFILTERS like 2x32"
            ) from None
    return tuple(blocks)


def arch_from_config(cfg: dict) -> ArchSpec:
    if cfg["head"] not in ("gap", "fc"):
        raise ConfigError(f"unknown head kind {cfg['head']!r}; use gap or fc")
    head = GapHead()
    if cfg["head"] == "fc":
        try:
            head = FcHead(tuple(int(w) for w in cfg["fc_widths"].split(",")))
        except ValueError:
            raise ConfigError(f"bad fc_widths {cfg['fc_widths']!r}; "
                              "expected positive widths like 4096,4096") from None
    try:
        if cfg["arch"] == "custom":
            if not cfg["custom_blocks"]:
                raise ConfigError("arch=custom needs custom_blocks")
            return ArchSpec(_parse_blocks(cfg["custom_blocks"]), head,
                            num_classes=len(LABEL_NAMES), input_size=cfg["input_size"])
        return arch_preset(cfg["arch"], head, num_classes=len(LABEL_NAMES),
                           input_size=cfg["input_size"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_run_meta(path: Path, cfg: dict, model) -> None:
    trainable = ",".join(n for n, on in model.trainable.items() if on)
    lines = [f"{k} = {cfg[k]}" for k in sorted(cfg)]
    lines.append(f"format_version = {weights_io.FORMAT_VERSION}")
    lines.append(f"label_names = {','.join(LABEL_NAMES)}")
    lines.append(f"trainable_params = {trainable}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_meta_input_size(model_path: Path) -> int | None:
    meta = model_path.parent / "run.meta"
    if not meta.is_file():
        return None
    try:
        text = meta.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ArchiveError(f"{meta} beside the model archive is not UTF-8") from None
    except OSError as exc:
        raise ArchiveError(f"cannot read {meta} beside the model archive: "
                           f"{exc.strerror or exc}") from None
    for line in text.splitlines():
        key, _, raw = line.partition("=")
        if key.strip() == "input_size":
            try:
                size = int(raw)
            except ValueError:
                size = 0
            if size < 1:
                raise ArchiveError(f"input_size = {raw.strip()!r} in {meta} "
                                   "is not a positive integer")
            return size
    return None


@contextmanager
def _naming(path):
    """Put the archive's path in front of an ArchiveError raised in the block."""
    try:
        yield
    except ArchiveError as exc:
        raise ArchiveError(f"{path}: {exc}") from None


def _read_archive(p: Path) -> dict[str, Tensor]:
    if not p.is_file():
        raise ArchiveError(f"model archive not found: {p}")
    try:
        with open(p, "rb") as fh, _naming(p):
            return weights_io.read_weights(fh)
    except OSError as exc:
        raise ArchiveError(f"cannot read model archive {p}: {exc.strerror or exc}") from None


def load_model(path) -> model_mod.Model:
    """Rebuild a model from an archive; the architecture is read off the
    parameter names/shapes, with input size from a sibling run.meta if any.
    The archive must hold exactly the parameters of that architecture, as
    under the strict policy; no weights are drawn."""
    p = Path(path)
    params = _read_archive(p)
    input_size = _read_meta_input_size(p)
    try:
        spec = model_mod.spec_from_params(params, input_size=input_size)
    except ValueError as exc:
        if isinstance(exc, model_mod.InputSizeError) and input_size is not None:
            raise ArchiveError(f"{p.parent / 'run.meta'} does not fit the model in {p}: "
                               f"{exc}") from None
        raise ArchiveError(f"cannot reconstruct architecture from {p}: {exc}") from exc
    if spec.num_classes != len(LABEL_NAMES):
        raise ArchiveError(f"model in {p} classifies {spec.num_classes} classes, "
                           f"the labels are {len(LABEL_NAMES)}")
    if spec.in_channels != 3:
        raise ArchiveError(f"model in {p} takes {spec.in_channels} input channels, "
                           "an RGB image has 3")
    shapes = model_mod.param_shapes(spec)
    with _naming(p):
        weights_io.check_strict(shapes, params)
    return model_mod.Model(spec, {n: params[n] for n in shapes}, dict.fromkeys(shapes, True))


def _check_output_file(path) -> None:
    """Reject an output file path that is a directory, before any work."""
    if Path(path).is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")


def _check_output_dir(path) -> None:
    """Reject an output directory path that names an existing non-directory."""
    if Path(path).exists() and not Path(path).is_dir():
        raise ConfigError(f"cannot write into {path}: it is not a directory")


@contextmanager
def _writing(path):
    """Turn an OSError raised while writing an output into a ConfigError naming it."""
    try:
        yield path
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


@contextmanager
def _replacing(*paths):
    """Yield a temp path beside each output file. Once the block has written
    them all (each inside _writing, so that an error names its output),
    move each into place with os.replace: a write that fails leaves every
    old output as it was, and no temp file stays behind."""
    paths = [Path(p) for p in paths]
    tmps = [p.with_name(f".{p.name}.tmp") for p in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            with _writing(path):
                os.replace(tmp, path)
    finally:
        for tmp in tmps:
            # gone once moved; and a failed clean-up must not hide the error
            # that stopped the block
            with suppress(OSError):
                tmp.unlink()


@contextmanager
def _serving(path):
    """Run the forwards of the model loaded from path with float overflow
    unwarned. Finite weights can still overflow float32; model.forward then
    rejects the logits, and the error names the archive. CAM maps are
    finite wherever the logits of a GAP head are."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            yield
        except DivergenceError as exc:
            raise ArchiveError(f"model archive {path}: {exc} "
                               "(its weights overflow float32)") from None


def _require_image(path, size: int):
    img = read_ppm(path)
    if (img.width, img.height) != (size, size):
        raise ImageSizeError(f"{path}: image must be {size}x{size}, "
                             f"got {img.width}x{img.height}")
    return img


# --- commands ----------------------------------------------------------------

def cmd_prepare(args) -> int:
    if args.tile < 1:
        raise ConfigError(f"--tile must be >= 1, got {args.tile}")
    src = Path(args.src_dir)
    if not src.is_dir():
        raise ConfigError(f"source directory not readable: {src}")
    out = Path(args.out_dir)
    _check_output_dir(out)
    total = 0
    for name in LABEL_NAMES:
        count = 0
        files = ppm_files(src / name) if (src / name).is_dir() else []
        with _writing(out / name) as path:
            path.mkdir(parents=True, exist_ok=True)
        for f in files:
            img = read_ppm(f)
            for i, tile in enumerate(slice_image(img, args.tile)):
                with _writing(out / name / f"{f.stem}_t{i}.ppm") as path:
                    write_ppm(path, tile)
                count += 1
        if count == 0:
            print(f"warning: no tiles for class {name!r}")
        print(f"{name}: {count} tiles")
        total += count
    print(f"total: {total} tiles")
    return 0


def _train_settings(cfg: dict) -> tuple[AugmentParams, TrainConfig]:
    """Range-check the training settings, before any file is read."""
    if not 0.0 < cfg["val_fraction"] < 1.0:
        raise ConfigError(f"val_fraction must be in (0,1), got {cfg['val_fraction']}")
    if cfg["aug_seed"] < 0:
        raise ConfigError(f"aug_seed must be non-negative, got {cfg['aug_seed']}")
    if cfg["init_policy"] not in weights_io.POLICIES:
        raise ConfigError(f"unknown init_policy {cfg['init_policy']!r}; "
                          f"use {' or '.join(weights_io.POLICIES)}")
    try:
        aug = AugmentParams(
            rotation_max_deg=cfg["rotation_max_deg"],
            shift_max_frac=cfg["shift_max_frac"],
            allow_hflip=cfg["allow_hflip"],
            allow_vflip=cfg["allow_vflip"],
            rng_seed=cfg["aug_seed"],
        )
        tc = TrainConfig(
            epochs=cfg["epochs"], batch_size=cfg["batch_size"],
            steps_per_epoch=cfg["steps_per_epoch"], learning_rate=cfg["learning_rate"],
            momentum=cfg["momentum"], seed=cfg["seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return aug, tc


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    aug, tc = _train_settings(cfg)
    spec = arch_from_config(cfg)
    if not 0 <= cfg["freeze_blocks"] <= len(spec.blocks):
        raise ConfigError(f"freeze_blocks must be in 0..{len(spec.blocks)}, "
                          f"got {cfg['freeze_blocks']}")
    out = Path(cfg["out_dir"])
    _check_output_dir(out)
    try:
        net = build(spec, seed=cfg["seed"])
    except MemoryError:
        raise ConfigError("the architecture of custom_blocks, fc_widths and input_size "
                          "does not fit in memory") from None
    net = set_trainable(net, cfg["freeze_blocks"])
    if cfg["init_weights"]:
        init = Path(cfg["init_weights"])
        params = _read_archive(init)
        with _naming(init):
            net = weights_io.load_into(net, params, cfg["init_policy"])
    ds = load_dataset(cfg["data_dir"])
    for w in ds.warnings:
        print(f"warning: {w}")
    train_ds, val_ds = split(ds, cfg["val_fraction"], cfg["seed"])
    for name, part in (("training", train_ds), ("validation", val_ds)):
        if not len(part):
            raise DatasetError(f"the {name} split is empty: {len(ds)} images in "
                               f"{cfg['data_dir']} at val_fraction = {cfg['val_fraction']}")
    net, history = train(net, train_ds, val_ds, aug, tc)
    with _writing(out) as path:
        path.mkdir(parents=True, exist_ok=True)
    dnw, csv, meta = out / "model.dnw", out / "history.csv", out / "run.meta"
    with _replacing(dnw, csv, meta) as (dnw_tmp, csv_tmp, meta_tmp):
        with _writing(dnw), open(dnw_tmp, "wb") as fh:
            nbytes = weights_io.write_weights(net, fh)
        with _writing(csv):
            csv_tmp.write_text(history.to_csv(), encoding="utf-8")
        with _writing(meta):
            write_run_meta(meta_tmp, cfg, net)
    if history.epochs:
        last = history.epochs[-1]
        print(f"trained {len(history)} epochs; final train_acc={last.train_acc:.4f} "
              f"val_acc={last.val_acc:.4f}")
    print(f"wrote {out / 'model.dnw'} ({nbytes} bytes), history.csv, run.meta")
    return 0


def _read_counts_csv(path) -> metrics.ConfusionMatrix:
    try:
        lines = [l for l in Path(path).read_text(encoding="utf-8").splitlines() if l.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read counts file {path}: {exc}") from None
    header = lines[0] if lines else ""
    if tuple(header.split(",")[1:]) != LABEL_NAMES:
        raise DatasetError(
            f"counts file header must be label,{','.join(LABEL_NAMES)}, got {header!r}"
        )
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != list(LABEL_NAMES):
        raise DatasetError(f"counts rows must be {','.join(LABEL_NAMES)} in this order, "
                           f"got {','.join(r[0] for r in rows)!r}")
    try:
        cm = metrics.ConfusionMatrix.from_rows([r[1:] for r in rows])
    except ValueError as exc:
        raise DatasetError(f"bad counts in {path}: {exc}") from None
    if cm.total() == 0:
        raise DatasetError(f"counts file {path} holds no samples")
    return cm


def _write_counts_csv(path, cm: metrics.ConfusionMatrix) -> None:
    lines = ["label," + ",".join(cm.label_names)]
    for name, row in zip(cm.label_names, cm.counts):
        lines.append(name + "," + ",".join(str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_eval(args) -> int:
    _check_output_file(args.out_csv)
    if args.counts:
        cm = _read_counts_csv(args.counts)
    else:
        if not args.model or not args.test_dir:
            raise ConfigError("eval needs MODEL and TEST_DIR (or --counts FILE)")
        net = load_model(args.model)
        ds = load_dataset(args.test_dir)
        for w in ds.warnings:
            print(f"warning: {w}")
        with _serving(args.model):
            cm = evaluate(net, ds)
    rep = metrics.report(cm)
    sys.stdout.write(metrics.render_text(rep))
    with _replacing(args.out_csv) as (tmp,), _writing(args.out_csv):
        _write_counts_csv(tmp, cm)
    print(f"wrote {args.out_csv}")
    return 0


def cmd_predict(args) -> int:
    net = load_model(args.model)
    img = _require_image(args.image, net.spec.input_size)
    with _serving(args.model):
        label, probs = model_mod.predict(net, image_to_tensor(img))
    p = probs.array
    print(f"{LABEL_NAMES[label]} p_det={p[0]:.4f} p_mould={p[1]:.4f} "
          f"p_normal={p[2]:.4f} p_stain={p[3]:.4f}")
    return 0


def cmd_cam(args) -> int:
    if not 0.0 <= args.alpha <= 1.0:
        raise ConfigError(f"--alpha must be in [0,1], got {args.alpha}")
    if not 0.0 < args.threshold < 1.0:
        raise ConfigError(f"--threshold must be in (0,1), got {args.threshold}")
    try:
        class_idx = None if args.cls == "auto" else label_index(args.cls)
    except ValueError as exc:
        raise ConfigError(f"--class {exc}") from exc
    _check_output_file(args.out)
    net = load_model(args.model)
    head_w = model_mod.gap_head_weights(net)
    img = _require_image(args.image, net.spec.input_size)
    x = image_to_tensor(img)
    with _serving(args.model):
        if class_idx is None:
            class_idx, _ = model_mod.predict(net, x)
        batch = Tensor._wrap(np.ascontiguousarray(x.array[None]))
        trace = model_mod.forward(net, batch)
        heat = cam_mod.compute_cam(trace, head_w, class_idx,
                                   source_size=(img.height, img.width))
    region = cam_mod.bounding_region(heat, args.threshold) if not heat.degenerate else None
    up = cam_mod.upsample(heat, (img.height, img.width))
    blended = cam_mod.overlay(up, x, args.alpha)
    with _replacing(args.out) as (tmp,), _writing(args.out):
        write_ppm(tmp, image_from_tensor(blended))
    if region is None:
        print("none")
    else:
        print(f"region x0={region.x0} y0={region.y0} "
              f"width={region.width} height={region.height}")
    print(f"class {LABEL_NAMES[class_idx]}; wrote {args.out}")
    return 0


# --- entry point ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectnet",
        description="Building-defect classification, training and CAM localisation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="slice labelled source photos into training tiles")
    p.add_argument("src_dir")
    p.add_argument("out_dir")
    p.add_argument("--tile", type=int, default=224)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model from a key=value config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a test tree, or replay counts")
    p.add_argument("model", nargs="?")
    p.add_argument("test_dir", nargs="?")
    p.add_argument("--counts", help="confusion-counts CSV to replay instead of a model")
    p.add_argument("--out-csv", default="confusion.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one PPM image")
    p.add_argument("model")
    p.add_argument("image")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cam", help="write a class-activation overlay for one image")
    p.add_argument("model")
    p.add_argument("image")
    p.add_argument("out")
    p.add_argument("--class", dest="cls", default="auto",
                   help="label name, or 'auto' for the predicted class")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=0.2)
    p.set_defaults(func=cmd_cam)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, ArchiveError, ShapeError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PpmParseError, ImageSizeError) as exc:
        print(f"image error: {exc}", file=sys.stderr)
        return 4
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
