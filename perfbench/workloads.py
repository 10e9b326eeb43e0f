"""Workload inputs, command scripts and output checks.

A workload is a closed loop with one client: a CLI user who waits for each
command before issuing the next. Its script is a first unit of commands and a
list of repeat units that the worker cycles through until the run's time is
up. The parent process builds every input from the workload seed with numpy
alone (`make_plan`); the worker runs the commands and checks each output
against the expectations the plan carries (`observe`, `check`).

Each workload's first unit runs on golden inputs, which do not depend on the
seed, so its output digests can be compared with the ones recorded at the
seed commit in references.json. Repeat units run on inputs made from the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

LABELS = ("deterioration", "mould", "normal", "stain")
WORKLOADS = ("train-vgg224", "infer-vgg224", "toy-pipeline64")
REFERENCES = Path(__file__).with_name("references.json")

GOLDEN_SEED = 0        # content seed of the golden inputs
POOL_SEED = 1          # content seed of the infer-vgg224 image pool
POOL_SIZE = 48         # images with recorded predict/cam references
SERVED_MODEL_SEED = 0  # build seed of the paper-vgg16 model infer-vgg224 serves
PROB_TOLERANCE = 2e-4  # absolute, on the four-decimal probabilities predict prints
MIN_MARGIN = 1e-3      # pool images whose top two probabilities are closer are not used
# At the default 0.2 every CAM of the served, untrained model covers the whole
# image, so the region check could not tell two maps apart.
CAM_THRESHOLD = 0.7

VGG_TRAIN_IMAGES = (3, 3, 2, 2)  # tiles per class; one of the ten is validation
TOY_PHOTOS_PER_CLASS = 4
TOY_PHOTO = (260, 200)           # width, height: a 4x3 grid of 64-px tiles plus a ragged edge
TOY_TILE = 64
TOY_STEPS = 200


# --- synthetic images ---------------------------------------------------------

def texture(cls: int, height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """uint8 HxWx3 image: a class pattern (stripes, checks or flat), a random
    palette, pixel noise and one bright square."""
    period = int(rng.integers(6, 13))
    phase = int(rng.integers(0, period))
    ys, xs = np.indices((height, width))
    half = max(period // 2, 1)
    if cls == 0:
        mask = ((ys + phase) // half) % 2
    elif cls == 1:
        mask = ((xs + phase) // half) % 2
    elif cls == 2:
        mask = (((ys + phase) // period) + ((xs + phase) // period)) % 2
    else:
        mask = np.full((height, width), 0.5)
    lum = 0.5 + 0.35 * (2.0 * mask - 1.0) + rng.uniform(-0.05, 0.05, (height, width))
    img = lum[:, :, None] * rng.uniform(0.6, 1.0, 3)[None, None, :]
    side = min(height, width) // 4
    top = int(rng.integers(0, height - side))
    left = int(rng.integers(0, width - side))
    img[top:top + side, left:left + side] = rng.uniform(0.85, 1.0, (side, side, 3))
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def write_ppm(path: Path, a: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"P6\n%d %d\n255\n" % (a.shape[1], a.shape[0]) + a.tobytes())


def read_ppm(path: Path) -> np.ndarray:
    """Decode a P6 file with the single-space header this benchmark and
    defectnet write."""
    data = Path(path).read_bytes()
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path}: not a P6/255 image")
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(pixels, dtype=np.uint8, count=3 * w * h).reshape(h, w, 3)


def pool_image(i: int, size: int = 224) -> np.ndarray:
    return texture(i % 4, size, size, np.random.default_rng((POOL_SEED, i)))


def _tile_tree(root: Path, seed: int, per_class, size: int) -> None:
    rng = np.random.default_rng(seed)
    for cls, count in enumerate(per_class):
        for k in range(count):
            write_ppm(root / LABELS[cls] / f"img_{k:02d}.ppm", texture(cls, size, size, rng))


def _photo_tree(root: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    w, h = TOY_PHOTO
    for cls in range(4):
        for k in range(TOY_PHOTOS_PER_CLASS):
            write_ppm(root / LABELS[cls] / f"photo_{k}.ppm", texture(cls, h, w, rng))


def _write_config(path: Path, **values) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return str(path)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


# --- plans --------------------------------------------------------------------

def _cmd(kind: str, argv, images: int, fresh: Path | None = None, **check) -> dict:
    """One CLI command; `fresh` names an output directory removed before it runs."""
    return {"kind": kind, "argv": [str(a) for a in argv], "images": images,
            "fresh": str(fresh) if fresh else None, "check": check}


def repeat_units(records: list[dict]) -> list[list[dict]]:
    """Command records grouped by unit, without the first (warm-up) unit."""
    units: dict[int, list[dict]] = {}
    for r in records:
        if r["unit"] > 0:
            units.setdefault(r["unit"], []).append(r)
    return list(units.values())


def _vgg_train_cmd(work: Path, name: str, data: Path, **check) -> dict:
    out = work / f"out_{name}"
    cfg = _write_config(work / f"{name}.cfg", arch="paper-vgg16", input_size=224,
                        batch_size=4, epochs=1, steps_per_epoch=1, val_fraction=0.1,
                        data_dir=data, out_dir=out)
    return _cmd("train", ["train", "--config", cfg], 4, out=str(out), **check)


def _toy_pass(work: Path, name: str, photos: Path, refs: dict | None) -> list[dict]:
    """prepare -> train -> eval -> eval --counts over one photo tree."""
    tiles = work / f"tiles_{name}"
    out = work / f"toy_{name}"
    per_photo = (TOY_PHOTO[0] // TOY_TILE) * (TOY_PHOTO[1] // TOY_TILE)
    per_class = per_photo * TOY_PHOTOS_PER_CLASS
    cfg = _write_config(work / f"toy_{name}.cfg", arch="custom", custom_blocks="1x8,1x16",
                        input_size=TOY_TILE, batch_size=8, epochs=1,
                        steps_per_epoch=TOY_STEPS, val_fraction=0.1,
                        data_dir=tiles, out_dir=out)
    # The first and the last tile of every class's first photo are compared
    # byte for byte with the benchmark's own slicing of that photo.
    samples = [[str(photos / label / "photo_0.ppm"), str(tiles / label / f"photo_0_t{i}.ppm"), i]
               for label in LABELS for i in (0, per_photo - 1)]
    golden = refs is not None
    return [
        _cmd("prepare", ["prepare", photos, tiles, "--tile", TOY_TILE], 0, fresh=tiles,
             tiles={label: per_class for label in LABELS}, samples=samples, tile=TOY_TILE),
        _cmd("train", ["train", "--config", cfg], 8 * TOY_STEPS, out=str(out),
             digest=refs["digest"] if golden else None,
             same_as=None if golden else "toy-seed"),
        _cmd("eval", ["eval", out / "model.dnw", tiles, "--out-csv", out / "confusion.csv"],
             4 * per_class, csv=str(out / "confusion.csv"),
             counts=refs["confusion"] if golden else None, row_sums=[per_class] * 4),
        _cmd("replay", ["eval", "--counts", out / "confusion.csv",
                        "--out-csv", out / "replay.csv"], 0),
    ]


def _infer_request(kind: str, work: Path, i: int, ref: dict | None) -> dict:
    image = work / "pool" / f"p{i:03d}.ppm"
    if kind == "predict":
        return _cmd("predict", ["predict", work / "model.dnw", image], 1, pool=i, ref=ref)
    out = work / "cam.ppm"
    return _cmd("cam", ["cam", work / "model.dnw", image, out, "--class", "auto",
                        "--threshold", CAM_THRESHOLD], 1,
                pool=i, ref=ref, out=str(out))


def make_plan(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under `work` and return its script."""
    refs = load_references()
    work.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed}
    if workload == "train-vgg224":
        _tile_tree(work / "golden", GOLDEN_SEED, VGG_TRAIN_IMAGES, 224)
        _tile_tree(work / "data", seed, VGG_TRAIN_IMAGES, 224)
        plan["first"] = [_vgg_train_cmd(work, "golden", work / "golden",
                                        digest=refs[workload]["digest"], same_as=None)]
        plan["repeat"] = [[_vgg_train_cmd(work, "seed", work / "data", digest=None,
                                          same_as="vgg-seed")]]
        plan["traced_units"] = 1
    elif workload == "toy-pipeline64":
        _photo_tree(work / "photos_golden", GOLDEN_SEED)
        _photo_tree(work / "photos", seed)
        plan["first"] = _toy_pass(work, "golden", work / "photos_golden", refs[workload])
        plan["repeat"] = [_toy_pass(work, "seed", work / "photos", None)]
        plan["traced_units"] = 1
    elif workload == "infer-vgg224":
        pool = refs[workload]["pool"]
        usable = [i for i, r in enumerate(pool) if r["margin"] >= MIN_MARGIN]
        order = [int(i) for i in np.random.default_rng(seed).permutation(usable)]
        held = [[i for i in order if i % 4 == cls][:2] for cls in range(4)]
        eval_ids = [i for ids in held for i in ids]
        counts = [[0] * 4 for _ in range(4)]
        for cls, ids in enumerate(held):
            for i in ids:
                write_ppm(work / "evaldir" / LABELS[cls] / f"p{i:03d}.ppm", pool_image(i))
                counts[cls][LABELS.index(pool[i]["label"])] += 1
        requests = [i for i in order if i not in eval_ids]
        for i in requests:
            write_ppm(work / "pool" / f"p{i:03d}.ppm", pool_image(i))
        plan["model"] = str(work / "model.dnw")
        plan["first"] = [_cmd("eval", ["eval", work / "model.dnw", work / "evaldir",
                                       "--out-csv", work / "confusion.csv"], len(eval_ids),
                              csv=str(work / "confusion.csv"), counts=counts,
                              row_sums=[2, 2, 2, 2])]
        plan["repeat"] = [[_infer_request("predict", work, a, pool[a]),
                           _infer_request("cam", work, b, pool[b])]
                          for a, b in zip(requests[0::2], requests[1::2])]
        plan["traced_units"] = 2
    else:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    return plan


def record_plan(work: Path) -> dict:
    """Every command whose outputs references.json records, once each."""
    work.mkdir(parents=True, exist_ok=True)
    _tile_tree(work / "golden", GOLDEN_SEED, VGG_TRAIN_IMAGES, 224)
    _photo_tree(work / "photos_golden", GOLDEN_SEED)
    fake = {"digest": None, "confusion": None}
    toy = _toy_pass(work, "golden", work / "photos_golden", fake)
    requests = []
    for i in range(POOL_SIZE):
        write_ppm(work / "pool" / f"p{i:03d}.ppm", pool_image(i))
        requests += [_infer_request("predict", work, i, None), _infer_request("cam", work, i, None)]
    return {"workload": "record", "seed": GOLDEN_SEED, "model": str(work / "model.dnw"),
            "first": [_vgg_train_cmd(work, "golden", work / "golden", digest=None, same_as=None)],
            "repeat": [toy, requests], "traced_units": 0, "fixed": True}


def references_from(records: list[dict]) -> dict:
    """Turn the observations of a record_plan run into references.json."""
    vgg = records[0]
    toy = {r["kind"]: r for r in records[1:5]}
    pool: list[dict] = []
    for r in records[5:]:
        obs = r["observed"]
        if r["kind"] == "predict":
            top = sorted(obs["probs"], reverse=True)
            pool.append({"label": obs["label"], "probs": obs["probs"],
                         "margin": round(top[0] - top[1], 4), "predict_sha256": obs["digest"]})
        else:
            pool[-1].update(region=obs["region"], cam_class=obs["class"],
                            cam_sha256=obs["digest"])
    return {
        "train-vgg224": {"digest": vgg["observed"]["digest"]},
        "toy-pipeline64": {"digest": toy["train"]["observed"]["digest"],
                           "confusion": toy["eval"]["observed"]["counts"]},
        "infer-vgg224": {"pool": pool},
    }


def setup(plan: dict) -> None:
    """The program calls a workload makes before its first timed command."""
    if plan["workload"] in ("infer-vgg224", "record"):
        from defectnet import model, weights_io
        net = model.build(model.arch_preset("paper-vgg16"), seed=SERVED_MODEL_SEED)
        with open(plan["model"], "wb") as fh:
            weights_io.write_weights(net, fh)


# --- checks -------------------------------------------------------------------

def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _read_counts(path) -> list[list[int]]:
    lines = Path(path).read_text(encoding="utf-8").split()
    return [[int(v) for v in line.split(",")[1:]] for line in lines[1:]]


def _report(stdout: str) -> str:
    """eval's stdout without its closing 'wrote FILE' line."""
    return stdout.rsplit("wrote ", 1)[0]


def observe(cmd: dict, stdout: str) -> dict:
    """What a successful command produced, parsed from its stdout and files."""
    kind, spec = cmd["kind"], cmd["check"]
    if kind == "train":
        out = Path(spec["out"])
        model, history = (out / "model.dnw").read_bytes(), (out / "history.csv").read_bytes()
        rows = [line.split(",") for line in history.decode().split()[1:]]
        losses = [float(row[1]) for row in rows] + [float(row[3]) for row in rows]
        return {"digest": _sha256(model, history), "losses": losses}
    if kind == "predict":
        label, *fields = stdout.split()
        return {"label": label, "probs": [float(f.split("=")[1]) for f in fields],
                "digest": _sha256(stdout.encode())}
    if kind == "cam":
        region, cls_line = stdout.splitlines()[:2]
        ppm = Path(spec["out"]).read_bytes()
        return {"region": region, "class": cls_line.split()[1].rstrip(";"),
                "digest": _sha256(ppm), "size": read_ppm(spec["out"]).shape[:2]}
    if kind == "eval":
        return {"counts": _read_counts(spec["csv"]), "report": _report(stdout)}
    if kind == "replay":
        return {"report": _report(stdout)}
    if kind == "prepare":
        lines = dict(line.split(": ") for line in stdout.splitlines() if ": " in line)
        return {"tiles": {label: int(lines[label].split()[0]) for label in LABELS},
                "total": int(lines["total"].split()[0])}
    raise ValueError(f"unknown command kind {kind!r}")


def check(cmd: dict, obs: dict, ctx: dict) -> tuple[list[str], list[dict]]:
    """(problems, digest comparisons). A problem fails the command; a digest
    that differs from its recording only reports bit drift."""
    kind, spec = cmd["kind"], cmd["check"]
    problems: list[str] = []
    digests: list[dict] = []

    def digest(what, expected):
        if expected is not None:
            digests.append({"what": what, "expected": expected, "observed": obs["digest"],
                            "match": obs["digest"] == expected})

    if kind == "train":
        if not all(math.isfinite(v) for v in obs["losses"]):
            problems.append(f"non-finite loss in history.csv: {obs['losses']}")
        digest("model.dnw + history.csv", spec["digest"])
        if spec["same_as"]:
            first = ctx.setdefault(spec["same_as"], obs["digest"])
            if obs["digest"] != first:
                problems.append("rerun on the same inputs gave different model.dnw/history.csv")
    elif kind == "predict":
        ref = spec["ref"]
        # Each printed probability is rounded by at most 5e-5.
        if abs(sum(obs["probs"]) - 1.0) > 2.5e-4:
            problems.append(f"probabilities do not sum to 1: {obs['probs']}")
        if ref is not None:
            if obs["label"] != ref["label"]:
                problems.append(f"label {obs['label']} != reference {ref['label']}")
            if max(abs(a - b) for a, b in zip(obs["probs"], ref["probs"])) > PROB_TOLERANCE:
                problems.append(f"probabilities {obs['probs']} differ from {ref['probs']} "
                                f"by more than {PROB_TOLERANCE}")
            digest(f"predict stdout, pool image {spec['pool']}", ref["predict_sha256"])
    elif kind == "cam":
        if obs["size"] != (224, 224):
            problems.append(f"CAM overlay is {obs['size']}, not 224x224")
        ref = spec["ref"]
        if ref is not None:
            if obs["region"] != ref["region"]:
                problems.append(f"region {obs['region']!r} != reference {ref['region']!r}")
            if obs["class"] != ref["cam_class"]:
                problems.append(f"CAM class {obs['class']} != reference {ref['cam_class']}")
            digest(f"CAM PPM, pool image {spec['pool']}", ref["cam_sha256"])
    elif kind == "eval":
        if [sum(row) for row in obs["counts"]] != spec["row_sums"]:
            problems.append(f"confusion rows {obs['counts']} do not sum to {spec['row_sums']}")
        if spec["counts"] is not None and obs["counts"] != spec["counts"]:
            problems.append(f"confusion counts {obs['counts']} != reference {spec['counts']}")
        ctx["report"] = obs["report"]
    elif kind == "replay":
        if obs["report"] != ctx.get("report"):
            problems.append("eval --counts report differs from the eval report it replays")
    elif kind == "prepare":
        if obs["tiles"] != spec["tiles"] or obs["total"] != sum(spec["tiles"].values()):
            problems.append(f"tile counts {obs['tiles']} != expected {spec['tiles']}")
        t = spec["tile"]
        for photo, tile, i in spec["samples"]:
            src = read_ppm(photo)
            cols = src.shape[1] // t
            y, x = (i // cols) * t, (i % cols) * t
            if not np.array_equal(read_ppm(tile), src[y:y + t, x:x + t]):
                problems.append(f"{tile} is not tile {i} of {photo}")
    return problems, digests
