"""Property test of the CLI exit-code contract: whatever the config file,
counts CSV, PPM header, DNW archive or dataset tree holds, `main` raises
nothing, returns one of the documented codes and writes at most one
stderr line.
"""

import contextlib
import io
import shutil
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from synth_data import solid_image, texture_image, write_tree

from defectnet.cli import DEFAULTS, main
from defectnet.data import encode_ppm
from defectnet.labels import LABEL_NAMES
from defectnet.model import ArchSpec, GapHead, build
from defectnet.tensor import Tensor
from defectnet.weights_io import write_weights

FAST = settings(max_examples=200, deadline=None, derandomize=True)


def run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    text = err.getvalue()
    assert rc in (0, 2, 3, 4, 5), (rc, text)
    assert text.count("\n") <= 1, text
    return rc


def mutate(base: bytes, edits) -> bytes:
    """Apply (position, bytes to cut, bytes to insert) edits in order."""
    for pos, cut, insert in edits:
        pos %= len(base) + 1
        base = base[:pos] + insert + base[pos + cut:]
    return base


def mutations(base: bytes, span: int | None = None):
    """Mutated copies of base; edits land in its first span bytes."""
    tokens = st.one_of(st.binary(max_size=4),
                       st.text(" \n#,-0123456789x", max_size=4).map(str.encode))
    edit = st.tuples(st.integers(0, span or len(base)), st.integers(0, 4), tokens)
    return st.builds(mutate, st.just(base), st.lists(edit, min_size=1, max_size=4))


def dnw(*entries) -> bytes:
    """Hand-encoded DNW1 archive of (name bytes, float32 array) entries."""
    out = [b"DNW1", struct.pack("<I", len(entries))]
    for name, a in entries:
        out += [struct.pack("<I", len(name)), name, struct.pack("<I", a.ndim),
                struct.pack(f"<{a.ndim}I", *a.shape), a.astype("<f4").tobytes()]
    return b"".join(out)


def archive(num_classes=4, first_weight=None, scale=None) -> bytes:
    m = build(ArchSpec(((1, 4),), GapHead(), num_classes, input_size=SIZE), 0)
    if scale is not None:
        m = replace(m, params={n: Tensor(t.array * np.float32(scale)) for n, t in m.params.items()})
    if first_weight is not None:
        w = m.params["block1.conv1.w"].array.copy()
        w.flat[0] = first_weight
        m = replace(m, params={**m.params, "block1.conv1.w": Tensor(w)})
    buf = io.BytesIO()
    write_weights(m, buf)
    return buf.getvalue()


SIZE = 16
IMAGE = encode_ppm(solid_image(SIZE, (90, 60, 30)))
MODEL = archive()
COUNTS = ("label,deterioration,mould,normal,stain\n"
          "deterioration,157,13,0,13\nmould,4,167,0,12\nnormal,0,0,183,0\nstain,31,6,1,145\n")
CONFIG = {"arch": "custom", "custom_blocks": "1x4", "input_size": SIZE, "fc_widths": "8",
          "epochs": 1, "batch_size": 2, "steps_per_epoch": 1}
VALUES = st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=10),
                   st.integers(max_value=-1).map(str),
                   st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-0.0", "true"]))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("exit_codes")
    (d / "model.dnw").write_bytes(MODEL)
    (d / "image.ppm").write_bytes(IMAGE)
    (d / "run.meta").write_text(f"input_size = {SIZE}\n")
    return d


@FAST
@given(overrides=st.dictionaries(st.sampled_from(sorted(set(DEFAULTS) - {"data_dir"})),
                                 VALUES, max_size=3),
       junk=st.binary(max_size=8))
@example(overrides={"head": "fc", "fc_widths": "0"}, junk=b"")
@example(overrides={"input_size": "0"}, junk=b"")
@example(overrides={"learning_rate": "nan"}, junk=b"")
@example(overrides={"learning_rate": "inf"}, junk=b"")
@example(overrides={}, junk=b"# \xff\n")
@example(overrides={"aug_seed": "-1"}, junk=b"")
@example(overrides={"freeze_blocks": "9"}, junk=b"")
def test_config_values(work, overrides, junk):
    # data_dir comes last and is absent, so no value can start a training run
    lines = {**CONFIG, **overrides, "data_dir": work / "absent"}
    (work / "run.cfg").write_bytes(
        "".join(f"{k} = {v}\n" for k, v in lines.items()).encode() + junk)
    assert run(["train", "--config", str(work / "run.cfg")]) in (2, 3)


@FAST
@given(counts=mutations(COUNTS.encode()))
@example(counts=COUNTS.replace("157", "9" * 5000).encode())
def test_counts_files(work, counts):
    (work / "counts.csv").write_bytes(counts)
    argv = ["eval", "--counts", str(work / "counts.csv"), "--out-csv", str(work / "cm.csv")]
    assert run(argv) in (0, 3)


@FAST
@given(ppm=mutations(IMAGE, span=IMAGE.index(b"255\n") + 4))
@example(ppm=IMAGE.replace(b"16 16", b"0 16", 1))
@example(ppm=IMAGE.replace(b"16 16", b"1" * 5000 + b" 16", 1))
def test_ppm_headers(work, ppm):
    (work / "mutated.ppm").write_bytes(ppm)
    assert run(["predict", str(work / "model.dnw"), str(work / "mutated.ppm")]) in (0, 4)


@FAST
@given(model=mutations(MODEL))
@example(model=dnw((b"\xff\xfe", np.zeros(1))))
@example(model=dnw((b"block1.conv1.w", np.zeros(4)), (b"head.out.w", np.zeros((4, 4)))))
@example(model=dnw((b"block1.conv1.w", np.zeros((4, 3, 3, 3))), (b"head.out.w", np.zeros(4))))
@example(model=b"DNW1" + struct.pack("<II", 1, 1) + b"a" + struct.pack("<III", 2, 10 ** 5, 10 ** 5))
@example(model=archive(num_classes=3))
@example(model=archive(first_weight=np.nan))
@example(model=archive(first_weight=-np.inf))
@pytest.mark.filterwarnings("error")
def test_dnw_archives(work, model):
    (work / "mutated.dnw").write_bytes(model)
    assert run(["predict", str(work / "mutated.dnw"), str(work / "image.ppm")]) in (0, 3)


def serve(work, command, model):
    """argv of a serving command on one 16-px image, or on a tree of them."""
    tree = work / "served"
    if not tree.exists():
        write_tree(tree, {name: [solid_image(SIZE, (30 * k, 60, 90))]
                          for k, name in enumerate(LABEL_NAMES)})
    return {"predict": ["predict", str(model), str(work / "image.ppm")],
            "cam": ["cam", str(model), str(work / "image.ppm"), str(work / "cam.ppm")],
            "eval": ["eval", str(model), str(tree), "--out-csv", str(work / "cm.csv")]}[command]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(command=st.sampled_from(["predict", "cam", "eval"]), scale=st.floats(1e-30, 1e30))
@example(command="predict", scale=1e20)
@example(command="cam", scale=1e20)
@example(command="eval", scale=1e20)
@pytest.mark.filterwarnings("error")
def test_archives_with_large_weights(work, command, scale):
    # weights finite in float32 whose products may overflow it
    (work / "scaled.dnw").write_bytes(archive(scale=scale))
    assert run(serve(work, command, work / "scaled.dnw")) in (0, 3)


@pytest.mark.parametrize("command", ["predict", "cam", "eval"])
def test_overflowing_archive_is_named(work, command):
    (work / "huge.dnw").write_bytes(archive(scale=1e20))
    assert one_error_line(serve(work, command, work / "huge.dnw")) == (
        f"3 error: model archive {work / 'huge.dnw'}: the logits are not finite "
        "(its weights overflow float32)")


@pytest.mark.skipif(not Path("/proc/self/mem").is_file(), reason="needs /proc/self/mem")
@pytest.mark.parametrize("command", ["predict", "cam", "eval"])
def test_unreadable_archive_is_named(work, command):
    # a regular file whose read at offset 0 fails with EIO
    assert one_error_line(serve(work, command, "/proc/self/mem")) == (
        "3 error: cannot read model archive /proc/self/mem: Input/output error")


@pytest.mark.skipif(not Path("/proc/self/mem").is_file(), reason="needs /proc/self/mem")
def test_unreadable_run_meta_is_named(work):
    (work / "mem").mkdir(exist_ok=True)
    (work / "mem" / "model.dnw").write_bytes(MODEL)
    meta = work / "mem" / "run.meta"
    if not meta.is_symlink():
        meta.symlink_to("/proc/self/mem")
    assert one_error_line(serve(work, "predict", work / "mem" / "model.dnw")) == (
        f"3 error: cannot read {meta} beside the model archive: Input/output error")


@FAST
@given(command=st.sampled_from(["cam", "eval", "prepare"]),
       out=st.sampled_from([".", "a-file", "absent/out", "a-file/out", "out"]))
@example(command="cam", out=".")
@example(command="eval", out=".")
@example(command="prepare", out="a-file")
def test_output_paths(work, command, out):
    # out is relative to work: its directory, a regular file, a missing
    # parent, a file as parent, or a fresh name
    (work / "a-file").write_text("x")
    (work / "good.csv").write_text(COUNTS)
    (work / "photos" / "mould").mkdir(parents=True, exist_ok=True)
    (work / "photos" / "mould" / "a.ppm").write_bytes(IMAGE)
    target = str(work / out)
    argv = {"cam": ["cam", str(work / "model.dnw"), str(work / "image.ppm"), target],
            "eval": ["eval", "--counts", str(work / "good.csv"), "--out-csv", target],
            "prepare": ["prepare", str(work / "photos"), target]}[command]
    assert run(argv) in (0, 2)


TILE = 8
PHOTO = encode_ppm(solid_image(TILE, (90, 60, 30)))
BIG = encode_ppm(solid_image(2 * TILE, (30, 60, 90)))
TREE_EDITS = st.tuples(st.sampled_from(LABEL_NAMES),
                       st.sampled_from(["dir", "big", "junk", "nested", "empty", "gone", "file"]),
                       st.binary(max_size=8))


def dataset_tree(root, edits):
    """Two TILE-px photos per label under root, then each (label, kind, junk)
    edit: a directory named like a photo, a photo twice the size, a junk
    .ppm, a photo in a subdirectory, no photos, no label directory, or a
    file in its place."""
    shutil.rmtree(root, ignore_errors=True)
    for name in LABEL_NAMES:
        (root / name).mkdir(parents=True)
        for k in range(2):
            (root / name / f"{k}.ppm").write_bytes(PHOTO)
    for name, kind, junk in edits:
        d = root / name
        if not d.is_dir():
            continue
        if kind == "dir":
            (d / "dir.ppm").mkdir(exist_ok=True)
        elif kind == "big":
            (d / "big.ppm").write_bytes(BIG)
        elif kind == "junk":
            (d / "junk.ppm").write_bytes(junk)
        elif kind == "nested":
            (d / "sub").mkdir(exist_ok=True)
            (d / "sub" / "n.ppm").write_bytes(PHOTO)
        elif kind == "empty":
            shutil.rmtree(d)
            d.mkdir()
        else:
            shutil.rmtree(d)
            if kind == "file":
                d.write_bytes(junk)


def train_on(work, data_dir, **overrides):
    # a batch larger than the tree, so the one step reads every training photo
    lines = {**CONFIG, "input_size": TILE, "batch_size": 32,
             "data_dir": data_dir, "out_dir": work / "run", **overrides}
    (work / "tree.cfg").write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return ["train", "--config", str(work / "tree.cfg")]


@FAST
@given(edits=st.lists(TREE_EDITS, max_size=3))
@example(edits=[("mould", "dir", b"")])
@example(edits=[("mould", "big", b"")])
def test_dataset_trees(work, edits):
    dataset_tree(work / "tree", edits)
    shutil.rmtree(work / "tiles", ignore_errors=True)
    argv = ["prepare", str(work / "tree"), str(work / "tiles"), "--tile", str(TILE)]
    assert run(argv) in (0, 4)
    assert run(train_on(work, work / "tree")) in (0, 3, 4)


@pytest.mark.parametrize("labels", [("mould",), LABEL_NAMES], ids=["one-label", "every-label"])
def test_wrong_sized_photo_is_named(work, labels):
    dataset_tree(work / "tree", [])
    for name in labels:
        for k in range(2):
            (work / "tree" / name / f"{k}.ppm").write_bytes(BIG)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(train_on(work, work / "tree")) == 3
    line, = err.getvalue().splitlines()
    assert str(work / "tree") in line and "is 16x16, the model takes 8x8" in line
    line = one_error_line(["eval", str(tile_model(work)), str(work / "tree"),
                           "--out-csv", str(work / "cm.csv")])
    assert line.startswith("3 ") and str(work / "tree") in line
    assert "is 16x16, the model takes 8x8" in line


def tile_model(work):
    """A TILE-px GAP-head archive with its run.meta, for `eval` on a tree."""
    (work / "m8").mkdir(exist_ok=True)
    with open(work / "m8" / "model.dnw", "wb") as fh:
        write_weights(build(ArchSpec(((1, 4),), GapHead(), 4, input_size=TILE), 0), fh)
    (work / "m8" / "run.meta").write_text(f"input_size = {TILE}\n")
    return work / "m8" / "model.dnw"


def one_error_line(argv) -> str:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    line, = err.getvalue().splitlines()
    return f"{rc} {line}"


def test_malformed_photo_is_named(work):
    dataset_tree(work / "tree", [])
    bad = work / "tree" / "mould" / "b.ppm"
    bad.write_bytes(b"P5 junk")
    model = tile_model(work)
    shutil.rmtree(work / "tiles", ignore_errors=True)
    for argv in (["prepare", str(work / "tree"), str(work / "tiles"), "--tile", str(TILE)],
                 train_on(work, work / "tree"),
                 ["eval", str(model), str(work / "tree"), "--out-csv", str(work / "cm.csv")]):
        assert one_error_line(argv) == f"4 image error: {bad}: bad magic b'P5', " \
                                       "expected b'P6' (byte offset 0)"


@pytest.mark.filterwarnings("error")
def test_diverging_train_exits_3_and_writes_nothing(work):
    rng = np.random.default_rng(0)
    write_tree(work / "textures", {name: [texture_image(k, SIZE, rng) for _ in range(4)]
                                   for k, name in enumerate(LABEL_NAMES)})
    shutil.rmtree(work / "run", ignore_errors=True)
    argv = train_on(work, work / "textures", input_size=SIZE, batch_size=4,
                    steps_per_epoch=3, learning_rate=1e30)
    assert one_error_line(argv) == "3 error: training diverged at epoch 1, step 2: the loss is nan"
    assert not (work / "run").exists()


def test_oversized_batch_exits_2_at_once(work):
    # a batch of 10**9 16-px images, 3 TB of float32, is refused before the
    # first step builds its list of 10**9 indices
    rng = np.random.default_rng(0)
    write_tree(work / "textures", {name: [texture_image(k, SIZE, rng) for _ in range(4)]
                                   for k, name in enumerate(LABEL_NAMES)})
    shutil.rmtree(work / "run", ignore_errors=True)
    argv = train_on(work, work / "textures", input_size=SIZE, batch_size=10 ** 9)
    assert one_error_line(argv) == (
        "2 config error: batch_size = 1000000000: a batch of 16x16 images "
        "does not fit in memory")
    assert not (work / "run").exists()


def code_and_stderr(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    return rc, err.getvalue()


@FAST
@given(model=mutations(MODEL))
@example(model=b"DNW1" + struct.pack("<II", 1, 1) + b"a" + struct.pack("<I", 0))
@example(model=dnw((b"a", np.zeros(0))))
# a one-channel model, whose input no RGB image fits
@example(model=dnw((b"block1.conv1.w", np.zeros((4, 1, 3, 3))), (b"block1.conv1.b", np.zeros(4)),
                   (b"head.out.w", np.zeros((4, 4))), (b"head.out.b", np.zeros(4))))
@pytest.mark.filterwarnings("error")
def test_rejected_archive_is_named(work, model):
    path = work / "named.dnw"
    path.write_bytes(model)
    rc, err = code_and_stderr(["predict", str(path), str(work / "image.ppm")])
    assert rc in (0, 3)
    if rc == 3:
        assert str(path) in err, err


@FAST
@given(ppm=mutations(IMAGE, span=IMAGE.index(b"255\n") + 4))
@example(ppm=encode_ppm(solid_image(2 * SIZE, (90, 60, 30))))
def test_rejected_image_is_named(work, ppm):
    path = work / "named.ppm"
    path.write_bytes(ppm)
    rc, err = code_and_stderr(["predict", str(work / "model.dnw"), str(path)])
    assert rc in (0, 4)
    if rc == 4:
        assert str(path) in err, err


NO_HEAD_BIAS = dnw(*((name.encode(), t.array) for name, t in
                     build(ArchSpec(((1, 4),), GapHead(), 4, input_size=SIZE), 0).params.items()
                     if name != "head.out.b"))


@pytest.mark.parametrize("command", ["predict", "cam", "train"])
@pytest.mark.parametrize("content, message", [
    (b"XXXX", "bad magic b'XXXX', expected b'DNW1'"),
    (NO_HEAD_BIAS, "archive is missing model parameters: head.out.b"),
], ids=["bad-magic", "no-head-bias"])
def test_rejected_archive_names_its_path(work, command, content, message):
    # train reads init_weights, strictly, before its absent data_dir
    path = work / "rejected.dnw"
    path.write_bytes(content)
    argv = (train_on(work, work / "absent", input_size=SIZE, init_weights=path,
                     init_policy="strict") if command == "train" else serve(work, command, path))
    assert one_error_line(argv) == f"3 error: {path}: {message}"


def on_image(work, command, image):
    """argv of predict or cam with the 16-px model on image."""
    return [command, str(work / "model.dnw"), str(image)] + [str(work / "cam.ppm")] * (command == "cam")


@pytest.mark.parametrize("command", ["predict", "cam"])
def test_wrong_sized_image_is_named(work, command):
    path = work / "big.ppm"
    path.write_bytes(encode_ppm(solid_image(2 * SIZE, (90, 60, 30))))
    assert one_error_line(on_image(work, command, path)) == (
        f"4 image error: {path}: image must be 16x16, got 32x32")


@pytest.mark.parametrize("command", ["predict", "cam"])
def test_unreadable_image_is_named(work, command):
    # a directory where the image should be: reading it fails with EISDIR
    path = work / "dir.ppm"
    path.mkdir(exist_ok=True)
    assert one_error_line(on_image(work, command, path)) == (
        f"4 image error: cannot read image {path}: Is a directory (byte offset 0)")
