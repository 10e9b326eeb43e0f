"""Golden digests: the bits a refactor must keep.

Each digest was recorded once from the code as it stood and must not
change unless CHANGES.md declares and explains the drift. They cover a
tiny `train` run through the CLI (GAP head and FC head: model.dnw and
history.csv), the paper-vgg16 seed-0 logits on a fixed input, and the
paper-vgg16 gradients of a batch of two (the only digest whose backward
has K > 72 and N > 1, so a changed summation order or swapped batch and
channel axes in the conv kernels shows here).
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from synth_data import texture_image, write_tree

import defectnet
from defectnet.cli import main
from defectnet.labels import LABEL_NAMES
from defectnet.model import arch_preset, build, forward, loss_and_gradients
from defectnet.tensor import Tensor

TRAIN_DIGESTS = {
    "gap": "d6a2bd462740e90d19fd852dfa9d047453a4aa5e15d965512e1d39d7ff12c6fe",
    "fc": "601e050464abba1513a5444d722ce8d06928873fa71ff95a1e2c0805fa32d3d6",
}

VGG16_LOGITS_DIGEST = "ddd6c4c3cf84473b79bf98d499745573bf9f8b7517dbd906b96f85432df76d54"

VGG16_GRADIENTS_DIGEST = "c404652897d184a084eb8bc86924ef5ab00d8e4f46e78318789ad43e6d284557"


def _train_digest(tmp_path, head: str) -> str:
    rng = np.random.default_rng(0)
    write_tree(tmp_path / "data",
               {name: [texture_image(k, 16, rng) for _ in range(4)]
                for k, name in enumerate(LABEL_NAMES)})
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "arch = custom\ncustom_blocks = 1x4,1x8\ninput_size = 16\n"
        f"head = {head}\nfc_widths = 8,6\n"
        "epochs = 2\nbatch_size = 4\nsteps_per_epoch = 2\nlearning_rate = 0.01\n"
        "seed = 3\naug_seed = 5\nval_fraction = 0.25\n"
        f"data_dir = {tmp_path / 'data'}\nout_dir = {out}\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(cfg)]) == 0
    h = hashlib.sha256()
    h.update((out / "model.dnw").read_bytes())
    h.update((out / "history.csv").read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("head", sorted(TRAIN_DIGESTS))
def test_train_outputs_match_golden_digest(tmp_path, head):
    assert _train_digest(tmp_path, head) == TRAIN_DIGESTS[head]


def _vgg16_logits_digest() -> str:
    m = build(arch_preset("paper-vgg16"), seed=0)
    x = np.random.default_rng(0).uniform(0, 1, (1, 3, 224, 224)).astype(np.float32)
    logits = forward(m, Tensor(x)).logits.array
    return hashlib.sha256(logits.tobytes()).hexdigest()


def _vgg16_gradients_digest() -> str:
    m = build(arch_preset("paper-vgg16", input_size=64), seed=0)
    x = np.random.default_rng(0).uniform(0, 1, (2, 3, 64, 64)).astype(np.float32)
    _, probs, grads = loss_and_gradients(m, Tensor(x), [0, 3])
    h = hashlib.sha256()
    for name in sorted(grads):
        h.update(grads[name].array.tobytes())
    h.update(probs.array.tobytes())
    return h.hexdigest()


def test_paper_vgg16_logits_match_golden_digest():
    assert _vgg16_logits_digest() == VGG16_LOGITS_DIGEST


def test_paper_vgg16_gradients_match_golden_digest():
    assert _vgg16_gradients_digest() == VGG16_GRADIENTS_DIGEST


@pytest.mark.parametrize("threads", ["1", "2"])
def test_vgg16_digests_do_not_depend_on_blas_threads(threads):
    """The benchmark runs one BLAS thread and the test suite the default, so
    pin both digests under explicit thread counts in fresh processes."""
    src = Path(defectnet.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(Path(__file__).parent), str(src)]))
    code = ("import test_golden as g; "
            "print(g._vgg16_logits_digest()); print(g._vgg16_gradients_digest())")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout.split()
    assert out == [VGG16_LOGITS_DIGEST, VGG16_GRADIENTS_DIGEST]
