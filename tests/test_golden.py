"""Golden digests: the bits a refactor must keep.

Each digest was recorded once from the code as it stood and must not
change unless CHANGES.md declares and explains the drift. They cover a
tiny `train` run through the CLI (GAP head and FC head: model.dnw and
history.csv) and the paper-vgg16 seed-0 logits on a fixed input.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest
from synth_data import texture_image, write_tree

from defectnet.cli import main
from defectnet.labels import LABEL_NAMES
from defectnet.model import arch_preset, build, forward
from defectnet.tensor import Tensor

TRAIN_DIGESTS = {
    "gap": "b84712043a6b7ba8b5c3e31eced46d0d19854393d261b676211cfe1e207cda21",
    "fc": "1cfe92b4b3105fbe370cf2a35b3686b4b2408a3780557abcd8c3f4d9222c10b8",
}

VGG16_LOGITS_DIGEST = "ddd6c4c3cf84473b79bf98d499745573bf9f8b7517dbd906b96f85432df76d54"


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


def test_paper_vgg16_logits_match_golden_digest():
    m = build(arch_preset("paper-vgg16"), seed=0)
    x = np.random.default_rng(0).uniform(0, 1, (1, 3, 224, 224)).astype(np.float32)
    logits = forward(m, Tensor(x)).logits.array
    assert hashlib.sha256(logits.tobytes()).hexdigest() == VGG16_LOGITS_DIGEST
