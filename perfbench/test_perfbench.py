"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of a checkout; the last test drives the real CLI on a
tiny model.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None, {}]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # Self times of a tree add up to the root's duration.
    assert sum(self_times(spans)) == 10.0


def test_percentile_reported_with_its_sample_count():
    few = run.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert few == {"n": 5, "p50": 3.0}  # no tail percentile from five samples
    many = run.summarize([float(v) for v in range(1, 201)])
    assert many["n"] == 200 and many["p50"] == 100.5
    # p95 is the highest percentile with ten samples beyond it; p99 has two.
    assert set(many) == {"n", "p50", "p95"}
    assert sum(v > many["p95"] for v in range(1, 201)) == 10


def test_failed_ratio_counts_exits_and_failed_checks():
    records = [{"problems": []}, {"problems": ["exit 3: error"]},
               {"problems": ["label stain != reference mould"]}, {"problems": []}]
    assert run.failed_ratio(records) == (2, 4, 0.5)
    assert run.failed_ratio([{"problems": []}]) == (0, 1, 0.0)


def _cli_outputs(cli, work: Path, tag: str, tr: Tracer | None) -> str:
    """Digest of the outputs of a small train, predict and cam session."""
    out = work / f"out_{tag}"
    cfg = work / f"{tag}.cfg"
    cfg.write_text(f"arch = custom\ncustom_blocks = 1x4,1x8\ninput_size = 32\nbatch_size = 2\n"
                   f"epochs = 1\nsteps_per_epoch = 3\nval_fraction = 0.2\n"
                   f"data_dir = {work / 'data'}\nout_dir = {out}\n")
    image = next((work / "data" / "stain").iterdir())
    stdout = io.StringIO()
    if tr is not None:
        tr.install()
    try:
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["train", "--config", str(cfg)]) == 0
            assert cli.main(["predict", str(out / "model.dnw"), str(image)]) == 0
            assert cli.main(["cam", str(out / "model.dnw"), str(image), str(out / "cam.ppm")]) == 0
    finally:
        if tr is not None:
            tr.uninstall()
    h = hashlib.sha256()
    for name in ("model.dnw", "history.csv", "cam.ppm"):
        h.update((out / name).read_bytes())
    h.update(stdout.getvalue().replace(str(out), "OUT").encode())
    return h.hexdigest()


def test_tracing_changes_no_output(tmp_path):
    import defectnet.cli as cli
    from defectnet.model import PRESETS

    workloads._tile_tree(tmp_path / "data", 5, (2, 2, 2, 2), 32)
    original_main = cli.main
    plain = _cli_outputs(cli, tmp_path, "plain", None)
    tr = Tracer()
    traced = _cli_outputs(cli, tmp_path, "traced", tr)
    assert traced == plain
    assert cli.main is original_main  # uninstall restored every attribute
    m = tracer.layer_metrics(tr.spans, tracer.conv_layer_names(PRESETS["paper-vgg16"]),
                             cam_requests=1)
    assert m["train.steps"] == 3
    assert m["cam.forwards_per_request"] == 2  # cam --class auto runs the model twice
    assert m["nn.conv2d_backward.block2.conv1.s"] > 0
    assert m["nn.conv2d_backward.block1.conv2.s"] == 0  # not a layer of this model
