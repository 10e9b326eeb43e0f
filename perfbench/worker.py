"""Child process of run.py: runs one workload's script through
`defectnet.cli.main` in-process and writes what it measured as JSON.

    python3 perfbench/worker.py PLAN.json RESULT.json

It must be started from the root of a checkout, with the thread variables
already set: it imports defectnet from ./src and times that import as part
of set-up. With "setup_only" in the plan it stops after set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def run_command(cli, workloads, cmd: dict, unit: int, tracer, ctx: dict) -> dict:
    if cmd["fresh"]:
        shutil.rmtree(cmd["fresh"], ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.unit = unit
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cmd["argv"])
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback escaping the CLI is a failed command
        code = 1
        err.write(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    record = {"kind": cmd["kind"], "unit": unit, "traced": tracer is not None,
              "seconds": seconds, "images": cmd["images"], "code": code,
              "problems": [], "digests": [], "observed": None}
    if code != 0:
        record["problems"].append(f"exit {code}: {err.getvalue().strip()[-500:]}")
        return record
    try:
        record["observed"] = workloads.observe(cmd, out.getvalue())
        record["problems"], record["digests"] = workloads.check(cmd, record["observed"], ctx)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        record["problems"].append(f"unreadable output: {exc!r}")
    return record


def run_script(cli, workloads, plan: dict, tracer_factory) -> tuple[list[dict], object]:
    """Run the first unit, then cycle through the repeat units until the
    run's seconds are spent (counted from the first command), running at
    least one repeat unit. The first unit warms the process up; a traced run
    traces the `traced_units` units after it and then runs at least one
    untraced repeat unit, for the tracing overhead."""
    ctx: dict = {}
    records: list[dict] = []
    tracer = tracer_factory() if plan.get("trace") else None
    traced_units = plan["traced_units"] if tracer is not None else 0
    start = time.perf_counter()
    unit = 0
    while True:
        cmds = plan["first"] if unit == 0 else plan["repeat"][(unit - 1) % len(plan["repeat"])]
        unit_tracer = tracer if 1 <= unit <= traced_units else None
        for cmd in cmds:
            records.append(run_command(cli, workloads, cmd, unit, unit_tracer, ctx))
        unit += 1
        if plan.get("fixed"):
            if unit > len(plan["repeat"]):
                break
        elif unit >= traced_units + 2 and time.perf_counter() - start >= plan["seconds"]:
            break
    return records, tracer


def main(plan_path: str, result_path: str) -> int:
    t0 = time.perf_counter()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import defectnet
    import defectnet.cli as cli
    import workloads

    if not Path(defectnet.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"defectnet imported from {defectnet.__file__}, not from ./src", file=sys.stderr)
        return 2
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    workloads.setup(plan)
    result = {"setup_s": time.perf_counter() - t0}
    if not plan.get("setup_only"):
        import tracer as tracing
        records, tracer = run_script(cli, workloads, plan, tracing.Tracer)
        result["records"] = records
        if tracer is not None:
            tracer.write(plan["spans_file"])
            result["per_layer"] = trace_metrics(tracing, workloads, tracer, records)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def trace_metrics(tracing, workloads, tracer, records: list[dict]) -> dict:
    from defectnet.model import PRESETS

    spans = tracer.spans
    traced = [r for r in records if r["traced"]]
    m = tracing.layer_metrics(spans, tracing.conv_layer_names(PRESETS["paper-vgg16"]),
                              cam_requests=sum(r["kind"] == "cam" for r in traced))
    wall = sum(r["seconds"] for r in traced)
    self_total = sum(tracing.self_times(spans))
    m["trace.wall_s"] = wall
    m["trace.residual_share"] = (wall - self_total) / wall
    m["trace.overhead_share"] = tracing_overhead(workloads, records)
    return m


def tracing_overhead(workloads, records: list[dict]) -> float:
    """Extra wall time of the traced repeat units over the untraced ones
    that run the same commands, as a share of the untraced time."""
    groups: dict[tuple, tuple[list, list]] = {}
    for rs in workloads.repeat_units(records):
        key = tuple(r["kind"] for r in rs)
        groups.setdefault(key, ([], []))[0 if rs[0]["traced"] else 1].append(
            sum(r["seconds"] for r in rs))
    extra = base = 0.0
    for traced, untraced in groups.values():
        if traced and untraced:
            mean = sum(untraced) / len(untraced)
            extra += sum(traced) - len(traced) * mean
            base += len(traced) * mean
    return extra / base if base else 0.0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
