"""defectnet benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It makes the workload's inputs from the
seed, starts a worker process per set-up sample and one for the workload
itself (with one BLAS thread), checks every output, and prints
a summary followed by one JSON line: the end-to-end metrics of
BENCHMARK.json with --trace 0, or its per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # four set-up-only workers plus the measuring worker
TIME_LIMIT_S = 170  # a run must end within 180 s


def thread_env() -> dict:
    """BLAS threads: one. A second thread speeds up only the paper-vgg16
    training step (by about 30%), and on a shared host it waits for a core:
    beside a busy process, two threads lost 25-40% of their throughput and
    one thread lost 4-20% (README.md, "One BLAS thread"). The recorded
    digests were made with two threads and hold for one as well."""
    return {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def summarize(samples: list[float]) -> dict:
    """Median plus the highest tail percentile with at least ten samples
    beyond it, and the sample count."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    if len(samples) < 2:
        return out
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    for q in (99.9, 99.0, 95.0, 90.0):
        value = cuts[round(q * 10) - 1]
        if sum(v > value for v in samples) >= 10:
            out[f"p{q:g}"] = value
            break
    return out


def failed_ratio(records: list[dict]) -> tuple[int, int, float]:
    """(failed, attempted, ratio): a command fails when it exits non-zero or
    an output check fails."""
    failed = sum(1 for r in records if r["problems"])
    return failed, len(records), failed / len(records) if records else 1.0


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    rates = [sum(r["images"] for r in rs) / sum(r["seconds"] for r in rs)
             for rs in workloads.repeat_units(result["records"])]
    return {
        "setup_s": statistics.median(setup_samples),
        "images_per_s": statistics.median(rates),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def command_lines(records: list[dict]) -> list[str]:
    """The per-command figures behind images_per_s, for reading, not gating."""
    lines = []
    by_kind: dict[str, list[dict]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)
    for kind, label in (("train", "train_images_per_s"), ("eval", "eval_images_per_s")):
        rs = by_kind.get(kind)
        if rs:
            rate = sum(r["images"] for r in rs) / sum(r["seconds"] for r in rs)
            lines.append(f"{label} {rate:.4f} 1/s (commands={len(rs)})")
    rs = [r for r in by_kind.get("prepare", []) if r["observed"]]
    if rs:
        rate = sum(r["observed"]["total"] for r in rs) / sum(r["seconds"] for r in rs)
        lines.append(f"prepare_tiles_per_s {rate:.1f} 1/s (commands={len(rs)})")
    for kind in ("predict", "cam"):
        rs = by_kind.get(kind)
        if rs:
            s = summarize([1000.0 * r["seconds"] for r in rs])
            tail = ", ".join(f"{k} {v:.1f} ms" for k, v in s.items() if k not in ("n", "p50"))
            tail = tail or "no tail percentile: fewer than ten samples beyond p90"
            lines.append(f"{kind}_p50_ms {s['p50']:.1f} ms (n={s['n']}; {tail})")
    return lines


def environment(root: Path, seed: int, threads: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for f in sorted((root / "src" / "defectnet").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def run_worker(plan: dict, path: Path, env: dict, root: Path, deadline: float) -> dict:
    plan_file, result_file = path.with_suffix(".plan.json"), path.with_suffix(".result.json")
    plan_file.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_file),
                           str(result_file)], cwd=root, env=env,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result_file.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "defectnet" / "cli.py").is_file():
        print(f"error: {root} has no src/defectnet; run from the root of a defectnet checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = declared["per_layer" if args.trace else "end_to_end"]

    threads = thread_env()
    env = {**os.environ, **threads}
    scratch = root / ".perfbench_work"
    work = scratch / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        plan = workloads.make_plan(args.workload, args.seed, work)
        plan.update(seconds=args.seconds, trace=args.trace,
                    spans_file=str(scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        setups = []
        for k in range(SETUP_SAMPLES - 1):
            probe = {**plan, "setup_only": True, "model": str(work / f"probe{k}.dnw")}
            setups.append(run_worker(probe, work / f"probe{k}", env, root, deadline)["setup_s"])
        result = run_worker(plan, work / "main", env, root, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup_s"])
    records = result["records"]
    failed, attempted, ratio = failed_ratio(records)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed clients=1")
    print("env " + json.dumps(environment(root, args.seed, threads), sort_keys=True))
    for r in records:
        for problem in r["problems"]:
            print(f"FAILED {r['kind']} (unit {r['unit']}): {problem}")
    digests = [d for r in records for d in r["digests"]]
    drifted = [d for d in digests if not d["match"]]
    print(f"digests {len(digests) - len(drifted)}/{len(digests)} equal the seed-commit "
          "recording" + "".join(f"\nDRIFT {d['what']}: {d['observed']} != {d['expected']}"
                                for d in drifted))
    print(f"failed_ratio {ratio:g} ({failed} of {attempted} commands)")
    if args.trace:
        values = result["per_layer"]
        print(f"spans written to {plan['spans_file']}; flops, bytes and cols_mb are computed "
              "from operand shapes, peak_alloc_mb is measured with tracemalloc")
    else:
        values = end_to_end(result, setups)
        for line in command_lines(records):
            print(line)
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}
    for name, v in out.items():
        print(f"{name} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
