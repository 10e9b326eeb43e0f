"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Run from the root of a checkout, on the commit whose outputs are the
reference. It runs every golden command and every infer-vgg224 pool request
once, in a worker with the same thread settings as run.py, and rewrites
perfbench/references.json. A later commit whose outputs differ in their bits
shows as digest drift in run.py; re-record only with a CHANGES.md entry that
explains the drift.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    env = {**os.environ, **run.thread_env()}
    work = root / ".perfbench_work" / f"record-pid{os.getpid()}"
    try:
        plan = workloads.record_plan(work)
        result = run.run_worker(plan, work / "record", env, root, time.monotonic() + 3600)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = [p for r in result["records"] for p in r["problems"]]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    refs = workloads.references_from(result["records"])
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
