#!/usr/bin/env python3
"""Record the reference values of the fixed-input jobs into reference.json.

Run from the root of a rigidkit source tree at the commit whose outputs are
the reference (the benchmark's was recorded when it was introduced):

    python3 bench/make_reference.py

Only jobs that list ``reference`` paths are recorded; their inputs do not
depend on the seed, so one run covers every seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rigidkit.cli as cli

    workdir = os.path.join(ROOT, ".bench_work", "reference")
    entries = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.generate(workload, 0, workdir):
            if not job.reference:
                continue
            out = os.path.join(workdir, f"{job.name}.report.json")
            if cli.main(job.argv + ["--out", out]) != 0:
                raise SystemExit(f"{job.name} failed")
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            entries[job.name] = {path: workloads.lookup(report, path) for path in job.reference}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"commit": commit, "jobs": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
