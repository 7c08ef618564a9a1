"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def test_smoke_prints_every_benchmark_metric():
    res = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stdout + res.stderr


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout.strip() == ""


def test_self_times_partition_the_root_span():
    spans = [
        tracing.Span("cli.dispatch", 0.0, 10.0, None, "j"),
        tracing.Span("remez.lp", 1.0, 4.0, 0, "j"),
        tracing.Span("poly.eval", 2.0, 3.0, 1, "j"),
        tracing.Span("poly.eval", 5.0, 6.5, 0, "j"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {"cli.dispatch": 5.5, "remez.lp": 2.0, "poly.eval": 2.5}
    assert sum(selfs.values()) == 10.0


def test_inputs_follow_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 3, str(tmp_path / "a"))
        b = workloads.generate(workload, 3, str(tmp_path / "b"))
        assert [j.expect for j in a] == [j.expect for j in b]
    scattered = [workloads.scattered(np.random.default_rng(s)).mu() for s in (1, 2)]
    assert scattered[0] != scattered[1]


def test_check_report_flags_each_kind_of_mismatch():
    report = {"mu": 1.0 + 1e-12, "domains": [1, 2], "bezout": {"verdict": "consistent"}}
    assert workloads.check_report(report, {"mu": 1.0, "domains#": 2, "bezout.verdict": "consistent"}) == []
    problems = workloads.check_report(report, {"mu": 1.001, "domains#": 3, "bezout.verdict": "violation",
                                               "missing": 1})
    assert len(problems) == 4


def test_reference_covers_every_referenced_job(tmp_path):
    with open(workloads.REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)["jobs"]
    for workload in workloads.WORKLOADS:
        for job in workloads.generate(workload, 0, str(tmp_path)):
            assert all(path in reference.get(job.name, {}) for path in job.reference), job.name
