#!/usr/bin/env python3
"""rigidkit benchmark: seeded CLI workloads, checked reports, per-layer trace.

Usage, from the root of a rigidkit source tree:

    python3 bench/run.py --workload cli-small --seed 1 --seconds 14 --trace 0
    python3 bench/run.py --smoke

Each workload is a closed loop with one client: every job is a fresh
``python -m rigidkit.cli`` process with ``PYTHONPATH=src``, started when the
previous one has exited, so a job's wall time includes interpreter start-up
and imports. The loop makes whole passes over the job list until
``--seconds`` have passed. Each report is checked against
the expected fields (see ``workloads.py``); a non-zero exit, an unparseable
report or a wrong field counts as a failed invocation.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` replays one pass
in-process with spans around the library calls (see ``tracing.py``) and
prints the per-layer metrics, the tracing overhead and a cross-check against
the baselines in ROADMAP.md. The last line of standard output is always one
JSON object: correct, attempted, failed and metrics (name -> value, unit).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

# Every rigidkit process the benchmark runs, this one included, gets one BLAS
# thread: the jobs are single-threaded, and idle BLAS threads spin on the
# second core, adding CPU time that depends on the machine's other load.
# Set before numpy is first imported, which reads it once.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
FRESH_REPEATS = 3
JOB_TIMEOUT_S = 120.0

# Gated metrics count CPU seconds: on a shared virtual machine the time the
# hypervisor gives other tenants (steal) moved wall times between runs by up
# to a third, so wall times are printed but not gated.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "geometry.validate_s": "s",
    "geometry.forest_s": "s",
    "geometry.domains_s": "s",
    "geometry.sample_s": "s",
    "geometry.ovals": "count",
    "geometry.edge_pairs": "count",
    "geometry.prefilter_skip_ratio": "ratio",
    "svg.render_s": "s",
    "remez.lp_s": "s",
    "remez.lp_solved": "count",
    "remez.lp_pruned": "count",
    "remez.lp_iterations": "count",
    "remez.candidates": "count",
    "remez.solved_ratio": "ratio",
    "prooftrace.newton_s": "s",
    "prooftrace.pigeonhole_s": "s",
    "prooftrace.seeds": "count",
    "prooftrace.converged": "count",
    "prooftrace.converged_ratio": "ratio",
    "prooftrace.clusters": "count",
    "poly.eval_calls": "count",
    "poly.eval_s": "s",
    "poly.compose_s": "s",
    "curves.fit_s": "s",
    "curves.composition_s": "s",
    "curves.crossing_s": "s",
    "fractal.boxdim_s": "s",
    "rigidity.report_s": "s",
    "trace.dispatch_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# span name -> per-layer self-time metric
SELF_TIME = {
    "cli.dispatch": "cli.self_s",
    "geometry.validate": "geometry.validate_s",
    "geometry.forest": "geometry.forest_s",
    "geometry.domains": "geometry.domains_s",
    "geometry.sample": "geometry.sample_s",
    "svg.render": "svg.render_s",
    "remez.lp": "remez.lp_s",
    "prooftrace.newton": "prooftrace.newton_s",
    "prooftrace.pigeonhole": "prooftrace.pigeonhole_s",
    "poly.eval": "poly.eval_s",
    "poly.compose": "poly.compose_s",
    "curves.fit": "curves.fit_s",
    "curves.composition": "curves.composition_s",
    "curves.crossing": "curves.crossing_s",
    "fractal.boxdim": "fractal.boxdim_s",
    "rigidity.report": "rigidity.report_s",
}

# one-off scratch baselines quoted in ROADMAP.md (seconds)
ROADMAP_IMPORT_S = 0.67
ROADMAP_N100 = {"geometry.validate": 2.0, "geometry.forest": 1.3}


@dataclass
class Sample:
    job: str
    seconds: float
    cpu_s: float
    rss_mb: float
    problems: list[str]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _read_report(out: str, rc: int, expect: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unparseable report: {exc}"]
    return workloads.check_report(report, expect)


def _out_path(workdir: str, job: workloads.Job) -> str:
    out = os.path.join(workdir, f"{job.name}.report.json")
    if os.path.exists(out):
        os.remove(out)
    return out


def run_subprocess(job: workloads.Job, expect: dict, workdir: str) -> Sample:
    """One fresh CLI process; wall time, CPU time, peak RSS and report check."""
    out = _out_path(workdir, job)
    with open(os.path.join(workdir, f"{job.name}.stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "rigidkit.cli", *job.argv, "--out", out],
                                cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], JOB_TIMEOUT_S)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = _read_report(out, proc.returncode, expect) if ready else [f"timed out after {JOB_TIMEOUT_S} s"]
    return Sample(job.name, seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, problems)


def run_inprocess(job: workloads.Job, expect: dict, workdir: str) -> Sample:
    """One call of ``rigidkit.cli.main`` in this process (patched when traced)."""
    cli = sys.modules["rigidkit.cli"]
    out = _out_path(workdir, job)
    t0 = time.perf_counter()
    try:
        rc = cli.main(job.argv + ["--out", out])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed invocation, not a crash of the benchmark
        traceback.print_exc(file=sys.stderr)
        rc = -1
    seconds = time.perf_counter() - t0
    return Sample(job.name, seconds, 0.0, 0.0, _read_report(out, rc, expect))


def setup(workload: str, seed: int, workdir: str) -> tuple[list[workloads.Job], dict, tuple[float, float]]:
    """Generate inputs, load the reference and run one warm-up invocation.

    Returns the jobs, their expected fields and the set-up's (wall, CPU)
    seconds; CPU counts this process and the warm-up process.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    jobs = workloads.generate(workload, seed, workdir)
    reference = workloads.load_reference()
    expect = {j.name: workloads.expectations(j, reference) for j in jobs}
    warm = run_subprocess(jobs[0], expect[jobs[0].name], workdir)
    if warm.problems:
        print(f"warm-up {warm.job} failed: {'; '.join(warm.problems)}", file=sys.stderr)
    return jobs, expect, (time.perf_counter() - t0, time.process_time() - c0 + warm.cpu_s)


def closed_loop(jobs, expect, workdir: str, seconds: float) -> list[Sample]:
    """Whole passes over the job list until ``seconds`` have passed.

    Only whole passes, so every job has as many samples as the others and
    the pooled median does not depend on where the clock ran out.
    """
    samples: list[Sample] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples += [run_subprocess(job, expect[job.name], workdir) for job in jobs]
    return samples


def tail(values: list[float]) -> str:
    """The value at the highest percentile with at least ten samples above it.

    Printed but not gated in BENCHMARK.json: a one-pass run of the heavier
    workloads has ten samples or fewer, where no such percentile exists.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return f"job_s.tail undefined: {n} samples leave no percentile with ten beyond it"
    return f"job_s.tail = {ordered[n - 11]!r} s, p{100.0 * (n - 10) / n:.1f} of {n} samples"


def end_to_end(samples: list[Sample], setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """Gated metrics, plus note lines with the wall-clock figures."""
    by_job: dict[str, list[Sample]] = {}
    for s in samples:
        by_job.setdefault(s.job, []).append(s)
    times = [s.seconds for s in samples]
    failed = sum(1 for s in samples if s.problems)
    values = {
        "setup_s": statistics.median(cpu for _, cpu in setups),
        "cpu_s": sum(statistics.median(s.cpu_s for s in v) for v in by_job.values()),
        "peak_rss_mb": max(s.rss_mb for s in samples),
    }
    wall = sum(statistics.median(s.seconds for s in v) for v in by_job.values())
    notes = [
        f"setup_s: CPU seconds, median of {len(setups)} set-ups (inputs, reference, one warm-up "
        f"invocation); wall median {statistics.median(w for w, _ in setups)!r} s",
        f"cpu_s: one pass = sum over {len(by_job)} jobs of each job's median user+sys CPU seconds "
        f"({len(samples) // len(by_job)} passes)",
        f"peak_rss_mb: max RSS over {len(samples)} child processes",
        "not gated, wall clock:",
        f"wall_s = {wall!r} s, one pass = sum of each job's median wall time",
        f"job_s.p50 = {statistics.median(times)!r} s, median of {len(times)} invocations",
        tail(times),
        f"fail_ratio = {failed}/{len(samples)} = {failed / len(samples)} ratio",
    ]
    for name, v in by_job.items():
        notes.append(f"  {name}: median wall {statistics.median(s.seconds for s in v):.4f} s, "
                     f"cpu {statistics.median(s.cpu_s for s in v):.4f} s over {len(v)} runs")
    return values, notes


def _fresh(args: list[str]) -> tuple[float, str]:
    """Wall time and standard output of one fresh interpreter."""
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - t0, res.stdout


def _pass(jobs, expect, workdir, tracer=None) -> tuple[float, list[Sample]]:
    t0 = time.perf_counter()
    samples = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        samples.append(run_inprocess(job, expect[job.name], workdir))
    return time.perf_counter() - t0, samples


def per_layer(workload: str, jobs, expect, workdir: str, fresh_repeats: int) -> tuple[dict, list[str], list[Sample]]:
    """Fresh-process start-up figures plus one traced in-process pass."""
    import_code = ["-c", "import time; t = time.perf_counter(); import rigidkit.cli; "
                         "print(time.perf_counter() - t)"]
    import_readings = [float(_fresh(import_code)[1]) for _ in range(fresh_repeats)]
    import_s = statistics.median(import_readings)
    startup_s = statistics.median(_fresh(["-m", "rigidkit.cli", "--version"])[0] for _ in range(fresh_repeats))

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.import_module("rigidkit.cli")
    run_inprocess(jobs[0], expect[jobs[0].name], workdir)  # first-call costs outside the timed passes
    before, samples = _pass(jobs, expect, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall, traced_samples = _pass(jobs, expect, workdir, tracer)
    finally:
        tracer.uninstall()
    after, more = _pass(jobs, expect, workdir)
    samples += traced_samples + more
    untraced_wall = 0.5 * (before + after)
    tracer.write_jsonl(os.path.join(workdir, "spans.jsonl"))

    selfs = tracing.self_times(tracer.spans)
    counts = tracing.counters(tracer.spans)
    values = {name: 0.0 for name in PER_LAYER}
    for span_name, seconds in selfs.items():
        values[SELF_TIME[span_name]] += seconds
    values.update({k: v for k, v in counts.items() if k in values})
    pairs = counts.get("geometry.oval_pairs", 0)
    values["geometry.prefilter_skip_ratio"] = counts.get("geometry.skipped_pairs", 0) / pairs if pairs else 0.0
    cands = counts.get("remez.candidates", 0)
    values["remez.solved_ratio"] = counts.get("remez.lp_solved", 0) / cands if cands else 0.0
    seeds = counts.get("prooftrace.seeds", 0)
    values["prooftrace.converged_ratio"] = counts.get("prooftrace.converged", 0) / seeds if seeds else 0.0
    dispatch = sum(s.end - s.start for s in tracer.spans if s.name == "cli.dispatch")
    values.update({
        "cli.import_s": import_s,
        "cli.startup_s": startup_s,
        "trace.dispatch_s": dispatch,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": float(len(tracer.spans)),
    })

    accounted = sum(selfs.values())
    notes = [
        f"traced pass: {len(jobs)} in-process jobs, {len(tracer.spans)} spans written to spans.jsonl",
        f"self time: layers + cli.self_s = {accounted:.6f} s of {dispatch:.6f} s in cli.dispatch",
        f"tracing overhead: traced pass {traced_wall:.4f} s - untraced {untraced_wall:.4f} s "
        f"(mean of one pass before and one after) = {traced_wall - untraced_wall:.4f} s",
        f"start-up: {len(jobs)} jobs x cli.startup_s {startup_s:.4f} s = {len(jobs) * startup_s:.4f} s "
        f"per subprocess pass, against {dispatch:.4f} s of in-process dispatch",
    ]
    for span_name, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        share = seconds / dispatch if dispatch else 0.0
        notes.append(f"  {SELF_TIME[span_name]}: {seconds:.4f} s ({100 * share:.1f}% of dispatch)")
    if tracer.missing:
        notes.append(f"bindings not found, their layers read 0: {', '.join(tracer.missing)}")
    notes += crosscheck(workload, import_readings, tracer.spans)
    return values, notes, samples


def crosscheck(workload: str, import_readings: list[float], spans) -> list[str]:
    """Compare with the one-off scratch baselines quoted in ROADMAP.md.

    A figure within 25% of the baseline counts as reproduced; otherwise the
    line says why the two differ.
    """
    import_s = statistics.median(import_readings)
    ratio = import_s / ROADMAP_IMPORT_S
    line = (f"cross-check cli.import_s: {import_s:.3f} s here (median of {len(import_readings)} fresh "
            f"processes, range {min(import_readings):.3f}-{max(import_readings):.3f} s), "
            f"{ROADMAP_IMPORT_S} s in ROADMAP.md, ratio {ratio:.2f}: ")
    if abs(ratio - 1.0) <= 0.25:
        line += "reproduced"
    else:
        line += ("not reproduced; about 0.55 s of the import is scipy.optimize, whose load time on a "
                 "shared 2-core machine varies by tens of percent between back-to-back processes, and "
                 "the ROADMAP figure is a single reading")
    lines = [line]
    if workload == "rings-geometry":
        for name, roadmap in ROADMAP_N100.items():
            mine = sum(s.end - s.start for s in spans if s.name == name and s.job == "decompose-rings100")
            verdict = "reproduced" if abs(mine / roadmap - 1.0) <= 0.25 else (
                "not reproduced; this span is the whole call on 100 concentric 48-gon rings with radii "
                "0.95*i/100, where the ROADMAP figure is a single scratch reading of unstated radii")
            lines.append(f"cross-check {name} at N=100: {mine:.3f} s here, {roadmap} s in ROADMAP.md, "
                         f"ratio {mine / roadmap:.2f}: {verdict}")
    return lines


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown (git not available)"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def result_line(samples: list[Sample], values: dict, units: dict) -> str:
    failed = sum(1 for s in samples if s.problems)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })


def report_failures(samples: list[Sample]) -> None:
    for s in samples:
        if s.problems:
            print(f"FAILED {s.job}: {'; '.join(s.problems)}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    workdir = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}")
    print("env " + json.dumps(environment()))
    if trace:
        jobs, expect, _ = setup(workload, seed, workdir)
        values, notes, samples = per_layer(workload, jobs, expect, workdir, FRESH_REPEATS)
        units = PER_LAYER
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            jobs, expect, took = setup(workload, seed, workdir)
            setups.append(took)
        samples = closed_loop(jobs, expect, workdir, seconds)
        values, notes = end_to_end(samples, setups)
        units = END_TO_END
    for line in notes:
        print(line)
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    report_failures(samples)
    print(result_line(samples, values, units))


def smoke() -> int:
    """Each workload's first (smallest) job, both modes; every metric in BENCHMARK.json present."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list[str] = []
    for workload in workloads.WORKLOADS:
        before = len(problems)
        workdir = os.path.join(WORK, f"smoke-{workload}")
        jobs, expect, took = setup(workload, 0, workdir)
        samples = closed_loop(jobs[:1], expect, workdir, 0.0)
        e2e, _ = end_to_end(samples, [took])
        layers, _, traced = per_layer(workload, jobs[:1], expect, workdir, 1)
        for kind, values, units in (("end_to_end", e2e, END_TO_END), ("per_layer", layers, PER_LAYER)):
            for metric in spec[kind]:
                name = metric["name"]
                if units.get(name) != metric["unit"] or not math.isfinite(values.get(name, math.nan)):
                    problems.append(f"{workload}: {kind} metric {name} missing or not in {metric['unit']}")
        for s in samples + traced:
            problems += [f"{workload}: {s.job}: {p}" for p in s.problems]
        print(f"smoke {workload}: {jobs[0].name} ok={len(problems) == before}")
    for p in problems:
        print(p)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fast self-test of the benchmark")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "rigidkit", "cli.py")):
        print(f"error: no rigidkit sources under {SRC}; run from a rigidkit checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
