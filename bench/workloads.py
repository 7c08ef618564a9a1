"""Seeded inputs, job lists and report checks for the rigidkit benchmark.

``generate(workload, seed, workdir)`` writes every input file a workload
needs and returns its job list. A job is one ``rigidkit`` CLI invocation
(argv after the program name) plus the checks its report must pass. The
program receives only the generated JSON and CSV files.

Expected values come from two places. Checks on generated shapes are
derived here from their construction: shoelace areas, nesting depth,
covering numbers recounted from the box-counting cloud, the 2n-1 critical
points of a product of n off-centre nested circles, and the degree of a
composed curve. The LP values and the 1D bound, whose inputs do not depend
on the seed, are checked against ``reference.json``, recorded by
``make_reference.py`` at the commit the benchmark was introduced.

The seed drives the scattered configuration, the box-counting cloud, the
curve points and polynomials, and the ring radii of the small cli-small
proof job. The proof-newton rings are fixed: Newton's cost depends on
where the critical points fall (numpy's power of a negative base is far
slower than of a positive one), and seeded radii moved a pass by up to
a quarter.

The first job of every list is its cheapest; it is the warm-up invocation
and the job the smoke test runs.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("cli-small", "rings-geometry", "remez-ladder", "proof-newton")

RING_SIDES = 48
REL_TOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass
class Job:
    """One CLI invocation and the report fields it must reproduce.

    ``expect`` maps a dotted report path to a value: floats compare to
    ``REL_TOL`` relative, everything else exactly; a trailing ``#`` compares
    the length of a list. ``reference`` lists report paths whose expected
    values are read from this job's entry in ``reference.json``.
    """

    name: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    reference: tuple[str, ...] = ()


# --- geometry of the generated inputs -------------------------------------


def _polygon(cx: float, cy: float, r: float, k: int = RING_SIDES) -> list[list[float]]:
    theta = 2.0 * np.pi * np.arange(k) / k
    return [[float(cx + r * math.cos(t)), float(cy + r * math.sin(t))] for t in theta]


def _shoelace(verts) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        area += x0 * y1 - x1 * y0
    return 0.5 * area


class _Config:
    """Oval list with its known parent structure, written as config JSON."""

    def __init__(self):
        self.ovals: list[list[list[float]]] = []
        self.parents: list[int | None] = []

    def add(self, verts, parent: int | None) -> int:
        self.ovals.append(verts)
        self.parents.append(parent)
        return len(self.ovals) - 1

    def write(self, path: str) -> str:
        data = {"ovals": [{"id": i + 1, "vertices": v} for i, v in enumerate(self.ovals)]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def depths(self) -> dict[str, int]:
        out = {}
        for i in range(len(self.ovals)):
            depth, p = 1, self.parents[i]
            while p is not None:
                depth, p = depth + 1, self.parents[p]
            out[str(i + 1)] = depth
        return out

    def mu(self) -> float:
        areas = [_shoelace(v) for v in self.ovals]
        domain = list(areas)
        for i, p in enumerate(self.parents):
            if p is not None:
                domain[p] -= areas[i]
        return min(domain)

    def geometry_job(self, name: str, argv: list[str], with_depths: bool) -> Job:
        expect = {"mu": self.mu()}
        if with_depths:
            expect["domains#"] = len(self.ovals)
            expect.update({f"forest.{k}.depth": v for k, v in self.depths().items()})
        return Job(name, argv, expect)


def concentric(radii, centres=None) -> _Config:
    """Nested rings, outermost first; all centred at the origin unless given."""
    cfg = _Config()
    parent = None
    order = sorted(range(len(radii)), key=lambda i: -radii[i])
    for i in order:
        cx, cy = centres[i] if centres is not None else (0.0, 0.0)
        parent = cfg.add(_polygon(cx, cy, radii[i]), parent)
    return cfg


def ladder_radii(n: int) -> list[float]:
    """Fixed concentric ladder: n rings evenly spaced out to radius 0.95."""
    return [0.95 * (n - i) / n for i in range(n)]


def annulus() -> _Config:
    s = math.sqrt(2.0) / 2.0
    cfg = _Config()
    outer = cfg.add([[s, s], [-s, s], [-s, -s], [s, -s]], None)
    cfg.add([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]], outer)
    return cfg


def scattered(rng: np.random.Generator, groups_per_axis: int = 5, depth: int = 4) -> _Config:
    """Nested circle groups on a jittered lattice: 5 x 5 groups of 4 rings.

    Groups never share a bounding box, so the validation prefilter skips
    every cross-group pair; the structure (and with it the work) is the
    same for every seed, only centres and radii move.
    """
    cfg = _Config()
    pitch = 1.3 / groups_per_axis
    for gx in range(groups_per_axis):
        for gy in range(groups_per_axis):
            cx = -0.65 + (gx + 0.5) * pitch + rng.uniform(-0.1, 0.1) * pitch
            cy = -0.65 + (gy + 0.5) * pitch + rng.uniform(-0.1, 0.1) * pitch
            r = 0.36 * pitch * rng.uniform(0.9, 1.0)
            parent = None
            for _ in range(depth):
                parent = cfg.add(_polygon(cx, cy, r), parent)
                r *= rng.uniform(0.6, 0.8)
    return cfg


def seeded_radii(rng: np.random.Generator, n: int) -> list[float]:
    """n >= 2 ring radii from about 0.2 out to about 0.9, gaps within 2x of each other."""
    inner, outer = rng.uniform(0.15, 0.25), rng.uniform(0.85, 0.95)
    cuts = np.cumsum(rng.uniform(0.5, 1.0, size=n - 1))
    return [float(inner)] + [float(inner + (outer - inner) * c / cuts[-1]) for c in cuts]


def ring_poly(radii, centres) -> dict:
    """prod ((x-a)^2 + (y-b)^2 - r^2) over the circles, as polynomial JSON."""
    terms = {(0, 0): 1.0}
    for r, (a, b) in zip(radii, centres):
        factor = {(2, 0): 1.0, (1, 0): -2.0 * a, (0, 2): 1.0, (0, 1): -2.0 * b, (0, 0): a * a + b * b - r * r}
        out: dict = {}
        for (i, j), c in terms.items():
            for (p, q), f in factor.items():
                out[(i + p, j + q)] = out.get((i + p, j + q), 0.0) + c * f
        terms = out
    return _poly_json(terms)


def random_poly(rng: np.random.Generator, degree: int) -> dict:
    terms = {}
    for total in range(degree + 1):
        for a in range(total + 1):
            terms[(a, total - a)] = float(rng.uniform(-1.0, 1.0)) / (1 + total)
    return _poly_json(terms)


def _poly_json(terms: dict) -> dict:
    return {"nvars": 2, "terms": [{"exp": list(e), "coef": c} for e, c in sorted(terms.items()) if c != 0.0]}


def box_slope(points: np.ndarray, scales) -> float:
    """Least-squares slope of log N(eps) against log(1/eps), recounted here."""
    counts = [len({tuple(c) for c in np.floor(points / e).astype(np.int64).tolist()}) for e in scales]
    x = [math.log(1.0 / e) for e in scales]
    y = [math.log(c) for c in counts]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)


# --- file writers -----------------------------------------------------------


def _write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _write_csv(path: str, rows) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in np.atleast_1d(row)) + "\n")
    return path


def _curve_points(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    ang = rng.uniform(0.0, 2.0 * np.pi, size=count)
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def _proof_job(name: str, workdir: str, radii, grid: int) -> Job:
    """verify-proof on nested circles, each 0.01 further along the diagonal than its parent.

    Off-centre nesting makes the product Morse: one extremum inside the
    innermost circle, one extremum and one saddle in each annulus.
    """
    radii = sorted(radii, reverse=True)
    centres = [(0.01 * i, 0.01 * i) for i in range(len(radii))]
    config = concentric(radii, centres).write(os.path.join(workdir, f"{name}-config.json"))
    poly = _write_json(os.path.join(workdir, f"{name}-poly.json"), ring_poly(radii, centres))
    argv = ["verify-proof", "--poly", poly, "--config", config, "--grid", str(grid)]
    expect = {"critical_points.n_clusters": 2 * len(radii) - 1, "bezout.verdict": "consistent"}
    return Job(name, argv, expect)


def _curve_job(name: str, rng, workdir: str, fdeg: int, s: int, d: int, tgrid: int, config: str) -> Job:
    f = _write_json(os.path.join(workdir, f"{name}-f.json"), random_poly(rng, fdeg))
    pts = _write_csv(os.path.join(workdir, f"{name}-points.csv"), _curve_points(rng, s + 1, 0.5))
    argv = [
        "curve-check", "--f", f, "--points", pts, "--s", str(s), "--degree", str(d),
        "--tgrid", str(tgrid), "--config", config,
    ]
    return Job(name, argv, {"composition.diagnostics.g_degree": fdeg * s})


def _halfline(workdir: str, count: int) -> str:
    return _write_csv(os.path.join(workdir, f"halfline{count}.csv"), np.linspace(-1.0, 0.0, count))


def generate(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's inputs under ``workdir`` and return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    w = functools.partial(os.path.join, workdir)

    if workload == "cli-small":
        ann = annulus()
        ann_path = ann.write(w("annulus.json"))
        cloud = rng.uniform(-1.0, 1.0, size=(2000, 2))
        scales = [0.25, 0.125, 0.0625]
        proof = _proof_job("proof2", workdir, seeded_radii(rng, 2), grid=12)
        svg_cfg = concentric(seeded_radii(rng, 3))
        svg_path = svg_cfg.write(w("svg-config.json"))
        return [
            ann.geometry_job("decompose-annulus", ["decompose", "--config", ann_path], with_depths=True),
            Job("rigidity-1d", ["rigidity-1d", "--zeros=-0.8,-0.2,0.5", "--z0", "0.9", "--degree", "2"],
                reference=("bound",)),
            Job("boxdim", ["boxdim", "--points", _write_csv(w("cloud.csv"), cloud),
                           "--scales", ",".join(map(str, scales)), "--degree", "1"],
                {"fit.slope": box_slope(cloud, scales)}),
            _curve_job("curve4", rng, workdir, fdeg=4, s=2, d=3, tgrid=512, config=ann_path),
            Job("remez-lp-1d", ["remez-lp", "--degree", "2", "--z", _halfline(workdir, 64), "--grid", "64"],
                reference=("value",)),
            Job("rigidity-annulus", ["rigidity", "--config", ann_path, "--degree", "2", "--grid", "16",
                                     "--samples-per-oval", "64"],
                {"mu": ann.mu()}, reference=("remez_estimate.value",)),
            proof,
            svg_cfg.geometry_job("decompose-svg", ["decompose", "--config", svg_path, "--svg", w("rings.svg")],
                                 with_depths=True),
        ]

    if workload == "rings-geometry":
        configs = {f"rings{n}": concentric(ladder_radii(n)) for n in (25, 50, 100)}
        configs["scattered100"] = scattered(rng)
        paths = {name: cfg.write(w(f"{name}.json")) for name, cfg in configs.items()}
        jobs = [cfg.geometry_job(f"decompose-{name}", ["decompose", "--config", paths[name]], with_depths=True)
                for name, cfg in configs.items()]
        for name in ("rings100", "scattered100"):
            argv = ["bounds", "--config", paths[name], "--degree", "10"]
            jobs.append(configs[name].geometry_job(f"bounds-{name}", argv, with_depths=False))
        return jobs

    if workload == "remez-ladder":
        jobs = []
        for d in (2, 3, 4):
            n = (d - 1) ** 2 + 1
            cfg = concentric(ladder_radii(n))
            path = cfg.write(w(f"ladder{n}.json"))
            argv = ["rigidity", "--config", path, "--degree", str(d), "--samples-per-oval", "64", "--grid", "24"]
            job = cfg.geometry_job(f"rigidity-d{d}", argv, with_depths=False)
            job.reference = ("remez_estimate.value",)
            jobs.append(job)
        for d, count in ((4, 256), (6, 512)):
            argv = ["remez-lp", "--degree", str(d), "--z", _halfline(workdir, count), "--grid", "1024"]
            jobs.append(Job(f"remez-lp-1d-d{d}", argv, reference=("value",)))
        return jobs

    if workload == "proof-newton":
        rings = concentric(ladder_radii(4)).write(w("rings4.json"))
        jobs = [_curve_job("curve8", rng, workdir, fdeg=8, s=2, d=6, tgrid=2048, config=rings)]
        for n, grid in ((2, 48), (2, 64), (3, 64), (4, 48)):
            radii = [0.2 + 0.7 * i / (n - 1) for i in range(n)]
            jobs.append(_proof_job(f"proof{n}-g{grid}", workdir, radii, grid))
        return jobs

    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# --- report checks ----------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def expectations(job: Job, reference: dict) -> dict:
    expect = dict(job.expect)
    expect.update({path: reference[job.name][path] for path in job.reference})
    return expect


def lookup(report, path: str):
    node = report
    for key in path.split("."):
        count = key.endswith("#")
        node = node[key.rstrip("#")]
        if count:
            node = len(node)
    return node


def check_report(report: dict, expect: dict) -> list[str]:
    """Mismatches between a parsed report and the expected fields."""
    problems = []
    for path, want in expect.items():
        try:
            got = lookup(report, path)
        except (KeyError, TypeError, IndexError):
            problems.append(f"{path}: missing")
            continue
        if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
            if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
                problems.append(f"{path}: {got!r} != {want!r}")
        elif got != want:
            problems.append(f"{path}: {got!r} != {want!r}")
    return problems
