"""Critical-point counting and the domain pigeonhole argument.

A real polynomial of degree d in the plane has at most (d-1)^2 isolated
critical points (the gradient components have degrees <= d-1 and their
common zeros are counted by the product). A nested-oval decomposition with
more domains than that bound therefore contains a domain without interior
critical points, which pins the sup of |p| on that domain to its boundary.
This module locates critical points numerically, checks the count, and
assembles the per-domain evidence.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import (
    OvalConfiguration,
    bounding_box,
    build_domains,
    build_nesting_forest,
    lattice,
    points_in_domain,
    sample_boundary,
)
from .poly import MultiPoly, eval_poly, eval_polys, partial_derivative

__all__ = [
    "CriticalPointSet",
    "BezoutVerdict",
    "DomainPigeonholeReport",
    "find_critical_points",
    "perturb_linear",
    "default_perturbation",
    "bezout_check",
    "domain_pigeonhole_report",
]

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_DET_FLOOR = 1e-14
_STEP_FLOOR = 1e-13
_MAX_ITER = 80
_MERGE_RADIUS = 1e-6


@dataclass
class CriticalPointSet:
    """Clustered Newton solutions of grad p = 0.

    Representatives are pairwise farther apart than the merge radius; each
    carries the number of converged seeds merged into it. Gradient norms at
    representatives satisfy the acceptance filter used by
    ``find_critical_points``.
    """

    representatives: np.ndarray
    gradient_norms: np.ndarray
    cluster_sizes: np.ndarray
    merge_radius: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        return int(self.representatives.shape[0])

    def to_json_dict(self) -> dict:
        return {
            "n_clusters": self.n_clusters,
            "merge_radius": self.merge_radius,
            "representatives": [[float(a), float(b)] for a, b in self.representatives],
            "gradient_norms": [float(g) for g in self.gradient_norms],
            "cluster_sizes": [int(s) for s in self.cluster_sizes],
            "diagnostics": self.diagnostics,
        }


def find_critical_points(p: MultiPoly, box, grid: int) -> CriticalPointSet:
    """Multi-start Newton on the gradient system over a seed lattice.

    ``box`` is the ``(lo, hi)`` corner pair that ``geometry.bounding_box``
    returns, finite and with lo < hi on each axis. Seeds form a grid x grid
    lattice over the box. Newton steps use the exact Hessian and move only
    the live seeds, for at most 80 iterations; a seed is dropped for good
    when the Hessian determinant falls under 1e-14 times its scale or the
    iterate leaves the inflated box. A seed whose step (dx, dy) satisfies
    |dx| + |dy| <= 1e-13 * (1 + |x| + |y|) at its new point (x, y) inside the
    box has settled: it keeps that point and is never evaluated again.
    Settled seeds and the seeds still live after the last iteration are kept
    only if their gradient norm is at most 1e-8 * (1 + coefficient norm),
    then greedily clustered: a point joins the first representative within
    the merge radius 1e-6, in lexicographic point order, so representatives
    stay pairwise separated.

    ``diagnostics`` holds the seed count, the number kept (``converged``),
    the seeds dropped for a singular Hessian, for leaving the box and for
    missing the gradient tolerance, and ``seed_iterations``, the number of
    seed evaluations Newton made.

    A polynomial with identically zero gradient (a constant) has no isolated
    critical points and yields the empty set.
    """
    if p.nvars != 2:
        raise ValidationError(f"expected dimension 2, got {p.nvars}")
    if grid < 2:
        raise ValidationError(f"seed grid must be >= 2, got {grid}")
    try:
        corners = np.asarray(box, dtype=float)
    except (TypeError, ValueError):  # ragged or non-numeric
        corners = np.zeros(0)
    if corners.shape != (2, 2) or not np.all(np.isfinite(corners)) or np.any(corners[0] >= corners[1]):
        raise ValidationError(f"search box must be finite (lo, hi) corners with lo < hi, got {box!r}")
    lo, hi = corners

    gx = partial_derivative(p, 0)
    gy = partial_derivative(p, 1)
    coefnorm = p.coefficient_norm()
    grad_tol = 1e-8 * (1.0 + coefnorm)
    diagnostics = {
        "seeds": grid * grid,
        "converged": 0,
        "dropped_singular_hessian": 0,
        "dropped_left_box": 0,
        "dropped_gradient_tolerance": 0,
        "seed_iterations": 0,
    }

    def empty(note: str) -> CriticalPointSet:
        sizes = np.zeros(0, dtype=np.int64)
        return CriticalPointSet(np.zeros((0, 2)), np.zeros(0), sizes, _MERGE_RADIUS, {**diagnostics, "note": note})

    if gx.is_zero() and gy.is_zero():
        return empty("gradient vanishes identically")

    hxx = partial_derivative(gx, 0)
    hxy = partial_derivative(gx, 1)
    hyy = partial_derivative(gy, 1)

    pts = lattice(lo, hi, grid)
    live = np.arange(len(pts))
    settled = np.zeros(len(pts), dtype=bool)

    # leave room around the box so roots just outside the seed hull survive
    pad = 0.5 * (hi - lo) + 1.0
    lo, hi = lo - pad, hi + pad

    for _ in range(_MAX_ITER):
        diagnostics["seed_iterations"] += live.size
        gv1, gv2, a, b, c = eval_polys((gx, gy, hxx, hxy, hyy), [pts[live, 0], pts[live, 1]])
        det = a * c - b * b
        scale = np.abs(a) + np.abs(b) + np.abs(c)
        ok = np.abs(det) > _DET_FLOOR * np.maximum(1.0, scale * scale)
        diagnostics["dropped_singular_hessian"] += live.size - int(np.count_nonzero(ok))
        live, gv1, gv2, a, b, c, det = (v[ok] for v in (live, gv1, gv2, a, b, c, det))
        dx = (c * gv1 - b * gv2) / det
        dy = (a * gv2 - b * gv1) / det
        pts[live, 0] -= dx
        pts[live, 1] -= dy
        x = pts[live]
        inside = np.all(np.isfinite(x), axis=1) & np.all(x >= lo, axis=1) & np.all(x <= hi, axis=1)
        diagnostics["dropped_left_box"] += live.size - int(np.count_nonzero(inside))
        moving = inside & (np.abs(dx) + np.abs(dy) > _STEP_FLOOR * (1.0 + np.abs(x[:, 0]) + np.abs(x[:, 1])))
        settled[live[inside & ~moving]] = True
        live = live[moving]
        if not live.size:
            break

    settled[live] = True
    if not np.any(settled):
        return empty("no seed converged")
    cand = pts[settled]
    gn = np.hypot(*eval_polys((gx, gy), [cand[:, 0], cand[:, 1]]))
    keep = gn <= grad_tol
    diagnostics["dropped_gradient_tolerance"] = len(cand) - int(np.count_nonzero(keep))
    cand, gn = cand[keep], gn[keep]
    if len(cand) == 0:
        return empty("no seed reached the gradient tolerance")
    diagnostics["converged"] = int(len(cand))

    # the first unclaimed point, in lexicographic order, claims every unclaimed point within the radius
    order = np.lexsort((cand[:, 1], cand[:, 0]))
    cand, gn = cand[order], gn[order]
    unclaimed = np.ones(len(cand), dtype=bool)
    reps: list[int] = []
    sizes: list[int] = []
    while np.any(unclaimed):
        r = int(np.argmax(unclaimed))
        near = unclaimed & (np.hypot(cand[:, 0] - cand[r, 0], cand[:, 1] - cand[r, 1]) <= _MERGE_RADIUS)
        unclaimed &= ~near
        reps.append(r)
        sizes.append(int(np.count_nonzero(near)))

    return CriticalPointSet(
        representatives=cand[reps],
        gradient_norms=gn[reps],
        cluster_sizes=np.array(sizes, dtype=np.int64),
        merge_radius=_MERGE_RADIUS,
        diagnostics={**diagnostics, "gradient_tolerance": grad_tol},
    )


def default_perturbation(p: MultiPoly, eps: float = 1e-6) -> tuple[float, float, float]:
    """Deterministic generic direction (1, golden ratio) with size eps * max(||p||, 1)."""
    norm = math.hypot(1.0, _GOLDEN)
    return (1.0 / norm, _GOLDEN / norm, eps * max(p.coefficient_norm(), 1.0))


def perturb_linear(p: MultiPoly, xi=None) -> MultiPoly:
    """p + eps * (a*x + b*y) for xi = (a, b, eps); a generic tilt.

    Adding a tiny linear form splits degenerate critical points, so the
    perturbed polynomial is Morse for all but finitely many directions.
    The direction is normalized to a unit vector; the default xi comes from
    ``default_perturbation``.
    """
    if p.nvars != 2:
        raise ValidationError(f"expected dimension 2, got {p.nvars}")
    if xi is None:
        xi = default_perturbation(p)
    if len(xi) != 3:
        raise ValidationError(f"perturbation must be (a, b, eps), got {xi!r}")
    a, b, eps = (float(v) for v in xi)
    if eps <= 0.0:
        raise ValidationError(f"perturbation size must be positive, got {eps}")
    norm = math.hypot(a, b)
    if norm == 0.0:
        raise ValidationError("perturbation direction must be nonzero")
    a, b = a / norm, b / norm
    tilt = MultiPoly(2, {(1, 0): eps * a, (0, 1): eps * b})
    return p + tilt


@dataclass
class BezoutVerdict:
    """Cluster count against the (d-1)^2 critical-point bound."""

    degree: int
    bound: int
    n_clusters: int
    verdict: str
    note: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def bezout_check(cps: CriticalPointSet, d: int) -> BezoutVerdict:
    """Check the cluster count against (d-1)^2.

    An exceeded bound is impossible for a degree-d polynomial with isolated
    critical points, so a violation is labeled a numerical artifact (split
    clusters, or a positive-dimensional critical set sampled at many
    points), never a counterexample.
    """
    if d < 1:
        raise ValidationError(f"degree must be >= 1, got {d}")
    bound = (d - 1) ** 2
    if cps.n_clusters <= bound:
        return BezoutVerdict(degree=d, bound=bound, n_clusters=cps.n_clusters, verdict="consistent")
    return BezoutVerdict(
        degree=d,
        bound=bound,
        n_clusters=cps.n_clusters,
        verdict="violation",
        note=(
            "cluster count exceeds the degree bound; this is a numerical "
            "artifact (split clusters or a positive-dimensional critical "
            "set sampled repeatedly), not a counterexample"
        ),
    )


@dataclass
class DomainPigeonholeReport:
    """Per-domain sup evidence plus critical-point accounting."""

    degree: int
    perturbation: tuple[float, float, float]
    bezout: BezoutVerdict
    critical_points: CriticalPointSet
    assignments: list[int | None]
    domains: list[dict]
    global_boundary_max: float
    pigeonhole_forced: bool
    n_without_critical_point: int
    confinement_violations: list[int]

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "perturbation": {
                "direction": [self.perturbation[0], self.perturbation[1]],
                "eps": self.perturbation[2],
            },
            "bezout": self.bezout.to_json_dict(),
            "critical_points": self.critical_points.to_json_dict(),
            "assignments": self.assignments,
            "domains": self.domains,
            "global_boundary_max": self.global_boundary_max,
            "pigeonhole_forced": self.pigeonhole_forced,
            "n_without_critical_point": self.n_without_critical_point,
            "confinement_violations": self.confinement_violations,
        }


def domain_pigeonhole_report(
    p: MultiPoly,
    config: OvalConfiguration,
    samples: int = 512,
    interior_grid: int = 33,
    newton_grid: int = 48,
    perturbation=None,
) -> DomainPigeonholeReport:
    """Assemble the pigeonhole evidence for p over a nested-oval config.

    The polynomial is first tilted by a tiny generic linear form so its
    critical points are isolated; everything below refers to the perturbed
    polynomial. Per domain the report compares the max of |p| on ``samples``
    boundary points per ring against an interior lattice max and flags
    domains whose interior max wins, which forces an interior critical point
    for a smooth function. Critical points are then located over the
    configuration bounding box and assigned to the unique domain containing
    them (or none). A critical value exceeding every boundary sample while
    its point sits outside all domains is recorded as a confinement
    violation: the decomposition fails to trap that extremum.

    Boundary samples at count k nest inside those at 2k, and the interior
    lattice at g points per axis nests inside 2g-1, so maxima (and flags
    already raised) are monotone under sample doubling.
    """
    if p.nvars != 2:
        raise ValidationError(f"expected dimension 2, got {p.nvars}")
    xi = perturbation if perturbation is not None else default_perturbation(p)
    pt_poly = perturb_linear(p, xi)
    d = pt_poly.degree

    domains = build_domains(build_nesting_forest(config))
    if not domains:
        raise ValidationError("configuration has no domains")
    lo, hi = bounding_box(config.ovals)
    span = max(*(hi - lo), 1e-3)
    cps = find_critical_points(pt_poly, (lo - 0.05 * span, hi + 0.05 * span), newton_grid)
    bez = bezout_check(cps, d)

    # each critical point goes to the first domain containing it, if any
    assignments: list[int | None] = [None] * cps.n_clusters
    for dom in domains:
        for i in np.flatnonzero(points_in_domain(dom, cps.representatives)):
            if assignments[i] is None:
                assignments[i] = dom.outer.id

    # each oval is sampled once: as its own domain's outer ring and as its parent's hole
    bpts = np.concatenate([sample_boundary(o, samples) for o in config.ovals], axis=0)
    bvals = np.abs(eval_poly(pt_poly, [bpts[:, 0], bpts[:, 1]])).reshape(config.N, samples)
    oval_max = dict(zip((o.id for o in config.ovals), np.max(bvals, axis=1).tolist()))
    global_bmax = max(0.0, *oval_max.values())

    dom_entries: list[dict] = []
    for dom in domains:
        bmax = max(0.0, *(oval_max[ring.id] for ring in (dom.outer, *dom.holes)))
        grid_pts = lattice(*bounding_box([dom.outer]), interior_grid)
        inside = points_in_domain(dom, grid_pts)
        if np.any(inside):
            ivals = np.abs(eval_poly(pt_poly, [grid_pts[inside, 0], grid_pts[inside, 1]]))
            interior_max: float | None = float(np.max(ivals))
            flagged = interior_max > bmax
        else:
            interior_max = None
            flagged = False
        crit_idx = [i for i, a in enumerate(assignments) if a == dom.outer.id]
        dom_entries.append(
            {
                "oval_id": dom.outer.id,
                "area": dom.area,
                "boundary_max": bmax,
                "interior_max": interior_max,
                "flagged": flagged,
                "has_critical_point": bool(crit_idx),
                "critical_indices": crit_idx,
            }
        )

    n_without = sum(1 for e in dom_entries if not e["has_critical_point"])
    free = [i for i, a in enumerate(assignments) if a is None]
    reps = cps.representatives[free]
    crit_vals = np.abs(eval_poly(pt_poly, [reps[:, 0], reps[:, 1]]))
    violations = [i for i, v in zip(free, crit_vals.tolist()) if v > global_bmax]
    return DomainPigeonholeReport(
        degree=d,
        perturbation=tuple(float(v) for v in xi),
        bezout=bez,
        critical_points=cps,
        assignments=assignments,
        domains=dom_entries,
        global_boundary_max=global_bmax,
        pigeonhole_forced=len(domains) > cps.n_clusters,
        n_without_critical_point=n_without,
        confinement_violations=violations,
    )
