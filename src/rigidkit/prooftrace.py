"""Critical-point counting and the domain pigeonhole argument.

A real polynomial of degree d in the plane has at most (d-1)^2 isolated
critical points (the gradient components have degrees <= d-1 and their
common zeros are counted by the product). A nested-oval decomposition with
more domains than that bound therefore contains a domain without interior
critical points, which pins the sup of |p| on that domain to its boundary.
This module locates critical points numerically; ``domain_pigeonhole_report``
checks their count in its Bezout row and assembles the per-domain evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import OvalConfiguration, build_domains, build_nesting_forest, lattice, points_in_domain, sample_boundary
from .poly import MultiPoly, derivatives_of_order, eval_poly, eval_polys

__all__ = [
    "CriticalPointSet",
    "find_critical_points",
    "perturb_linear",
    "domain_pigeonhole_report",
]

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# the generic tilt direction: the unit vector along (1, golden ratio)
_TILT = (1.0 / math.hypot(1.0, _GOLDEN), _GOLDEN / math.hypot(1.0, _GOLDEN))
_DET_FLOOR = 1e-14
_STEP_FLOOR = 1e-13
_MAX_ITER = 80
_MERGE_RADIUS = 1e-6
# the pigeonhole tilt relative to max(||p||, 1): small next to p, so the count
# is evidence about p, yet at least 50 times the gradient tolerance
# 1e-8 * (1 + ||p||), since on a degenerate critical set of p the tilted
# gradient has norm t, and below the tolerance the whole set would pass as
# many clusters
_TILT_EPS = 1e-6
_BOUNDARY_SAMPLES = 512  # pigeonhole samples per ring
_INTERIOR_GRID = 33  # pigeonhole interior lattice points per axis


@dataclass
class CriticalPointSet:
    """Clustered Newton solutions of grad p = 0.

    Representatives are pairwise farther apart than the merge radius 1e-6;
    each carries the number of converged seeds merged into it. Gradient
    norms at representatives satisfy the acceptance filter used by
    ``find_critical_points``.
    """

    representatives: np.ndarray
    gradient_norms: np.ndarray
    cluster_sizes: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        return int(self.representatives.shape[0])

    def to_json_dict(self) -> dict:
        return {
            "n_clusters": self.n_clusters,
            "merge_radius": _MERGE_RADIUS,
            "representatives": self.representatives.tolist(),
            "gradient_norms": self.gradient_norms.tolist(),
            "cluster_sizes": self.cluster_sizes.tolist(),
            "diagnostics": self.diagnostics,
        }


def find_critical_points(p: MultiPoly, box, grid: int) -> CriticalPointSet:
    """Multi-start Newton on the gradient system over a seed lattice.

    ``box`` is a ``(lo, hi)`` corner pair, as ``geometry.lattice`` takes it,
    finite and with lo < hi on each axis. Seeds form a grid x grid
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

    (_, gy), (_, gx) = derivatives_of_order(p, 1)
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
        return CriticalPointSet(np.zeros((0, 2)), np.zeros(0), sizes, {**diagnostics, "note": note})

    if gx.is_zero() and gy.is_zero():
        return empty("gradient vanishes identically")

    (_, hyy), (_, hxy), (_, hxx) = derivatives_of_order(p, 2)

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
        diagnostics={**diagnostics, "gradient_tolerance": grad_tol},
    )


def perturb_linear(p: MultiPoly, t: float) -> MultiPoly:
    """p + t * (a*x + b*y) for the fixed unit direction (a, b) along (1, golden ratio); a generic tilt.

    Adding a tiny linear form splits degenerate critical points, so the
    perturbed polynomial is Morse for all but finitely many directions.
    """
    if p.nvars != 2:
        raise ValidationError(f"expected dimension 2, got {p.nvars}")
    if not t > 0.0:
        raise ValidationError(f"perturbation size must be positive, got {t}")
    a, b = _TILT
    return p + MultiPoly(2, {(1, 0): t * a, (0, 1): t * b})


def domain_pigeonhole_report(p: MultiPoly, config: OvalConfiguration, newton_grid: int) -> dict:
    """Assemble the pigeonhole evidence for p over a nested-oval config as a JSON body.

    The polynomial is first tilted by ``perturb_linear`` with size
    t = 1e-6 * max(||p||, 1), so its critical points are isolated; the report
    gives t as the perturbation's ``eps`` next to the fixed direction, and
    everything below refers to the perturbed polynomial. Per domain the
    report compares the max of |p| on ``_BOUNDARY_SAMPLES`` points per ring
    against the max on an interior lattice of ``_INTERIOR_GRID`` points per
    axis and flags domains whose interior max wins, which forces an interior
    critical point for a smooth function, by more than twice the rounding
    bound (terms + d) * eps * sum |c_alpha| of one evaluation of the tilted p
    in the unit disc, so an ulp tie on the domain's own ring is no flag.
    Critical points are then located by Newton from a ``newton_grid`` x
    ``newton_grid`` seed lattice over the configuration bounding box and
    assigned to the unique domain containing them (or none). A critical
    value exceeding every boundary sample while its point sits outside all
    domains is recorded as a confinement violation: the decomposition fails
    to trap that extremum.

    Boundary samples at count k nest inside those at 2k, and the interior
    lattice at g points per axis nests inside 2g-1, so maxima (and flags
    already raised) are monotone under sample doubling.

    The body holds the degree d, the perturbation, the Bezout formula and its
    ``bezout`` row, which checks the cluster count against (d-1)^2. A count
    over the bound is impossible for isolated critical points, so the row
    labels it a numerical artifact (split clusters, or a positive-dimensional
    critical set sampled at many points), never a counterexample. Then come
    the critical points as ``CriticalPointSet.to_json_dict`` gives them, each
    point's domain (outer oval id, or None) in ``assignments``, one entry per
    domain, and the pigeonhole tallies.
    """
    tilt = _TILT_EPS * max(p.coefficient_norm(), 1.0)
    pt_poly = perturb_linear(p, tilt)
    d = pt_poly.degree
    if d < 1:
        raise ValidationError(f"the tilt of size {tilt:g} cancels every non-constant term of p")

    parent, _ = build_nesting_forest(config)
    areas = build_domains(config, parent).tolist()
    # each oval's box, and the configuration's around them
    low = np.minimum.reduceat(config.vertices, config.starts[:-1], axis=0)
    high = np.maximum.reduceat(config.vertices, config.starts[:-1], axis=0)
    lo, hi = low.min(axis=0), high.max(axis=0)
    span = max(*(hi - lo), 1e-3)
    cps = find_critical_points(pt_poly, (lo - 0.05 * span, hi + 0.05 * span), newton_grid)

    # each oval is sampled once: as its own domain's outer ring and as its parent's hole
    bpts = sample_boundary(config, _BOUNDARY_SAMPLES)
    bvals = np.abs(eval_poly(pt_poly, [bpts[:, 0], bpts[:, 1]])).reshape(config.N, _BOUNDARY_SAMPLES)
    oval_max = np.max(bvals, axis=1).tolist()
    global_bmax = max(0.0, *oval_max)
    # twice the rounding bound of one evaluation in the disc: a Python float, so each flag is a JSON bool
    slack = 2.0 * (len(pt_poly.coefs) + d) * math.ulp(1.0) * float(np.sum(np.abs(pt_poly.coefs)))

    # the domains are disjoint, so each critical point goes to at most one of them
    assignments: list[int | None] = [None] * cps.n_clusters
    dom_entries: list[dict] = []
    for k in range(config.N):
        crit_idx = np.flatnonzero(points_in_domain(config, parent, k, cps.representatives)).tolist()
        for i in crit_idx:
            assignments[i] = config.ids[k]
        bmax = max(0.0, oval_max[k], *(oval_max[h] for h in np.flatnonzero(parent == k)))
        grid_pts = lattice(low[k], high[k], _INTERIOR_GRID)
        inner = grid_pts[points_in_domain(config, parent, k, grid_pts)]
        ivals = np.abs(eval_poly(pt_poly, [inner[:, 0], inner[:, 1]]))
        interior_max = float(np.max(ivals)) if ivals.size else None
        dom_entries.append(
            {
                "oval_id": config.ids[k],
                "area": areas[k],
                "boundary_max": bmax,
                "interior_max": interior_max,
                "flagged": interior_max is not None and interior_max - bmax > slack,
                "has_critical_point": bool(crit_idx),
                "critical_indices": crit_idx,
            }
        )

    n_without = sum(1 for e in dom_entries if not e["has_critical_point"])
    free = [i for i, a in enumerate(assignments) if a is None]
    reps = cps.representatives[free]
    crit_vals = np.abs(eval_poly(pt_poly, [reps[:, 0], reps[:, 1]]))
    violations = [i for i, v in zip(free, crit_vals.tolist()) if v > global_bmax]
    consistent = cps.n_clusters <= (d - 1) ** 2
    return {
        "degree": d,
        "perturbation": {"direction": list(_TILT), "eps": tilt},
        "bezout_formula": "at most (d-1)^2 isolated critical points",
        "bezout": {
            "degree": d, "bound": (d - 1) ** 2, "n_clusters": cps.n_clusters,
            "verdict": "consistent" if consistent else "violation",
            "note": None if consistent else (
                "cluster count exceeds the degree bound; this is a numerical artifact (split clusters or a "
                "positive-dimensional critical set sampled repeatedly), not a counterexample"
            ),
        },
        "critical_points": cps.to_json_dict(),
        "assignments": assignments,
        "domains": dom_entries,
        "global_boundary_max": global_bmax,
        "pigeonhole_forced": config.N > cps.n_clusters,
        "n_without_critical_point": n_without,
        "confinement_violations": violations,
    }
