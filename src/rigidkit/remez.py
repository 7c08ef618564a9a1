"""Remez-type bounds and a numerical Remez-constant estimator.

The Remez constant of a set Z in the unit ball is the smallest K with
sup_B |P| <= K sup_Z |P| over all degree-d polynomials P. One closed-form
upper bound is provided (the topological formula, which assumes
``ovals_required(d, n)`` ovals, a count the reports judge in their
``hypothesis_ok`` entries), and a linear-programming estimator computes a
certified lower estimate for a sampled Z: for each candidate point x0 it
maximizes P(x0) over the polytope {|P| <= 1 on the samples}, whose rows
``vandermonde`` takes from ``poly.eval_polys`` at the unit monomials.

The per-candidate LPs share one constraint polytope, so each solved LP
yields interpolation-weight upper bounds for all remaining candidates
(through its active constraint nodes); provably suboptimal candidates are
skipped. On well-behaved inputs this collapses thousands of LPs to a few
while returning exactly the max a full sweep would.

``linprog`` is imported inside ``remez_estimate_lp``, after the rank test
and before the LP loop: loading its module takes about half a second of CPU,
and no other tool in the package solves an LP, so only an LP run pays it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError
from .geometry import in_unit_ball
from .poly import MultiPoly, basis_size, eval_polys, monomials

__all__ = [
    "RemezEstimate",
    "ovals_required",
    "remez_bound_topological",
    "remez_estimate_lp",
    "inverse_remez",
    "vandermonde",
]

_OBJECTIVE_CAP = 1e12


@dataclass
class RemezEstimate:
    """Outcome of the LP estimator: a lower estimate of the Remez constant."""

    degree: int
    value: float  # math.inf when the sampled set is polynomially degenerate
    witness_poly: MultiPoly | None
    witness_point: np.ndarray | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


def ovals_required(d: int, n: int) -> int:
    """Oval count (d-1)^n + 1 that the topological bounds at degree d in R^n assume."""
    if n < 1:
        raise ValidationError(f"ambient dimension must be >= 1, got {n}")
    if d < 0:
        raise ValidationError(f"degree must be >= 0, got {d}")
    return (d - 1) ** n + 1


def remez_bound_topological(mu: float, d: int, n: int) -> float:
    """Closed-form bound (4n/mu)^d for configurations of many disjoint ovals.

    The bound assumes at least ``ovals_required(d, n)`` ovals; the reports
    judge that count in their ``hypothesis_ok`` entries, so this function
    only evaluates the formula, which reads (8/mu)^d in the plane. A value
    past the largest double is a ValidationError, not infinity.
    """
    if mu <= 0:
        raise ValidationError(f"minimal domain area must be positive, got {mu}")
    ovals_required(d, n)  # rejects n < 1 and d < 0
    try:
        value = (4.0 * n / mu) ** d
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ValidationError(f"bound (4n/mu)^d overflows a double at mu = {mu:.6g}, d = {d}, n = {n}")
    return value


def vandermonde(points: np.ndarray, n: int, d: int) -> np.ndarray:
    """One row per point; column j is ``eval_polys`` of the j-th monomial of ``monomials(n, d)``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != n:
        raise ValidationError(f"points have dimension {pts.shape[1]}, expected {n}")
    units = [MultiPoly.from_rows(n, exp, [1.0]) for exp in monomials(n, d)]
    return np.column_stack(eval_polys(units, list(pts.T)))


def _as_points(arr, name: str) -> np.ndarray:
    pts = np.asarray(arr, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or len(pts) == 0:
        raise ValidationError(f"{name} must be a nonempty 2D point array")
    if not np.all(np.isfinite(pts)):
        raise ValidationError(f"{name} contains non-finite points")
    if not np.all(in_unit_ball(pts)):
        raise ValidationError(f"{name} contains points outside the unit ball")
    return pts


def _infinite(phi: np.ndarray, n: int, d: int, diagnostics: dict) -> RemezEstimate:
    """Infinite estimate, witnessed by the unit coefficient vector that annihilates all samples."""
    _, _, vt = np.linalg.svd(phi, full_matrices=True)
    return RemezEstimate(d, math.inf, MultiPoly.from_rows(n, monomials(n, d), vt[-1]), None, diagnostics)


def remez_estimate_lp(zsamples, d: int, candidates) -> RemezEstimate:
    """Lower estimate of the Remez constant of the sampled set.

    For each candidate x0 the linear program maximizes P(x0) over coefficient
    vectors subject to |P| <= 1 on the samples; the estimate is the max over
    candidates, which converges to the true constant of the sampled set as
    the candidate grid refines. If the samples lie on the zero set of some
    degree-d polynomial the constant is infinite; this is detected up front
    by a rank test and certified with the vanishing polynomial.
    """
    zpts = _as_points(zsamples, "zsamples")
    cand = _as_points(candidates, "candidates")
    n = zpts.shape[1]
    if cand.shape[1] != n:
        raise ValidationError(f"candidate dimension {cand.shape[1]} != sample dimension {n}")
    m = basis_size(n, d)
    phi = vandermonde(zpts, n, d)

    sigma = np.linalg.svd(phi, compute_uv=False)
    diagnostics: dict = {
        "n_samples": len(zpts),
        "n_candidates": len(cand),
        "sigma_min": float(sigma.min()) if len(sigma) == m else 0.0,
        "lp_solved": 0,
        "lp_iterations": 0,
        "pruned": 0,
    }
    if len(zpts) < m or sigma.min() <= 1e-12 * max(1.0, sigma.max()):
        return _infinite(phi, n, d, diagnostics)

    from scipy.optimize import linprog

    a_ub = np.vstack([phi, -phi])
    b_ub = np.ones(len(a_ub))
    psi = vandermonde(cand, n, d)  # candidate basis rows

    ub = np.full(len(cand), np.inf)
    solved = np.zeros(len(cand), dtype=bool)
    best_value = -np.inf
    best_coeffs: np.ndarray | None = None
    best_point: np.ndarray | None = None

    # farthest candidate from the sample centroid tends to maximize growth
    centroid = zpts.mean(axis=0)
    first = int(np.argmax(np.sum((cand - centroid) ** 2, axis=1)))

    while True:
        open_mask = ~solved & (ub > best_value)
        if not np.any(open_mask):
            break
        if best_coeffs is None:
            pick = first
        else:
            masked = np.where(open_mask, ub, -np.inf)
            pick = int(np.argmax(masked))
        solved[pick] = True

        res = linprog(-psi[pick], A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
        diagnostics["lp_solved"] += 1
        diagnostics["lp_iterations"] += int(getattr(res, "nit", 0) or 0)
        if res.status == 3 or (res.status == 0 and -res.fun > _OBJECTIVE_CAP):
            diagnostics["unbounded_at"] = cand[pick].tolist()
            return _infinite(phi, n, d, diagnostics)
        if res.status != 0:
            raise SolverError(f"LP solver failed with status {res.status}: {res.message}")

        value = float(-res.fun)
        ub[pick] = value
        if value > best_value:
            best_value = value
            best_coeffs = res.x.copy()
            best_point = cand[pick].copy()

        # Active sample nodes give interpolation-weight upper bounds for all
        # other candidates: P(x) = sum w_i P(z_i) whenever phi(x) = Phi_S^T w,
        # so any feasible P obeys |P(x)| <= sum |w_i|.
        slack = b_ub - a_ub @ res.x
        active_rows = np.flatnonzero(slack <= 1e-7)
        nodes = np.unique(active_rows % len(zpts))
        if len(nodes) >= m:
            phi_s = phi[nodes]
            w, residual_ss, rank, _ = np.linalg.lstsq(phi_s.T, psi.T, rcond=None)
            if rank == m:
                resid = phi_s.T @ w - psi.T
                ok = np.sqrt(np.sum(resid**2, axis=0)) <= 1e-8 * (1.0 + np.sqrt(np.sum(psi.T**2, axis=0)))
                new_ub = np.sum(np.abs(w), axis=0)
                update = ok & ~solved
                ub[update] = np.minimum(ub[update], new_ub[update])

    diagnostics["pruned"] = int(np.sum(~solved))
    value = max(1.0, best_value)
    witness_poly = None if best_coeffs is None else MultiPoly.from_rows(n, monomials(n, d), best_coeffs)
    return RemezEstimate(
        degree=d,
        value=value,
        witness_poly=witness_poly,
        witness_point=best_point,
        diagnostics=diagnostics,
    )


def inverse_remez(e: RemezEstimate) -> float:
    """Reciprocal of the estimated constant; 0 in the degenerate case."""
    if e.is_infinite:
        return 0.0
    return 1.0 / e.value
