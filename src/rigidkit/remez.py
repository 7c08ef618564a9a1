"""The linear-programming estimator of the Remez constant.

The Remez constant of a set Z in the unit ball is the smallest K with
sup_B |P| <= K sup_Z |P| over all degree-d polynomials P. This module
computes a certified lower estimate for a sampled Z: for each candidate
point x0 it maximizes P(x0) over the polytope {|P| <= 1 on the samples},
whose rows ``vandermonde`` takes from ``poly.eval_polys`` at the unit
monomials. The closed-form topological bound and its oval-count hypothesis
live in ``rigidity`` with the other closed-form bounds.

The per-candidate LPs share one constraint polytope, so every basis of it
bounds every candidate: with A_B the basis rows, P(x) = w . (A_B c) for the
weights w = A_B^{-T} psi(x), and |A_B c| <= 1 for every feasible c, so
|P(x)| <= |w|_1. Each candidate keeps the least bound of the bases met so
far, and candidates whose bound is no better than the best value so far are
skipped, which returns exactly the max a full sweep would. The estimate is
infinite only when a rank test finds the samples on the zero set of a
degree-d polynomial, which is the witness.

Each LP is solved in numpy by the dual simplex method of ``_simplex``,
starting from the basis that gives its candidate its bound; the first basis
is m well-spread sample rows. Dual steps lower the bound |w|_1 of the
current basis until it is the optimum, so an LP stops as soon as that bound
is no better than the best value, and the basis it stops at bounds every
candidate like any other. Each optimum carries a dual certificate
y = A_B^{-T} psi >= 0 summing to the value, which makes the value an upper
bound for that LP as well; the witness drops the coefficients inside the
rounding term m eps |c|_1 that the certificate allows. A failed check, a
ratio test with no row to pivot on or a run past ``_PIVOT_CAP`` pivots is a
SolverError.
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
    "remez_estimate_lp",
    "inverse_remez",
    "vandermonde",
]

_PIVOT_CAP = 5000  # simplex pivots one LP may take before the solve counts as failed
_REFACTOR = 50  # pivots between full re-inversions of the basis matrix


@dataclass
class RemezEstimate:
    """Outcome of the LP estimator: a lower estimate of the Remez constant."""

    value: float  # math.inf when the sampled set is polynomially degenerate
    witness_poly: MultiPoly  # vanishes on the samples when the value is infinite
    witness_point: np.ndarray | None  # None when the value is infinite
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


def vandermonde(points: np.ndarray, d: int) -> np.ndarray:
    """One row per n-dimensional point; column j is ``eval_polys`` of the j-th monomial of ``monomials(n, d)``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
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


def _ratio(num: np.ndarray, den: np.ndarray, lex: np.ndarray) -> int:
    """Index k minimizing num/den over den > 1e-9 max|den|, ties broken lexicographically.

    Of the indices within 1e-12 of the minimum the pivot is the one whose
    column lex[:, k] / den[k] is lexicographically least. Raises SolverError
    if no den qualifies.
    """
    live = den > 1e-9 * np.abs(den).max()
    if not live.any():
        raise SolverError("LP ratio test found no row to pivot on")
    t = np.full(len(den), np.inf)
    t[live] = num[live] / den[live]
    tol = 1e-12 * max(1.0, num[live].max())
    ties = np.flatnonzero(live & (num - t.min() * den <= tol))
    keys = lex[:, ties] / den[ties]
    return int(ties[np.lexsort(keys[::-1])[0]])


def _spread_rows(phi: np.ndarray) -> np.ndarray:
    """m independent rows of Phi, each the largest after projecting out the rows picked before it."""
    rest, rows = phi.copy(), []
    for _ in range(phi.shape[1]):
        rows.append(int(np.argmax(np.sum(rest**2, axis=1))))
        u = rest[rows[-1]] / np.linalg.norm(rest[rows[-1]])
        rest -= np.outer(rest @ u, u)
    return np.array(rows)


def _inverse(phi: np.ndarray, rows: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """A_B^{-1} for the basis matrix A_B = signs * Phi[rows]; a singular A_B is a SolverError."""
    try:
        return np.linalg.inv(signs[:, None] * phi[rows])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"LP basis matrix is singular: {exc}") from exc


def _simplex(phi: np.ndarray, psi: np.ndarray, rows: np.ndarray, signs: np.ndarray, cutoff: float):
    """Maximize psi.c over |Phi c| <= 1 by dual steps from the basis matrix A_B = signs * Phi[rows].

    Every basis bounds the value by |y|_1 for its weights y = A_B^{-T} psi
    (module docstring), and the run stops as soon as that bound is at most
    ``cutoff``. Otherwise the rows with y < 0 change sign, which makes y >= 0
    and the bound sum(y), and dual steps lower it while keeping y >= 0: the
    row of Phi that the vertex c = A_B^{-1} 1 violates most enters, and the
    ratio test picks the row that leaves. Its ties are broken
    lexicographically (Dantzig, Orden & Wolfe 1955) with A0, the basis
    matrix at the first dual step, which comes after the sign changes: the
    leaving row r has the least (y_r, (A0 A_B^{-1})[:, r]) / w_r. That is
    the dual simplex on psi + sum_k eps^k A0[k] for an infinitesimal
    eps > 0, whose weights y(eps) = y + sum_k eps^k (A0 A_B^{-1})[k] start
    lexicographically positive (there A0 A_B^{-1} = I and y >= 0) and stay
    so. Each step lowers the bound sum(y(eps)) by a lexicographically
    positive amount, so no basis repeats and the run ends; ``_PIVOT_CAP`` is
    only a backstop against round-off. A_B^{-1} gets rank-1 updates and is
    re-inverted every ``_REFACTOR`` pivots and before either end test
    passes. Returns (rows, signs, c, pivots, binv) with binv = A_B^{-1},
    freshly inverted. An optimum is certified by max |Phi c| <= 1 + 1e-9 +
    m eps |c|_1 and by y >= 0 to 1e-9 relative with sum(y) = psi.c; a
    stopped run returns c = None. Sign changes count as pivots.
    """
    rows, signs = rows.copy(), signs.copy()
    since, pivots, a0 = _REFACTOR, 0, None
    while True:
        if since >= _REFACTOR:
            binv, since = _inverse(phi, rows, signs), 0
        c, y = binv.sum(axis=1), psi @ binv
        v = phi @ c
        size = np.abs(v)
        # 1e-9 past the rounding error of each Phi_j . c, at most m eps |c|_1 since |Phi_jk| <= 1
        bound = 1.0 + 1e-9 + len(c) * np.finfo(float).eps * np.abs(c).sum()
        neg = y < -1e-9 * max(1.0, np.abs(y).max())
        optimal = size.max() <= bound and not neg.any()
        if optimal or np.abs(y).sum() <= cutoff:
            if since:  # re-invert, then test again
                since = _REFACTOR
                continue
            if not optimal:
                return rows, signs, None, pivots, binv
            if abs(y.sum() - psi @ c) > 1e-9 * max(1.0, abs(psi @ c)):
                raise SolverError(f"LP certificate failed: dual sum {y.sum():.17g} against value {psi @ c:.17g}")
            return rows, signs, c, pivots, binv
        if pivots == _PIVOT_CAP:
            raise SolverError(f"LP solver reached no optimal basis within {_PIVOT_CAP} pivots")
        pivots += 1
        if neg.any():  # negating rows negates the matching columns of the inverse
            signs[neg] *= -1.0
            binv[:, neg] *= -1.0
            continue
        if a0 is None:
            a0 = signs[:, None] * phi[rows]
        q = int(np.argmax(size))
        sign = 1.0 if v[q] > 0.0 else -1.0
        w = sign * phi[q] @ binv
        r = _ratio(np.maximum(y, 0.0), w, a0 @ binv)
        col = binv[:, r] / w[r]
        binv -= np.outer(col, w)
        binv[:, r] = col
        rows[r], signs[r] = q, sign
        since += 1


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
    phi = vandermonde(zpts, d)

    sigma = np.linalg.svd(phi, compute_uv=False)
    diagnostics: dict = {
        "n_samples": len(zpts),
        "n_candidates": len(cand),
        "sigma_min": float(sigma.min()) if len(sigma) == m else 0.0,
        "lp_solved": 0,
        "lp_stopped": 0,
        "lp_iterations": 0,
        "pruned": 0,
    }
    if len(zpts) < m or sigma.min() <= 1e-12 * max(1.0, sigma.max()):
        # the last right singular vector annihilates every sample; only a
        # short Phi needs the full factor to reach the null space
        vt = np.linalg.svd(phi, full_matrices=len(phi) < m)[2]
        return RemezEstimate(math.inf, MultiPoly.from_rows(n, monomials(n, d), vt[-1]), None, diagnostics)

    psi = vandermonde(cand, d)  # candidate basis rows
    # every basis met so far, and each candidate's least bound with the basis that gives it
    bases = [(_spread_rows(phi), np.ones(m))]
    ub = np.abs(psi @ _inverse(phi, *bases[0])).sum(axis=1)
    source = np.zeros(len(cand), dtype=np.int64)
    started = np.zeros(len(cand), dtype=bool)
    best_value = -np.inf
    best_coeffs: np.ndarray | None = None
    best_point: np.ndarray | None = None

    while True:
        open_mask = ~started & (ub > best_value)
        if not np.any(open_mask):
            break
        pick = int(np.argmax(np.where(open_mask, ub, -np.inf)))
        started[pick] = True

        rows, signs, coeffs, pivots, binv = _simplex(phi, psi[pick], *bases[source[pick]], best_value)
        diagnostics["lp_solved"] += 1
        diagnostics["lp_iterations"] += pivots
        if coeffs is None:
            diagnostics["lp_stopped"] += 1
        elif psi[pick] @ coeffs > best_value:
            best_value = float(psi[pick] @ coeffs)
            best_coeffs = coeffs
            best_point = cand[pick].copy()

        # the basis weights bound P at every candidate (module docstring)
        bases.append((rows, signs))
        weights = np.abs(psi @ binv).sum(axis=1)
        tighter = weights < ub
        ub[tighter], source[tighter] = weights[tighter], len(bases) - 1

    diagnostics["pruned"] = len(cand) - diagnostics["lp_solved"]
    # drop coefficients inside the rounding term m eps |c|_1 that the certificate allows
    tiny = np.abs(best_coeffs) <= m * np.finfo(float).eps * np.abs(best_coeffs).sum()
    witness_poly = MultiPoly.from_rows(n, monomials(n, d), np.where(tiny, 0.0, best_coeffs))
    return RemezEstimate(max(1.0, best_value), witness_poly, best_point, diagnostics)


def inverse_remez(e: RemezEstimate) -> float:
    """Reciprocal of the estimated constant; 0 in the degenerate case."""
    if e.is_infinite:
        return 0.0
    return 1.0 / e.value
