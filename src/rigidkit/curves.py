"""Polynomial test curves: interpolation, composition probes, crossing counts.

A test curve is a low-degree polynomial parametric curve omega(t), t in
[-1, 1], threaded through prescribed points of a zero set. Composing a
function with the curve transfers one-dimensional derivative information to
dimension n: the sum of the derivative norms of f of orders
ceil((d+1)/s) .. d+1 along the curve dominates a constant multiple of
|g^(d+1)| for g = f(omega). The constant is not known in closed form here;
``composition_report`` records the empirical ratio instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import OvalConfiguration, _box_pairs, in_unit_ball, lattice
from .poly import MultiPoly, compose, derivatives_of_order, eval_poly, eval_polys

__all__ = [
    "ParamCurve",
    "fit_curve",
    "composition_report",
    "crossing_count",
]

_IMAGE_GRID = 1000
_RHS_FLOOR = 1e-12
_SUBDIVISIONS = 4096
_MERGE_TOL = 1e-9  # crossing hits closer than this in t are one incidence


@dataclass(frozen=True)
class ParamCurve:
    """Degree-s polynomial curve with one univariate polynomial per coordinate.

    The nominal domain is t in [-1, 1]. ``fit_curve`` guarantees the image
    stays inside the unit ball; directly constructed curves may leave it,
    which downstream composition probes tolerate (the inequality hypotheses
    then do not apply).
    """

    components: tuple[MultiPoly, ...]
    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValidationError(f"curve degree must be >= 1, got {self.s}")
        for c in self.components:
            if c.nvars != 1:
                raise ValidationError(f"expected dimension 1, got {c.nvars}")
            if c.degree > self.s:
                raise ValidationError(f"component degree {c.degree} exceeds s = {self.s}")

    @property
    def dim(self) -> int:
        return len(self.components)

    def eval(self, t):
        """Curve point(s) at parameter t; vectorizes over numpy arrays."""
        return np.stack(eval_polys(self.components, [t]), axis=-1)

    def max_image_norm(self) -> float:
        taus = np.linspace(-1.0, 1.0, _IMAGE_GRID)
        pts = self.eval(taus)
        return float(np.max(np.sqrt(np.sum(pts**2, axis=-1))))


def fit_curve(points, s: int) -> ParamCurve:
    """Interpolating curve of degree <= s through k <= s+1 points.

    Parameters are assigned at the Chebyshev nodes cos((2j+1)pi/(2k)) in the
    given point order; this standard choice tames interpolation blow-up so
    the fitted curve has small high-order derivatives. The fitted image must
    stay inside the unit ball.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = len(pts)
    if k == 0:
        raise ValidationError("need at least one point")
    if k > s + 1:
        raise ValidationError(f"{k} points cannot be interpolated by degree-{s} components (need k <= s+1)")
    tj = np.cos((2 * np.arange(k) + 1) * np.pi / (2 * k))
    vand = np.vander(tj, k, increasing=True)
    coeff = np.linalg.solve(vand, pts)  # (k, n): per-coordinate coefficients
    components = tuple(
        MultiPoly(1, {(i,): float(coeff[i, axis]) for i in range(k)})
        for axis in range(pts.shape[1])
    )
    curve = ParamCurve(components=components, s=s)
    if not np.all(in_unit_ball(curve.eval(np.linspace(-1.0, 1.0, _IMAGE_GRID)))):
        raise ValidationError(f"curve image leaves the unit ball (max |omega(t)| = {curve.max_image_norm():.6g})")
    return curve


def composition_report(f: MultiPoly, omega: ParamCurve, d: int, tgrid: int) -> dict:
    """Probe the composition inequality for f along the curve; a JSON body.

    LHS(t) sums the pointwise derivative norms of f of orders
    ceil((d+1)/s) .. d+1 at omega(t); RHS(t) = |g^(d+1)(t)| for the exact
    symbolic composition g = f(omega), both reported per grid point under
    ``pointwise``. The reported c_hat is the minimal LHS/RHS over grid
    points where RHS exceeds the degeneracy floor 1e-12: an empirical lower
    estimate of the unknown positive constant relating the two sides. It is
    None, and ``all_degenerate`` true, when RHS degenerates at every grid
    point, which happens whenever deg(f) * s <= d by degree count.

    The lower order bound is the minimal number of chain-rule blocks of size
    at most s partitioning d+1, i.e. ceil((d+1)/s); for a straight line
    (s = 1) the sum collapses to the single order d+1.
    """
    if f.nvars != omega.dim:
        raise ValidationError(f"expected dimension {omega.dim}, got {f.nvars}")
    if d < 0:
        raise ValidationError(f"derivative order must be >= 0, got {d}")
    if tgrid < 2:
        raise ValidationError(f"tgrid must be >= 2, got {tgrid}")
    taus = lattice((-1.0,), (1.0,), tgrid)[:, 0]  # a 1D lattice, so capped at _MAX_LATTICE points
    s = omega.s
    k_lo = max(1, math.ceil((d + 1) / s))
    k_hi = d + 1

    g = compose(f, list(omega.components))
    [(_, g_deriv)] = derivatives_of_order(g, d + 1)

    coords = eval_polys(omega.components, [taus])
    lhs = np.zeros(tgrid)
    qs = [q for k in range(k_lo, k_hi + 1) for _, q in derivatives_of_order(f, k)]
    for value in eval_polys(qs, coords):
        lhs += np.abs(value)
    rhs = np.abs(eval_poly(g_deriv, [taus]))

    live = rhs > _RHS_FLOOR
    all_degenerate = not bool(np.any(live))
    c_hat = None if all_degenerate else float(np.min(lhs[live] / rhs[live]))
    return {
        "degree": d,
        "s": s,
        "order_range": [k_lo, k_hi],
        "c_hat": c_hat,
        "all_degenerate": all_degenerate,
        "pointwise": [
            {"t": t, "lhs": a, "rhs": b} for t, a, b in zip(taus.tolist(), lhs.tolist(), rhs.tolist())
        ],
        "diagnostics": {"g_degree": g.degree, "live_points": int(np.sum(live))},
    }


def crossing_count(omega: ParamCurve, config: OvalConfiguration) -> int:
    """Number of isolated parameter values where the curve meets Z.

    The curve is subdivided into 4096 chords. The chord-edge pairs whose
    bounding boxes overlap come from the box-pair sweep that validation uses,
    so memory stays bounded whatever the vertex count. Each pair is solved
    for its crossing parameters; a pair counts where the chord and the edge
    are not parallel and both parameters lie in [0, 1], so a touch counts
    and a collinear overlap does not. The hit is interpolated linearly along
    the chord, and hits closer than 1e-9 in t merge into one incidence.
    """
    if omega.dim != 2:
        raise ValidationError(f"expected dimension 2, got {omega.dim}")
    taus = np.linspace(-1.0, 1.0, _SUBDIVISIONS + 1)
    pts = omega.eval(taus)
    p0, p1 = pts[:-1], pts[1:]
    q0 = np.concatenate([o.vertices for o in config.ovals])
    q1 = np.concatenate([np.roll(o.vertices, -1, axis=0) for o in config.ovals])
    hits = [np.empty(0)]
    for a, b in _box_pairs(p0, p1, (q0, q1)):
        d1, d2, diff = p1[a] - p0[a], q1[b] - q0[b], q0[b] - p0[a]
        denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (diff[:, 0] * d2[:, 1] - diff[:, 1] * d2[:, 0]) / denom
            u = (diff[:, 0] * d1[:, 1] - diff[:, 1] * d1[:, 0]) / denom
        valid = (denom != 0) & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
        a = a[valid]
        hits.append(taus[a] + t[valid] * (taus[a + 1] - taus[a]))
    hits = np.sort(np.concatenate(hits))
    if not hits.size:
        return 0
    # a gap above the merge distance to the previous hit starts a new incidence, so chains merge
    return 1 + int(np.sum(np.diff(hits) > _MERGE_TOL))
