"""Polynomial test curves: interpolation, composition probes, crossing counts.

A test curve is a low-degree polynomial parametric curve omega(t), t in
[-1, 1], threaded through prescribed points of a zero set, held as the tuple
of its univariate ``MultiPoly`` components, which ``fit_curve`` returns with
the max norm of the image it checks against the unit ball. Composing a
function with the curve transfers one-dimensional derivative information to
dimension n: the sum of the derivative norms of f of orders ceil((d+1)/s) ..
d+1 along the curve dominates a constant multiple of |g^(d+1)| for
g = f(omega). The constant is not known in closed form here;
``composition_report`` records the empirical ratio instead. Orders above
deg f vanish, so its table of derivatives of f stops there, and its cost
does not grow with d beyond deg f.
"""

from __future__ import annotations

import math

import numpy as np

from . import errors
from .errors import ValidationError
from .geometry import OvalConfiguration, _box_pairs, in_unit_ball, lattice
from .poly import MultiPoly, compose, derivatives_of_order, eval_poly, eval_polys

__all__ = [
    "fit_curve",
    "composition_report",
    "crossing_count",
]

_IMAGE_GRID = 1000
_RHS_FLOOR = 1e-12
_SUBDIVISIONS = 4096
_MERGE_TOL = 1e-9  # crossing hits closer than this in t are one incidence


def _points(omega, t) -> np.ndarray:
    """The points omega(t), one row per parameter; vectorizes over numpy arrays."""
    return np.stack(eval_polys(omega, [t]), axis=-1)


def _check_components(omega, s: float = math.inf) -> None:
    """Refuse a curve with a component that is not univariate or has degree above s."""
    for c in omega:
        if c.nvars != 1:
            raise ValidationError(f"expected dimension 1, got {c.nvars}")
        if c.degree > s:
            raise ValidationError(f"component degree {c.degree} exceeds s = {s}")


def fit_curve(points, s: int) -> tuple[tuple[MultiPoly, ...], float]:
    """Interpolating curve through k <= s+1 points, one component of degree <= k-1 per coordinate, and its norm.

    Parameters are assigned at the Chebyshev nodes cos((2j+1)pi/(2k)) in the
    given point order; this standard choice tames interpolation blow-up so
    the fitted curve has small high-order derivatives. The k x k
    interpolation matrix is held to ``errors.MAX_ENTRIES`` before it is
    built. The image at 1000 equally spaced t in [-1, 1] must stay inside
    the unit ball; its max |omega(t)| is returned with the components.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = len(pts)
    if k == 0:
        raise ValidationError("need at least one point")
    if k > s + 1:
        raise ValidationError(f"{k} points cannot be interpolated by degree-{s} components (need k <= s+1)")
    errors.check_entries(k * k, f"an interpolation matrix of {k} curve points")
    tj = np.cos((2 * np.arange(k) + 1) * np.pi / (2 * k))
    vand = np.vander(tj, k, increasing=True)
    coeff = np.linalg.solve(vand, pts)  # (k, n): per-coordinate coefficients
    curve = tuple(MultiPoly(1, {(i,): float(coeff[i, axis]) for i in range(k)}) for axis in range(pts.shape[1]))
    image = _points(curve, np.linspace(-1.0, 1.0, _IMAGE_GRID))
    with np.errstate(over="ignore"):  # an image far outside the ball reads inf, as the error reports
        norm = float(np.max(np.sqrt(np.sum(image**2, axis=-1))))
    if not np.all(in_unit_ball(image)):
        raise ValidationError(f"curve image leaves the unit ball (max |omega(t)| = {norm:.6g})")
    return curve, norm


def composition_report(f: MultiPoly, omega, s: int, d: int, tgrid: int) -> dict:
    """Probe the composition inequality for f along the curve omega; a JSON body.

    The curve hypotheses come first: s >= 1, and each component univariate
    of degree at most s. LHS(t) sums the pointwise derivative norms of f of
    orders ceil((d+1)/s) .. d+1 at omega(t); RHS(t) = |g^(d+1)(t)| for the
    exact symbolic composition g = f(omega), both reported per grid point
    under ``pointwise``. The reported c_hat is the minimal LHS/RHS over grid
    points where RHS exceeds the degeneracy floor 1e-12. As a minimum over
    finitely many points, it is at or above the infimum over [-1, 1]: an
    empirical upper estimate of the best constant c with LHS >= c * RHS.
    It is None, and ``all_degenerate`` true, when RHS degenerates at every
    grid point, which happens whenever deg(f) * s <= d by degree count.

    The lower order bound is the minimal number of chain-rule blocks of size
    at most s partitioning d+1, i.e. ceil((d+1)/s); for a straight line
    (s = 1) the sum collapses to the single order d+1. The table of
    derivatives of f holds the orders ceil((d+1)/s) .. min(d+1, deg f):
    every higher one is zero, and adding |0| to LHS changes no bit. Its
    values at the ``tgrid`` points are held to ``errors.MAX_ENTRIES`` before
    any multi-index is enumerated.
    """
    if s < 1:
        raise ValidationError(f"curve degree must be >= 1, got {s}")
    _check_components(omega, s)
    if f.nvars != len(omega):
        raise ValidationError(f"expected dimension {len(omega)}, got {f.nvars}")
    if d < 0:
        raise ValidationError(f"derivative order must be >= 0, got {d}")
    taus = lattice((-1.0,), (1.0,), tgrid)[:, 0]  # a 1D lattice, so held to errors.MAX_ENTRIES points
    k_lo = max(1, math.ceil((d + 1) / s))
    k_hi = d + 1

    g = compose(f, list(omega))
    [(_, g_deriv)] = derivatives_of_order(g, d + 1)

    coords = eval_polys(omega, [taus])
    lhs = np.zeros(tgrid)
    orders = range(k_lo, min(k_hi, f.degree) + 1)
    table = sum(math.comb(f.nvars + k - 1, k) for k in orders)  # the order-k multi-indices in n variables
    errors.check_entries(table * tgrid, f"the values of {table} polynomials at {tgrid} points")
    qs = [q for k in orders for _, q in derivatives_of_order(f, k)]
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


def crossing_count(omega, config: OvalConfiguration) -> int:
    """Number of isolated parameter values where the planar curve omega meets Z.

    The curve is subdivided into 4096 chords, and the chords of zero length
    are dropped: they are parallel to every edge, so they never count, and a
    constant curve would otherwise put 4096 equal boxes into the sweep. The
    other chords, then the configuration's stacked edge array, form one
    segment set, and the box-pair sweep that validation uses runs over it
    once, so memory stays bounded whatever the vertex count. Of its pairs
    only those that hold one chord and one edge are kept. Each such pair is
    solved for its crossing parameters; a pair counts where the chord and
    the edge are not parallel and both parameters lie in [0, 1], so a touch
    counts and a collinear overlap does not. The hit is interpolated
    linearly along the chord, and hits closer than 1e-9 in t merge into one
    incidence.
    """
    if len(omega) != 2:
        raise ValidationError(f"expected dimension 2, got {len(omega)}")
    _check_components(omega)
    taus = np.linspace(-1.0, 1.0, _SUBDIVISIONS + 1)
    pts = _points(omega, taus)
    chords = np.flatnonzero(np.any(pts[:-1] != pts[1:], axis=1))  # a zero-length chord is parallel to every edge
    s0 = np.concatenate([pts[chords], config.vertices])
    s1 = np.concatenate([pts[chords + 1], config.vertices[config.succ]])
    hits = [np.empty(0)]
    for a, b in _box_pairs(s0, s1):
        a, b = np.minimum(a, b), np.maximum(a, b)
        keep = (a < chords.size) & (b >= chords.size)  # one chord and one edge
        a, b = a[keep], b[keep]
        d1, d2, diff = s1[a] - s0[a], s1[b] - s0[b], s0[b] - s0[a]
        denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (diff[:, 0] * d2[:, 1] - diff[:, 1] * d2[:, 0]) / denom
            u = (diff[:, 0] * d1[:, 1] - diff[:, 1] * d1[:, 0]) / denom
        valid = (denom != 0) & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
        a = chords[a[valid]]
        hits.append(taus[a] + t[valid] * (taus[a + 1] - taus[a]))
    hits = np.sort(np.concatenate(hits))
    if not hits.size:
        return 0
    # a gap above the merge distance to the previous hit starts a new incidence, so chains merge
    return 1 + int(np.sum(np.diff(hits) > _MERGE_TOL))
