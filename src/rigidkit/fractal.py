"""Box-counting dimension estimation and the rigidity dimension threshold.

Zero sets of upper box dimension beta > n - 1/(d+1) are d-rigid with a
constant depending only on n and d. The estimator here is the standard
log-log least-squares slope of grid covering numbers over a dyadic-ish
ladder of scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import ValidationError

__all__ = [
    "PointCloud",
    "covering_number",
    "box_dimension_estimate",
    "rigidity_threshold",
    "rigidity_threshold_check",
]

@dataclass(frozen=True)
class PointCloud:
    """Finite sample of a set inside the unit max-norm ball."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValidationError("point cloud must be nonempty")
        if pts.ndim != 2:
            raise ValidationError(f"points must be a (k, n) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("points must be finite")
        # the max norm, so that axis-aligned samples of [0, 1]^n are admissible as-is
        if np.max(np.abs(pts)) > 1.0 + errors.BALL_TOL:
            raise ValidationError("points must lie in the unit max-norm ball")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


def covering_number(cloud: PointCloud, eps: float) -> int:
    """Occupied cells of the origin-anchored grid of mesh eps.

    A point x occupies cell floor(x / eps) coordinatewise; the count is the
    number of distinct occupied cells. Monotone nonincreasing in eps up to
    the usual factor-of-2 grid artifacts, which the log-log fit absorbs.
    Scales so fine that a cell index may leave int64 (|x| / eps reaching
    2^62) are rejected.
    """
    if eps <= 0:
        raise ValidationError(f"scale must be positive, got {eps}")
    if np.max(np.abs(cloud.points)) >= eps * 2.0**62:
        raise ValidationError(f"scale {eps:g} is too fine for int64 cell indices")
    cells = np.floor(cloud.points / eps).astype(np.int64)
    return int(np.unique(cells, axis=0).shape[0])


def box_dimension_estimate(cloud: PointCloud, eps_list) -> dict:
    """Estimate the upper box dimension from covering numbers; a JSON body.

    Requires at least three finite, strictly decreasing positive scales. The
    ``slope`` of the affine least-squares fit to (log 1/eps, log N(eps)) is
    the estimate, next to its ``intercept``; the ``residual`` is the
    root-mean-square misfit, a sanity signal for whether the scales sit in a
    genuine scaling regime. The ``scales`` and their ``counts`` N(eps) are
    reported as given and counted.
    """
    scales = np.asarray(list(eps_list), dtype=float)
    if scales.size < 3:
        raise ValidationError(f"need at least 3 scales, got {scales.size}")
    if not np.all(np.isfinite(scales)) or np.any(scales <= 0) or np.any(np.diff(scales) >= 0):
        raise ValidationError("scales must be finite, positive and strictly decreasing")
    counts = np.array([covering_number(cloud, e) for e in scales], dtype=np.int64)
    x = np.log(1.0 / scales)
    y = np.log(counts.astype(float))
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return {
        "slope": float(coef[0]),
        "intercept": float(coef[1]),
        "residual": residual,
        "scales": scales.tolist(),
        "counts": counts.tolist(),
        "diagnostics": {"n_scales": int(scales.size), "n_points": cloud.size},
    }


def rigidity_threshold(n: int, d: int) -> float:
    """Dimension threshold n - 1/(d+1) above which d-rigidity kicks in."""
    if n < 1:
        raise ValidationError(f"ambient dimension must be >= 1, got {n}")
    if d < 0:
        raise ValidationError(f"degree must be >= 0, got {d}")
    return n - 1.0 / (d + 1)


def rigidity_threshold_check(beta: float, n: int, d: int) -> dict:
    """Compare a box-dimension estimate against the rigidity threshold.

    Strict inequality beta > n - 1/(d+1) is the hypothesis; equality is
    reported as not exceeded. The verdict is qualitative: above threshold,
    every containing zero set is d-rigid with a constant depending only on
    (n, d); below it nothing follows.
    """
    thr = rigidity_threshold(n, d)
    exceeded = bool(beta > thr)
    if exceeded:
        verdict = (
            f"dimension {beta:.6g} exceeds threshold {thr:.6g}: any zero set "
            f"containing the sampled set is {d}-rigid, with a constant "
            f"depending only on n = {n} and d = {d}"
        )
    else:
        verdict = (
            f"dimension {beta:.6g} does not exceed threshold {thr:.6g}: "
            "no rigidity conclusion"
        )
    return {
        "beta": float(beta),
        "n": n,
        "degree": d,
        "threshold": thr,
        "exceeded": exceeded,
        "verdict": verdict,
    }
