"""Box-counting dimension estimation and the check against the rigidity dimension threshold.

Zero sets of upper box dimension beta > n - 1/(d+1) are d-rigid with a
constant depending only on n and d. The estimator here is the standard
log-log least-squares slope of grid covering numbers over a dyadic-ish
ladder of scales.
"""

from __future__ import annotations

import numpy as np

from . import errors
from .errors import ValidationError

__all__ = [
    "box_dimension_estimate",
    "rigidity_threshold_check",
]


def box_dimension_estimate(points, eps_list) -> dict:
    """Estimate the upper box dimension of a point sample from covering numbers; a JSON body.

    ``points`` is a nonempty, finite (k, n) array inside the unit max-norm
    ball, so that axis-aligned samples of [0, 1]^n are admissible as-is.
    Requires at least three finite, strictly decreasing positive scales. At
    each scale eps a point x occupies the cell floor(x / eps) of the
    origin-anchored grid, and the covering number N(eps) counts the distinct
    occupied cells; scales so fine that a cell index may leave int64
    (|x| / eps reaching 2^62) are rejected. The ``slope`` of the affine
    least-squares fit to (log 1/eps, log N(eps)) is the estimate, next to its
    ``intercept``; the ``residual`` is the root-mean-square misfit, a sanity
    signal for whether the scales sit in a genuine scaling regime. The
    ``scales`` and their ``counts`` are reported as given and counted.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValidationError("point cloud must be nonempty")
    if pts.ndim != 2:
        raise ValidationError(f"points must be a (k, n) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points must be finite")
    reach = np.max(np.abs(pts))
    if reach > 1.0 + errors.BALL_TOL:
        raise ValidationError("points must lie in the unit max-norm ball")
    scales = np.asarray(list(eps_list), dtype=float)
    if scales.size < 3:
        raise ValidationError(f"need at least 3 scales, got {scales.size}")
    if not np.all(np.isfinite(scales)) or np.any(scales <= 0) or np.any(np.diff(scales) >= 0):
        raise ValidationError("scales must be finite, positive and strictly decreasing")
    counts = []
    for eps in scales.tolist():
        if reach >= eps * 2.0**62:
            raise ValidationError(f"scale {eps:g} is too fine for int64 cell indices")
        counts.append(np.unique(np.floor(pts / eps).astype(np.int64), axis=0).shape[0])
    x = np.log(1.0 / scales)
    y = np.log(np.array(counts, dtype=float))
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return {
        "slope": float(coef[0]),
        "intercept": float(coef[1]),
        "residual": residual,
        "scales": scales.tolist(),
        "counts": counts,
        "diagnostics": {"n_scales": int(scales.size), "n_points": len(pts)},
    }


def rigidity_threshold_check(beta: float, n: int, d: int) -> dict:
    """Compare a box-dimension estimate against the rigidity threshold n - 1/(d+1); a JSON body.

    Strict inequality beta > n - 1/(d+1) is the hypothesis; equality is
    reported as not exceeded. The verdict is qualitative: above threshold,
    every containing zero set is d-rigid with a constant depending only on
    (n, d); below it nothing follows.
    """
    if n < 1:
        raise ValidationError(f"ambient dimension must be >= 1, got {n}")
    if d < 0:
        raise ValidationError(f"degree must be >= 0, got {d}")
    thr = n - 1.0 / (d + 1)
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
