"""Closed-form bounds: the planar topological bounds and the rigidity lower bounds.

The d-rigidity of a zero set Z is the largest R such that every (d+1)-times
smooth function vanishing on Z with max |f| = 1 on the unit ball satisfies
||f^(d+1)|| >= R. This module owns every closed-form bound the package
knows: the topological Remez bound (8/mu)^d, a row that judges its own
oval-count hypothesis; the rows of ``rigidity_report``, the rigidity bounds
from the inverse Remez constant and from the topological domain decomposition
(in two variants whose shapes disagree, both copying that judgement); and the
whole ``rigidity-1d`` body, the one-dimensional divided-difference bound with
its floor. Every bound row a subcommand prints is built here. The topological
bounds hold in the plane only: (d-1)^2 + 1 ovals outnumber the (d-1)^2
critical points of a degree-d polynomial. ``remez`` owns the LP estimate.
"""

from __future__ import annotations

import math

from . import errors
from .errors import ValidationError

__all__ = [
    "remez_bound_topological",
    "rigidity_1d_bound",
    "rigidity_report",
]

_MAX_DEGREE = 18  # factorials beyond this are not meaningful in doubles

FORMULAS = {
    "remez_topological": "(4n/mu)^d",
    "from_remez": "(d+1)!/2 * inverse_remez",
    "topological_literal": "(1/(d+1)!) * (4n/mu)^d",
    "topological_composed": "(d+1)!/2 * (mu/(4n))^d",
    "one_dimensional": "(d+1)! * |divided difference over zeros and z0|",
    "one_dimensional_floor": "(d+1)!/2^(d+1)",
}


def _factorial(k: int) -> float:
    if k < 0 or k > _MAX_DEGREE + 1:
        raise ValidationError(f"degree out of supported range 0..{_MAX_DEGREE}")
    return float(math.factorial(k))


def remez_bound_topological(mu: float, d: int, oval_count: int) -> dict:
    """The planar topological Remez row ``{value, formula, hypothesis_ok, ovals_required}``.

    The value is the closed-form bound (4n/mu)^d = (8/mu)^d. It holds for a
    configuration of at least (d-1)^2 + 1 ovals, ``ovals_required``, and
    ``hypothesis_ok`` records whether ``oval_count`` reaches it; the value
    is computed whatever the count. A negative degree, then mu <= 0, then a
    value past the largest double are ValidationErrors, not infinity.
    """
    if d < 0:
        raise ValidationError(f"degree must be >= 0, got {d}")
    if mu <= 0:
        raise ValidationError(f"minimal domain area must be positive, got {mu}")
    try:
        value = (8.0 / mu) ** d
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ValidationError(f"bound {FORMULAS['remez_topological']} overflows a double at mu = {mu:.6g}, d = {d}")
    required = (d - 1) ** 2 + 1
    return {"value": value, "formula": FORMULAS["remez_topological"], "hypothesis_ok": oval_count >= required,
            "ovals_required": required}


def rigidity_1d_bound(zeros, z0: float, d: int) -> dict:
    """The ``rigidity-1d`` body: the bound through d+1 zeros and a witness point with |f(z0)| = 1, and its floor.

    The top divided difference over the zeros (value 0) and z0 (value 1)
    is 1 / prod(z0 - x_i); times (d+1)! it lower-bounds the max of
    |f^(d+1)| on [-1, 1] for any smooth f with this data. All nodes must lie
    in [-1, 1] up to ``errors.BALL_TOL``, so every gap is at most 2 and the
    bound is at least the ``universal_floor`` (d+1)!/2^(d+1).

    1 is divided by one gap |z0 - x_i| at a time, since a product of tiny
    gaps can round to 0 where the quotient only overflows to inf. The zeros
    go in decreasing order, the order in which a Newton table divides when
    z0 is the largest node, so such inputs give the table's bits. The body
    lists them in increasing order.
    """
    xs = sorted((float(x) for x in zeros), reverse=True)
    if not all(abs(v) <= 1.0 + errors.BALL_TOL for v in (*xs, z0)):
        raise ValidationError("zeros and witness point must be finite and lie in [-1, 1]")
    if len(xs) != d + 1:
        raise ValidationError(f"need exactly d+1 = {d + 1} zeros, got {len(xs)}")
    if len(set(xs)) != len(xs):
        raise ValidationError("zero nodes must be distinct")
    if z0 in xs:
        raise ValidationError(f"witness point {z0} coincides with a zero")
    quotient = 1.0
    for x in xs:
        quotient /= abs(z0 - x)
    fact = _factorial(d + 1)
    return {"degree": d, "zeros": xs[::-1], "z0": z0, "fz0": 1.0, "bound": fact * quotient,
            "formula": FORMULAS["one_dimensional"], "universal_floor": fact / 2.0 ** (d + 1),
            "universal_floor_formula": FORMULAS["one_dimensional_floor"]}


def rigidity_report(d: int, mu_value: float, oval_count: int, inv_remez: float | None = None) -> dict:
    """Assemble every applicable bound into one JSON body ``{degree, bounds}``.

    Each bound is one ``{formula, value, hypothesis_ok, provenance, note}``
    entry, with provenance ``FORMULAS[formula]``. A value is asserted as a
    rigidity bound only when ``hypothesis_ok`` is true; it is still computed
    for reporting whenever the arithmetic is defined. A ``from_remez`` row,
    (d+1)!/2 times the inverse Remez constant, comes first when that constant
    is supplied; an inverse constant of 0 (a set inside a polynomial zero set)
    gives 0. The two topological rows are always present: the literal
    (1/(d+1)!) (4n/mu)^d grows as mu shrinks, while the composed
    (d+1)!/2 (mu/8)^d, chained from the inverse of the Remez bound, decays.
    They are deliberately reported side by side. The literal one divides the
    value of the ``remez_bound_topological`` row, and both copy its hypothesis
    flag.
    """
    rows = []
    if inv_remez is not None:
        if not 0.0 <= inv_remez <= 1.0:
            raise ValidationError(f"inverse Remez constant must be in [0, 1], got {inv_remez}")
        rows.append(("from_remez", _factorial(d + 1) / 2.0 * inv_remez, True, ""))
    remez = remez_bound_topological(mu_value, d, oval_count)  # refuses mu <= 0 for both rows
    count_ok = remez["hypothesis_ok"]
    note = "" if count_ok else f"oval count {oval_count} below required {remez['ovals_required']}"
    rows.append(("topological_literal", remez["value"] / _factorial(d + 1), count_ok, note))
    rows.append(("topological_composed", _factorial(d + 1) / 2.0 * (mu_value / 8.0) ** d, count_ok, note))
    return {
        "degree": d,
        "bounds": [
            {"formula": f, "value": value, "hypothesis_ok": ok, "provenance": FORMULAS[f], "note": note}
            for f, value, ok, note in rows
        ],
    }
