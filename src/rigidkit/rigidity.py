"""Closed-form bounds: the planar topological bounds and the rigidity lower bounds.

The d-rigidity of a zero set Z is the largest R such that every (d+1)-times
smooth function vanishing on Z with max |f| = 1 on the unit ball satisfies
||f^(d+1)|| >= R. This module owns every closed-form bound the package
knows: the topological Remez bound (8/mu)^d with its oval-count hypothesis
``ovals_required``, and the rigidity bounds from the inverse Remez
constant, from the topological domain decomposition (in two variants whose
shapes disagree; both are reported, see ``rigidity_report``) and from
one-dimensional divided differences. The topological bounds hold in the
plane only: (d-1)^2 + 1 ovals outnumber the (d-1)^2 critical points of a
degree-d polynomial. ``remez`` owns the LP estimate of the Remez constant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .geometry import in_unit_ball

__all__ = [
    "ovals_required",
    "remez_bound_topological",
    "rigidity_from_remez",
    "rigidity_topological_literal",
    "rigidity_topological_composed",
    "rigidity_1d_bound",
    "rigidity_report",
]

_MAX_DEGREE = 18  # factorials beyond this are not meaningful in doubles

FORMULAS = {
    "from_remez": "(d+1)!/2 * inverse_remez",
    "topological_literal": "(1/(d+1)!) * (4n/mu)^d",
    "topological_composed": "(d+1)!/2 * (mu/(4n))^d",
    "one_dimensional": "(d+1)! * |divided difference over zeros and z0|",
}


def _factorial(k: int) -> float:
    if k < 0 or k > _MAX_DEGREE + 1:
        raise ValidationError(f"degree out of supported range 0..{_MAX_DEGREE}")
    return float(math.factorial(k))


def rigidity_from_remez(inverse_remez: float, d: int) -> float:
    """Rigidity bound (d+1)!/2 times the inverse Remez constant.

    An inverse constant of 0 (set inside a polynomial zero set) yields 0:
    such sets carry no rigidity at this degree.
    """
    if not 0.0 <= inverse_remez <= 1.0:
        raise ValidationError(f"inverse Remez constant must be in [0, 1], got {inverse_remez}")
    return _factorial(d + 1) / 2.0 * inverse_remez


def ovals_required(d: int) -> int:
    """Oval count (d-1)^2 + 1 that the planar topological bounds at degree d assume."""
    if d < 0:
        raise ValidationError(f"degree must be >= 0, got {d}")
    return (d - 1) ** 2 + 1


def remez_bound_topological(mu: float, d: int) -> float:
    """Closed-form Remez bound (4n/mu)^d = (8/mu)^d for plane configurations of many disjoint ovals.

    The bound assumes at least ``ovals_required(d)`` ovals; the reports
    judge that count in their ``hypothesis_ok`` entries, so this function
    only evaluates the formula. A value past the largest double is a
    ValidationError, not infinity.
    """
    if mu <= 0:
        raise ValidationError(f"minimal domain area must be positive, got {mu}")
    ovals_required(d)  # rejects d < 0
    try:
        value = (8.0 / mu) ** d
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ValidationError(f"bound (4n/mu)^d overflows a double at mu = {mu:.6g}, d = {d}")
    return value


def rigidity_topological_literal(mu: float, d: int) -> float:
    """The literal topological rigidity expression (1/(d+1)!) (4n/mu)^d.

    Grows as mu shrinks. Reported side by side with the composed variant,
    which decays as mu shrinks; the report takes no position on which shape
    is intended (see module docstring).
    """
    return remez_bound_topological(mu, d) / _factorial(d + 1)


def rigidity_topological_composed(mu: float, d: int) -> float:
    """Chained bound (d+1)!/2 (mu/(4n))^d = (d+1)!/2 (mu/8)^d from the inverse of the Remez bound."""
    if mu <= 0:
        raise ValidationError(f"minimal domain area must be positive, got {mu}")
    return _factorial(d + 1) / 2.0 * (mu / 8.0) ** d


def rigidity_1d_bound(xs, z0: float, d: int) -> float:
    """One-dimensional rigidity bound through d+1 zeros and a witness point with |f(z0)| = 1.

    The top divided difference over the zeros (value 0) and z0 (value 1)
    is 1 / prod(z0 - x_i); times (d+1)! it lower-bounds the max of
    |f^(d+1)| on [-1, 1] for any smooth f with this data. All nodes must lie
    in [-1, 1] (``geometry.in_unit_ball``), so the result is at least
    (d+1)!/2^(d+1).

    1 is divided by one gap |z0 - x_i| at a time, since a product of tiny
    gaps can round to 0 where the quotient only overflows to inf. The zeros
    go in decreasing order, the order in which a Newton table divides when
    z0 is the largest node, so such inputs give the table's bits.
    """
    xs = sorted((float(x) for x in xs), reverse=True)
    if not np.all(in_unit_ball(np.array([*xs, z0])[:, None])):
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
    return _factorial(d + 1) * quotient


def rigidity_report(d: int, mu_value: float, oval_count: int, inv_remez: float | None = None) -> dict:
    """Assemble every applicable bound into one JSON body ``{degree, bounds}``.

    Each bound is one ``{formula, value, hypothesis_ok, provenance, note}``
    entry, with provenance ``FORMULAS[formula]``. A value is asserted as a
    rigidity bound only when ``hypothesis_ok`` is true; it is still computed
    for reporting whenever the arithmetic is defined. The two topological
    entries are always present; their hypothesis flag records whether
    ``oval_count`` reaches ``ovals_required(d)``. The two shapes disagree as mu shrinks
    and are deliberately reported side by side. The ``from_remez`` entry is
    added when an inverse Remez constant is supplied.
    """
    rows = []
    if inv_remez is not None:
        rows.append(("from_remez", rigidity_from_remez(inv_remez, d), True, ""))
    required = ovals_required(d)
    count_ok = oval_count >= required
    note = "" if count_ok else f"oval count {oval_count} below required {required}"
    rows.append(("topological_literal", rigidity_topological_literal(mu_value, d), count_ok, note))
    rows.append(("topological_composed", rigidity_topological_composed(mu_value, d), count_ok, note))
    return {
        "degree": d,
        "bounds": [
            {"formula": f, "value": value, "hypothesis_ok": ok, "provenance": FORMULAS[f], "note": note}
            for f, value, ok, note in rows
        ],
    }
