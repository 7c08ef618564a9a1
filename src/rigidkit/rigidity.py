"""Lower bounds on the minimal sup-norm of the (d+1)-st derivative.

The d-rigidity of a zero set Z is the largest R such that every (d+1)-times
smooth function vanishing on Z with max |f| = 1 on the unit ball satisfies
||f^(d+1)|| >= R. This module computes every lower bound the package knows:
from the inverse Remez constant, from the topological domain decomposition
(in two variants whose shapes disagree; both are reported, see
``RigidityReport``), and from one-dimensional divided differences, including
the restriction of a function to a line for sets with interior points.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import SolverError, ValidationError
from .remez import ovals_required, remez_bound_topological

__all__ = [
    "BoundEntry",
    "RigidityReport",
    "rigidity_from_remez",
    "rigidity_topological_literal",
    "rigidity_topological_composed",
    "divided_difference",
    "rigidity_1d_bound",
    "interior_line_bound",
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


def rigidity_topological_literal(mu: float, d: int, n: int) -> float:
    """The literal topological rigidity expression (1/(d+1)!) (4n/mu)^d.

    Grows as mu shrinks. Reported side by side with the composed variant,
    which decays as mu shrinks; the report takes no position on which shape
    is intended (see module docstring).
    """
    return remez_bound_topological(mu, d, n) / _factorial(d + 1)


def rigidity_topological_composed(mu: float, d: int, n: int) -> float:
    """Chained bound (d+1)!/2 (mu/(4n))^d from the inverse of the Remez bound."""
    if mu <= 0:
        raise ValidationError(f"minimal domain area must be positive, got {mu}")
    return _factorial(d + 1) / 2.0 * (mu / (4.0 * n)) ** d


def divided_difference(xs, fs) -> float:
    """Top-order Newton divided difference over strictly increasing nodes."""
    xs = [float(x) for x in xs]
    fs = [float(f) for f in fs]
    if len(xs) != len(fs) or not xs:
        raise ValidationError("xs and fs must be nonempty and of equal length")
    for a, b in zip(xs, xs[1:]):
        if a == b:
            raise ValidationError(f"duplicate node {a}")
        if a > b:
            raise ValidationError("nodes must be strictly increasing")
    table = list(fs)
    k = len(xs)
    for order in range(1, k):
        for i in range(k - order):
            table[i] = (table[i + 1] - table[i]) / (xs[i + order] - xs[i])
    return table[0]


def rigidity_1d_bound(xs, z0: float, fz0: float, d: int) -> float:
    """One-dimensional rigidity bound through d+1 zeros and a witness point.

    The divided difference over the zeros (value 0) and z0 (value fz0)
    collapses to fz0 / prod(z0 - x_i); times (d+1)! it lower-bounds the max
    of |f^(d+1)| for any smooth f with this data. With all nodes in [-1, 1]
    and |fz0| = 1 the result is at least (d+1)!/2^(d+1).
    """
    xs = sorted(float(x) for x in xs)
    if not all(math.isfinite(v) for v in (*xs, z0, fz0)):
        raise ValidationError("zeros, witness point and witness value must be finite")
    if len(xs) != d + 1:
        raise ValidationError(f"need exactly d+1 = {d + 1} zeros, got {len(xs)}")
    if len(set(xs)) != len(xs):
        raise ValidationError("zero nodes must be distinct")
    if any(x == z0 for x in xs):
        raise ValidationError(f"witness point {z0} coincides with a zero")
    nodes = sorted(xs + [float(z0)])
    values = [0.0 if x != z0 else float(fz0) for x in nodes]
    dd = divided_difference(nodes, values)
    return max(_factorial(d + 1) * abs(dd), 0.0)


def interior_line_bound(f_sampler, z0, zint, d: int, samples: int = 2048) -> float:
    """Rigidity bound from restricting a function to a line.

    The segment through z0 and zint is extended to a full chord of the unit
    ball and affinely parametrized over [-1, 1]. Zeros of the restriction are
    located by sign changes on a uniform grid plus bisection to 1e-10; the
    d+1 zeros nearest to zint feed the one-dimensional bound with the
    sampled value at z0 as witness. Returns 0 when d+1 zeros cannot be
    located or the witness sits on a zero.
    """
    z0 = np.asarray(z0, dtype=float)
    zint = np.asarray(zint, dtype=float)
    if z0.shape != zint.shape:
        raise ValidationError("z0 and zint must have the same dimension")
    gap = float(np.linalg.norm(zint - z0))
    if gap == 0.0:
        raise ValidationError("z0 and zint must be distinct")
    if samples < d + 2:
        raise ValidationError(f"need at least d+2 = {d + 2} samples")
    u = (zint - z0) / gap
    # chord of the unit ball along z0 + t u
    b = float(np.dot(z0, u))
    disc = b * b - float(np.dot(z0, z0)) + 1.0
    if disc <= 0:
        raise ValidationError("the line misses the interior of the unit ball")
    t_lo, t_hi = -b - math.sqrt(disc), -b + math.sqrt(disc)
    center = z0 + u * (t_lo + t_hi) / 2.0
    radius = (t_hi - t_lo) / 2.0

    def g(tau: float) -> float:
        point = center + radius * tau * u
        try:
            return float(f_sampler(point))
        except Exception as exc:  # noqa: BLE001 - caller-supplied sampler
            raise SolverError(f"sampler failed at {point}: {exc}") from exc

    taus = np.linspace(-1.0, 1.0, samples)
    vals = np.array([g(t) for t in taus])
    zeros: list[float] = []
    for i in range(len(taus) - 1):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            zeros.append(float(taus[i]))
            continue
        if va * vb < 0.0:
            lo, hi, flo = taus[i], taus[i + 1], va
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                fm = g(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            zeros.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        zeros.append(float(taus[-1]))
    if len(zeros) < d + 1:
        return 0.0

    tau_int = float(np.dot(zint - center, u)) / radius
    tau_0 = float(np.dot(z0 - center, u)) / radius
    zeros.sort(key=lambda t: (abs(t - tau_int), t))
    picked = sorted(zeros[: d + 1])
    if any(abs(t - tau_0) < 1e-9 for t in picked):
        return 0.0
    fz0 = g(tau_0)
    if fz0 == 0.0:
        return 0.0
    return rigidity_1d_bound(picked, tau_0, fz0, d)


@dataclass
class BoundEntry:
    """One named lower bound with its formula and hypothesis status.

    ``value`` is asserted as a rigidity bound only when ``hypothesis_ok`` is
    true; the value is still computed for reporting whenever the arithmetic
    is defined.
    """

    formula: str
    value: float | None
    hypothesis_ok: bool
    provenance: str
    note: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class RigidityReport:
    d: int
    bounds: list[BoundEntry] = field(default_factory=list)

    def entry(self, formula: str) -> BoundEntry:
        for e in self.bounds:
            if e.formula == formula:
                return e
        raise KeyError(formula)

    def to_json_dict(self) -> dict:
        return {"degree": self.d, "bounds": [e.to_json_dict() for e in self.bounds]}


def rigidity_report(
    d: int, mu_value: float, oval_count: int, n: int = 2, inv_remez: float | None = None
) -> RigidityReport:
    """Assemble every applicable bound into one report.

    Each bound is one ``(formula, value, hypothesis_ok, note)`` row; its
    provenance is ``FORMULAS[formula]``. The two topological entries are
    always present; their hypothesis flag records whether ``oval_count``
    reaches ``ovals_required(d, n)``. The two shapes disagree as mu shrinks
    and are deliberately reported side by side. The ``from_remez`` entry is
    added when an inverse Remez constant is supplied.
    """
    rows = []
    if inv_remez is not None:
        rows.append(("from_remez", rigidity_from_remez(inv_remez, d), True, ""))
    required = ovals_required(d, n)
    count_ok = oval_count >= required
    note = "" if count_ok else f"oval count {oval_count} below required {required}"
    rows.append(("topological_literal", rigidity_topological_literal(mu_value, d, n), count_ok, note))
    rows.append(("topological_composed", rigidity_topological_composed(mu_value, d, n), count_ok, note))
    return RigidityReport(d, [BoundEntry(f, value, ok, FORMULAS[f], note) for f, value, ok, note in rows])
