"""Dense multivariate polynomial arithmetic over float coefficients.

A polynomial is an (m, n) exponent matrix with unique rows in graded-lex
order (total degree, then tuple, as ``monomials`` lists them) plus its m
nonzero coefficients. ``MultiPoly.from_rows`` is the one constructor that
canonicalises: sums, products, derivatives and compositions hand it their
stacked rows. ``eval_polys`` evaluates a family of polynomials over one
per-axis power table; it is the only evaluator, and the Vandermonde columns
of ``remez`` are its values at the unit monomials. Degrees stay below ~10
here, so plain arithmetic stays exact up to float rounding, which the
downstream 1e-9 oracle tolerances rely on.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "MultiPoly",
    "basis_size",
    "compose",
    "derivatives_of_order",
    "eval_poly",
    "eval_polys",
    "monomials",
    "multi_indices",
    "partial_derivative",
]


class MultiPoly:
    """Real polynomial in ``nvars`` variables: graded-lex ``exps`` rows, nonzero ``coefs``.

    Instances are treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("nvars", "exps", "coefs")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], float] | None = None):
        if nvars < 1:
            raise ValidationError(f"nvars must be >= 1, got {nvars}")
        rows, coefs = [], []
        for exp, coef in (terms or {}).items():
            try:
                ints = tuple(int(e) for e in exp)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"non-numeric or non-finite exponent in {exp!r}") from exc
            if len(ints) != nvars:
                raise ValidationError(f"expected dimension {nvars}, got {len(ints)}")
            if ints != tuple(exp):
                raise ValidationError(f"non-integral exponent in {list(exp)}")
            if any(e < 0 for e in ints):
                raise ValidationError(f"negative exponent in {ints}")
            if any(e >= 2**63 for e in ints):
                raise ValidationError(f"exponent in {list(ints)} does not fit int64")
            coef = float(coef)
            if not math.isfinite(coef):
                raise ValidationError(f"non-finite coefficient {coef} at exponent {list(ints)}")
            rows.append(ints)
            coefs.append(coef)
        canon = MultiPoly.from_rows(nvars, rows, coefs)
        self.nvars, self.exps, self.coefs = nvars, canon.exps, canon.coefs

    @classmethod
    def from_rows(cls, nvars: int, exps, coefs) -> "MultiPoly":
        """Polynomial from exponent rows in any order; every constructor ends here.

        Rows are sorted graded-lex, coefficients of equal rows are added in
        arrival order and zero sums are dropped.
        """
        exps = np.asarray(exps, dtype=np.int64).reshape(-1, nvars)
        coefs = np.asarray(coefs, dtype=float).reshape(-1)
        if len(coefs) > 1:  # a single row is already sorted and unique
            # one int64 key per row in graded-lex order: the total degree, then
            # every exponent but the last, as digits in base (max exponent + 1)
            base = int(exps.max()) + 1
            if nvars * base**nvars >= 2**63:
                raise ValidationError(f"exponents up to {base - 1} in {nvars} variables overflow the row key")
            digits = [base**i for i in range(nvars - 2, -1, -1)] + [0]
            key = exps.dot(np.array([base ** (nvars - 1) + w for w in digits], dtype=np.int64))
            order = key.argsort(kind="stable")
            key, exps = key[order], exps[order]
            # the stable sort keeps equal rows in arrival order; bincount adds them
            # from 0.0 in index order at the first of them and leaves 0.0 elsewhere
            coefs = np.bincount(np.searchsorted(key, key), weights=coefs[order], minlength=len(key))
        keep = coefs != 0.0
        obj = cls.__new__(cls)
        obj.nvars = nvars
        obj.exps = exps[keep]
        obj.coefs = coefs[keep]
        return obj

    @classmethod
    def constant(cls, nvars: int, value: float) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @property
    def degree(self) -> int:
        """Max total degree over stored terms; 0 for the zero polynomial."""
        return int(self.exps.sum(axis=1).max()) if len(self.coefs) else 0

    def is_zero(self) -> bool:
        return not len(self.coefs)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        exps = np.concatenate([self.exps, other.exps])
        return MultiPoly.from_rows(self.nvars, exps, np.concatenate([self.coefs, other.coefs]))

    __radd__ = __add__

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, numbers.Real):
            return MultiPoly.from_rows(self.nvars, self.exps, self.coefs * float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # row-major outer sum: each left term against every right term in turn
        exps = self.exps[:, None, :] + other.exps[None, :, :]
        return MultiPoly.from_rows(self.nvars, exps, self.coefs[:, None] * other.coefs)

    __rmul__ = __mul__

    def _coerce(self, other):
        """``other`` as a polynomial in the same variables, or NotImplemented."""
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValidationError(f"expected dimension {self.nvars}, got {other.nvars}")
            return other
        if isinstance(other, numbers.Real):
            return MultiPoly.constant(self.nvars, float(other))
        return NotImplemented

    def coefficient_norm(self) -> float:
        """Max absolute coefficient; 0 for the zero polynomial."""
        return float(np.abs(self.coefs).max()) if len(self.coefs) else 0.0

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [{"exp": e, "coef": c} for e, c in zip(self.exps.tolist(), self.coefs.tolist())],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultiPoly":
        terms: dict[tuple, float] = {}
        try:
            nvars = int(data["nvars"])
            for t in data["terms"]:
                exp = tuple(t["exp"])
                for e in exp:
                    int(e)  # a non-number, NaN or infinity is malformed JSON
                if exp in terms:
                    raise ValidationError(f"duplicate exponent {list(exp)} in polynomial JSON")
                terms[exp] = float(t["coef"])
            return cls(nvars, terms)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed polynomial JSON: missing or bad field {exc}") from exc


def eval_polys(polys: Sequence[MultiPoly], x) -> list:
    """Evaluate every polynomial of ``polys`` at point ``x`` over one power table.

    ``x`` is a sequence of scalars or numpy arrays; arrays broadcast the
    evaluation. Each power x_i**e is computed once, whichever polynomial asks
    for it. Each term is coef * x_0**e_0 * x_1**e_1 * ... left to right, zero
    exponents contributing no factor, and each polynomial's terms are
    accumulated in its own graded-lex order, so every result is deterministic
    for a given polynomial regardless of construction history or of the
    other polynomials in the call.
    """
    x = list(x) if not isinstance(x, (list, tuple)) else x
    for p in polys:
        if len(x) != p.nvars:
            raise ValidationError(f"expected dimension {p.nvars}, got {len(x)}")
    rows = [p.exps.tolist() for p in polys]
    columns = zip(*(r for prows in rows for r in prows))
    table = [{e: xi**e for e in set(col) if e} for xi, col in zip(x, columns)]
    vectorized = any(isinstance(xi, np.ndarray) for xi in x)
    out = []
    for p, prows in zip(polys, rows):
        total = np.zeros_like(x[0], dtype=float) if vectorized else 0.0
        for exp, term in zip(prows, p.coefs.tolist()):
            for powers, e in zip(table, exp):
                if e:
                    term = term * powers[e]
            total = total + term
        out.append(total)
    return out


def eval_poly(p: MultiPoly, x):
    """Evaluate ``p`` at point ``x``: the one-polynomial case of ``eval_polys``."""
    return eval_polys((p,), x)[0]


def partial_derivative(p: MultiPoly, axis: int) -> MultiPoly:
    """Formal partial derivative along the given axis, as an index map."""
    if not 0 <= axis < p.nvars:
        raise ValidationError(f"axis {axis} out of range for {p.nvars} variables")
    e = p.exps[:, axis]
    rows = e > 0
    exps = p.exps[rows]
    exps[:, axis] -= 1
    return MultiPoly.from_rows(p.nvars, exps, p.coefs[rows] * e[rows])


def multi_indices(nvars: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices of total weight ``order``, lexicographic order."""
    if nvars == 1:
        return [(order,)]
    return sorted(
        (head,) + tail for head in range(order + 1) for tail in multi_indices(nvars - 1, order - head)
    )


def derivatives_of_order(p: MultiPoly, k: int) -> list[tuple[tuple[int, ...], MultiPoly]]:
    """All order-k partial derivatives as (multi-index, polynomial) pairs.

    Each distinct multi-index appears exactly once, without multinomial
    multiplicity; this is the convention used by every derivative norm in
    the package.
    """
    out = []
    for alpha in multi_indices(p.nvars, k):
        q = p
        for axis, reps in enumerate(alpha):
            for _ in range(reps):
                q = partial_derivative(q, axis)
        out.append((alpha, q))
    return out


def compose(f: MultiPoly, omega: Sequence[MultiPoly]) -> MultiPoly:
    """Exact symbolic substitution f(omega_1(t), ..., omega_n(t)).

    Every component must share one parameter variable set; the result lives
    in that variable. deg(result) <= deg(f) * max deg(omega_i).
    """
    omega = list(omega)
    if len(omega) != f.nvars:
        raise ValidationError(f"expected dimension {f.nvars}, got {len(omega)}")
    tvars = omega[0].nvars
    for w in omega:
        if w.nvars != tvars:
            raise ValidationError(f"expected dimension {tvars}, got {w.nvars}")
    # cache powers of each component up to the max exponent it is raised to
    max_exp = f.exps.max(axis=0, initial=0).tolist()
    powers: list[list[MultiPoly]] = []
    for i, w in enumerate(omega):
        row = [MultiPoly.constant(tvars, 1.0)]
        for _ in range(max_exp[i]):
            row.append(row[-1] * w)
        powers.append(row)
    terms = [MultiPoly(tvars)]
    for exp, coef in zip(f.exps.tolist(), f.coefs.tolist()):
        term = MultiPoly.constant(tvars, coef)
        for i, e in enumerate(exp):
            if e:
                term = term * powers[i][e]
        terms.append(term)
    # one canonicalisation of all term rows, summed in term order
    exps = np.concatenate([t.exps for t in terms])
    return MultiPoly.from_rows(tvars, exps, np.concatenate([t.coefs for t in terms]))


def basis_size(n: int, d: int) -> int:
    """Dimension of the space of n-variate polynomials of total degree <= d."""
    if n < 1 or d < 0:
        raise ValidationError(f"basis_size needs n >= 1, d >= 0, got n={n}, d={d}")
    size = math.comb(n + d, n)
    if size > 10**9:
        raise ValidationError(f"basis size {size} exceeds the desk-scale limit")
    return size


def monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= d in graded-lexicographic order."""
    out: list[tuple[int, ...]] = []
    for total in range(d + 1):
        out.extend(multi_indices(n, total))
    return out
