"""Dense multivariate polynomial arithmetic over float coefficients.

A polynomial is an (m, n) exponent matrix with unique rows in graded-lex
order (total degree, then tuple, as ``monomials`` lists them) plus its m
nonzero coefficients. Evaluation and the Vandermonde rows of ``remez`` share
one term builder, so they agree bit for bit. Degrees stay below ~10 here, so
plain arithmetic stays exact up to float rounding, which the downstream 1e-9
oracle tolerances rely on.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "MultiPoly",
    "basis_size",
    "chebyshev",
    "compose",
    "derivative_norm_pointwise",
    "derivatives_of_order",
    "eval_poly",
    "monomial_terms",
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
        clean: dict[tuple[int, ...], float] = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ValidationError(f"expected dimension {nvars}, got {len(exp)}")
            if any(e < 0 for e in exp):
                raise ValidationError(f"negative exponent in {exp}")
            coef = float(coef)
            if not math.isfinite(coef):
                raise ValidationError(f"non-finite coefficient {coef} at exponent {list(exp)}")
            if coef != 0.0:
                clean[exp] = clean.get(exp, 0.0) + coef
                if clean[exp] == 0.0:
                    del clean[exp]
        rows = sorted(clean, key=lambda e: (sum(e), e))
        self.nvars = nvars
        self.exps = np.array(rows, dtype=np.int64).reshape(len(rows), nvars)
        self.coefs = np.array([clean[e] for e in rows], dtype=float)

    @classmethod
    def from_rows(cls, nvars: int, exps, coefs) -> "MultiPoly":
        """Polynomial from unique graded-lex exponent rows; zero coefficients are dropped."""
        coefs = np.asarray(coefs, dtype=float)
        keep = coefs != 0.0
        obj = cls.__new__(cls)
        obj.nvars = nvars
        obj.exps = np.asarray(exps, dtype=np.int64).reshape(-1, nvars)[keep]
        obj.coefs = coefs[keep]
        return obj

    @classmethod
    def constant(cls, nvars: int, value: float) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, axis: int) -> "MultiPoly":
        exp = [0] * nvars
        exp[axis] = 1
        return cls(nvars, {tuple(exp): 1.0})

    @property
    def degree(self) -> int:
        """Max total degree over stored terms; 0 for the zero polynomial."""
        return int(self.exps.sum(axis=1).max()) if len(self.coefs) else 0

    def is_zero(self) -> bool:
        return not len(self.coefs)

    def _items(self):  # (exponent tuple, float coefficient) pairs, graded-lex
        return zip(map(tuple, self.exps.tolist()), self.coefs.tolist())

    def __call__(self, x):
        return eval_poly(self, x)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        merged = dict(self._items())
        for exp, coef in other._items():
            merged[exp] = merged.get(exp, 0.0) + coef
        return MultiPoly(self.nvars, merged)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly.from_rows(self.nvars, self.exps, -self.coefs)

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, float)):
            return MultiPoly.from_rows(self.nvars, self.exps, self.coefs * other)
        other = self._coerce(other)
        prod: dict[tuple[int, ...], float] = {}
        right = list(other._items())
        for e1, c1 in self._items():
            for e2, c2 in right:
                e = tuple(a + b for a, b in zip(e1, e2))
                prod[e] = prod.get(e, 0.0) + c1 * c2
        return MultiPoly(self.nvars, prod)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise ValidationError(f"polynomial power must be a nonnegative int, got {k}")
        out = MultiPoly.constant(self.nvars, 1.0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValidationError(f"expected dimension {self.nvars}, got {other.nvars}")
            return other
        if isinstance(other, (int, float)):
            return MultiPoly.constant(self.nvars, float(other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and np.array_equal(self.exps, other.exps)
            and np.array_equal(self.coefs, other.coefs)
        )

    def __repr__(self) -> str:
        if self.is_zero():
            return f"MultiPoly({self.nvars}, 0)"
        parts = [f"{c:g}*x^{list(e)}" for e, c in self._items()]
        return f"MultiPoly({self.nvars}, {' + '.join(parts)})"

    def coefficient_norm(self) -> float:
        """Max absolute coefficient; 0 for the zero polynomial."""
        return float(np.abs(self.coefs).max()) if len(self.coefs) else 0.0

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [{"exp": list(e), "coef": c} for e, c in self._items()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultiPoly":
        terms: dict[tuple[int, ...], float] = {}
        try:
            nvars = int(data["nvars"])
            for t in data["terms"]:
                exp = tuple(int(e) for e in t["exp"])
                if exp in terms:
                    raise ValidationError(f"duplicate exponent {list(exp)} in polynomial JSON")
                terms[exp] = float(t["coef"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed polynomial JSON: missing or bad field {exc}") from exc
        return cls(nvars, terms)


def monomial_terms(rows: Sequence[Sequence[int]], coefs: Sequence[float], x):
    """Yield coef * x_0**e_0 * x_1**e_1 * ... per exponent row, left to right.

    Each ``x_i**e`` is computed once, in a per-axis power table; zero
    exponents contribute no factor.
    """
    powers = [{e: xi**e for e in set(col) if e} for xi, col in zip(x, zip(*rows))]
    for exp, coef in zip(rows, coefs):
        term = coef
        for table, e in zip(powers, exp):
            if e:
                term = term * table[e]
        yield term


def eval_poly(p: MultiPoly, x):
    """Evaluate ``p`` at point ``x`` (sequence of scalars or numpy arrays).

    Terms are accumulated in graded-lex order, so the result is deterministic
    for a given polynomial regardless of construction history. Passing numpy
    arrays as coordinates broadcasts the evaluation.
    """
    x = list(x) if not isinstance(x, (list, tuple)) else x
    if len(x) != p.nvars:
        raise ValidationError(f"expected dimension {p.nvars}, got {len(x)}")
    vectorized = any(isinstance(xi, np.ndarray) for xi in x)
    total = np.zeros_like(x[0], dtype=float) if vectorized else 0.0
    for term in monomial_terms(p.exps.tolist(), p.coefs.tolist(), x):
        total = total + term
    return total


def partial_derivative(p: MultiPoly, axis: int) -> MultiPoly:
    """Formal partial derivative along the given axis, as an index map.

    Subtracting one unit vector from the surviving rows keeps them graded-lex.
    """
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


def derivative_norm_pointwise(p: MultiPoly, k: int, x) -> float:
    """Sum over |alpha| = k of |d^alpha p (x)|, each multi-index once."""
    if k < 0:
        raise ValidationError(f"derivative order must be >= 0, got {k}")
    return float(sum(abs(eval_poly(q, x)) for _, q in derivatives_of_order(p, k)))


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
    acc = MultiPoly(tvars)
    for exp, coef in f._items():
        term = MultiPoly.constant(tvars, coef)
        for i, e in enumerate(exp):
            if e:
                term = term * powers[i][e]
        acc = acc + term
    return acc


def chebyshev(d: int) -> MultiPoly:
    """Univariate Chebyshev polynomial T_d via the three-term recurrence."""
    if d < 0:
        raise ValidationError(f"Chebyshev degree must be >= 0, got {d}")
    t_prev = MultiPoly(1, {(0,): 1.0})
    if d == 0:
        return t_prev
    t_cur = MultiPoly(1, {(1,): 1.0})
    two_t = MultiPoly(1, {(1,): 2.0})
    for _ in range(d - 1):
        t_prev, t_cur = t_cur, two_t * t_cur - t_prev
    return t_cur


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


def random_poly(n: int, d: int, rng: np.random.Generator, scale: float = 1.0) -> MultiPoly:
    """Dense random polynomial with iid uniform coefficients in [-scale, scale]."""
    return MultiPoly(n, {exp: float(rng.uniform(-scale, scale)) for exp in monomials(n, d)})
