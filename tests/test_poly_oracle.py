"""Exact and bit-level oracles for the polynomial core.

Coefficients are small dyadic rationals (k/4 with |k| <= 8), so every
product and sum the core forms is exact in floating point and must equal
sympy's rational arithmetic term by term. Evaluation is checked bit for bit
against the plain dict-loop formula (graded-lex terms, coef * x**e factors
left to right), and the Vandermonde rows against the per-column loop.
"""

import numpy as np
import pytest

from rigidkit.poly import (
    MultiPoly,
    compose,
    derivatives_of_order,
    eval_poly,
    monomials,
    partial_derivative,
)
from rigidkit.remez import vandermonde


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def dyadic_poly(rng, n, d, density=0.7) -> MultiPoly:
    terms = {}
    for exp in monomials(n, d):
        if rng.uniform() < density:
            terms[exp] = float(rng.integers(-8, 9)) / 4.0
    return MultiPoly(n, terms)


def to_sympy(sp, p: MultiPoly, syms):
    expr = sp.Integer(0)
    for exp, coef in zip(p.exps.tolist(), p.coefs.tolist()):
        term = sp.Rational(coef)
        for s, e in zip(syms, exp):
            term *= s**e
        expr += term
    return expr


def as_dict(sp, p: MultiPoly) -> dict:
    return {tuple(e): sp.Rational(c) for e, c in zip(p.exps.tolist(), p.coefs.tolist())}


def sympy_dict(sp, expr, syms) -> dict:
    return {e: c for e, c in sp.Poly(sp.expand(expr), *syms).as_dict().items() if c != 0}


def old_eval(p: MultiPoly, x):
    """The former dict-loop evaluation: graded-lex terms, powers recomputed per term."""
    terms = zip(map(tuple, p.exps.tolist()), p.coefs.tolist())
    terms = sorted(terms, key=lambda t: (sum(t[0]), t[0]))
    total = np.zeros_like(x[0], dtype=float) if any(isinstance(xi, np.ndarray) for xi in x) else 0.0
    for exp, coef in terms:
        term = coef
        for xi, e in zip(x, exp):
            if e:
                term = term * xi**e
        total = total + term
    return total


class TestSympyOracle:
    def test_product(self, sp):
        rng = np.random.default_rng(11)
        x, y = sp.symbols("x y")
        for _ in range(40):
            p, q = dyadic_poly(rng, 2, 3), dyadic_poly(rng, 2, 3)
            expr = to_sympy(sp, p, (x, y)) * to_sympy(sp, q, (x, y))
            assert as_dict(sp, p * q) == sympy_dict(sp, expr, (x, y))

    def test_compose(self, sp):
        rng = np.random.default_rng(12)
        x, y, t = sp.symbols("x y t")
        for _ in range(40):
            f = dyadic_poly(rng, 2, 3)
            omega = [dyadic_poly(rng, 1, 2, density=1.0), dyadic_poly(rng, 1, 2, density=1.0)]
            g = compose(f, omega)
            expr = to_sympy(sp, f, (x, y)).subs(
                {x: to_sympy(sp, omega[0], (t,)), y: to_sympy(sp, omega[1], (t,))}, simultaneous=True
            )
            assert as_dict(sp, g) == sympy_dict(sp, expr, (t,))

    def test_partial_derivative(self, sp):
        rng = np.random.default_rng(13)
        syms = sp.symbols("x y z")
        for _ in range(20):
            p = dyadic_poly(rng, 3, 4)
            expr = to_sympy(sp, p, syms)
            for axis, s in enumerate(syms):
                assert as_dict(sp, partial_derivative(p, axis)) == sympy_dict(sp, sp.diff(expr, s), syms)

    def test_derivatives_of_order(self, sp):
        rng = np.random.default_rng(14)
        x, y = sp.symbols("x y")
        for _ in range(10):
            p = dyadic_poly(rng, 2, 5)
            expr = to_sympy(sp, p, (x, y))
            for k in range(4):
                for (a, b), q in derivatives_of_order(p, k):
                    assert as_dict(sp, q) == sympy_dict(sp, sp.diff(expr, x, a, y, b), (x, y))


class TestBitIdentity:
    def test_eval_matches_dict_loop_on_arrays(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 3):
            for _ in range(20):
                exps = [e for e in monomials(n, 6) if rng.uniform() < 0.8]
                p = MultiPoly(n, {e: rng.uniform(-2.0, 2.0) for e in exps})
                x = [rng.uniform(-1.5, 1.5, size=257) for _ in range(n)]
                assert np.array_equal(eval_poly(p, x), old_eval(p, x))

    def test_eval_matches_dict_loop_on_scalars(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            p = MultiPoly(2, {e: rng.uniform(-2.0, 2.0) for e in monomials(2, 7)})
            x = [float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))]
            got, want = eval_poly(p, x), old_eval(p, x)
            assert type(got) is type(want) and got == want
            x64 = [np.float64(v) for v in x]
            assert eval_poly(p, x64) == old_eval(p, x64)

    def test_vandermonde_matches_column_loop(self):
        rng = np.random.default_rng(23)
        for n, d in ((1, 8), (2, 6), (3, 4)):
            pts = rng.uniform(-1.0, 1.0, size=(100, n))
            cols = []
            for exp in monomials(n, d):
                col = np.ones(len(pts))
                for axis, e in enumerate(exp):
                    if e:
                        col = col * pts[:, axis] ** e
                cols.append(col)
            assert np.array_equal(vandermonde(pts, n, d), np.column_stack(cols))
