"""Exact and bit-level oracles for the polynomial core.

Coefficients are small dyadic rationals (k/4 with |k| <= 8), so every
product and sum the core forms is exact in floating point and must equal
sympy's rational arithmetic term by term. Dyadic sums are exact in any
order, so the bit-level tests use random non-dyadic coefficients instead:
evaluation is checked against the plain dict-loop formula (graded-lex terms,
coef * x**e factors left to right, an array's x**e taken by the sign rule
of ``signed_power``), the Vandermonde rows against the per-column loop, and
sums, products and compositions against the former
tuple-keyed dict arithmetic, which added duplicate terms in arrival order,
and derivatives against the former chain of single-axis derivatives.
"""

import numpy as np
import pytest

from rigidkit.poly import (
    MultiPoly,
    compose,
    derivatives_of_order,
    eval_poly,
    eval_polys,
    monomials,
    multi_indices,
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


def signed_power(xi: np.ndarray, e: int) -> np.ndarray:
    """An array's x**e as ``eval_polys`` takes it: |x|**e, with the sign of x when e is odd."""
    power = np.abs(xi) ** e
    return np.copysign(power, xi) if e % 2 else power


def old_eval(p: MultiPoly, x):
    """The former dict-loop evaluation: graded-lex terms, powers recomputed per term.

    A scalar factor is x**e; an array factor follows ``signed_power``.
    """
    terms = zip(map(tuple, p.exps.tolist()), p.coefs.tolist())
    terms = sorted(terms, key=lambda t: (sum(t[0]), t[0]))
    total = np.zeros_like(x[0], dtype=float) if any(isinstance(xi, np.ndarray) for xi in x) else 0.0
    for exp, coef in terms:
        term = coef
        for xi, e in zip(x, exp):
            if e:
                term = term * (signed_power(xi, e) if isinstance(xi, np.ndarray) else xi**e)
        total = total + term
    return total


def items(p: MultiPoly) -> dict:
    return dict(zip(map(tuple, p.exps.tolist()), p.coefs.tolist()))


def gradlex(terms: dict) -> dict:
    """The former constructor on unique exponents: zeros dropped, graded-lex order."""
    return {e: terms[e] for e in sorted(terms, key=lambda e: (sum(e), e)) if terms[e] != 0.0}


def old_add(a: dict, b: dict) -> dict:
    """The former ``__add__``: b's terms merged into a copy of a, one at a time."""
    merged = dict(a)
    for exp, coef in b.items():
        merged[exp] = merged.get(exp, 0.0) + coef
    return gradlex(merged)


def old_mul(a: dict, b: dict) -> dict:
    """The former ``__mul__``: every left term against every right term, in order."""
    prod: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            prod[e] = prod.get(e, 0.0) + c1 * c2
    return gradlex(prod)


def old_compose(f: MultiPoly, omega: list[MultiPoly]) -> dict:
    """The former ``compose``: cached component powers, terms chained with ``acc + term``."""
    tvars = omega[0].nvars
    one = {(0,) * tvars: 1.0}
    powers = []
    for i, w in enumerate(omega):
        row = [one]
        for _ in range(int(f.exps[:, i].max(initial=0))):
            row.append(old_mul(row[-1], items(w)))
        powers.append(row)
    acc: dict = {}
    for exp, coef in items(f).items():
        term = {(0,) * tvars: coef}
        for i, e in enumerate(exp):
            if e:
                term = old_mul(term, powers[i][e])
        acc = old_add(acc, term)
    return acc


def old_partial(p: MultiPoly, axis: int) -> MultiPoly:
    """The former single-axis derivative: rows with a positive exponent, shifted down once and scaled."""
    e = p.exps[:, axis]
    rows = e > 0
    exps = p.exps[rows]
    exps[:, axis] -= 1
    return MultiPoly.from_rows(p.nvars, exps, p.coefs[rows] * e[rows])


def chained_derivatives(p: MultiPoly, k: int) -> list:
    """The former ``derivatives_of_order``: d^alpha p as alpha_0 steps along x_0, then alpha_1 along x_1, ..."""
    out = []
    for alpha in multi_indices(p.nvars, k):
        q = p
        for axis, reps in enumerate(alpha):
            for _ in range(reps):
                q = old_partial(q, axis)
        out.append((alpha, q))
    return out


def assert_rows(p: MultiPoly, terms: dict):
    exps = np.array(list(terms), dtype=np.int64).reshape(len(terms), p.nvars)
    assert np.array_equal(p.exps, exps)
    assert np.array_equal(p.coefs, np.array(list(terms.values()), dtype=float))


def random_sparse(rng, n, d, density=0.6) -> MultiPoly:
    return MultiPoly(n, {e: rng.uniform(-2.0, 2.0) for e in monomials(n, d) if rng.uniform() < density})


class TestSympyOracle:
    def test_sum(self, sp):
        rng = np.random.default_rng(10)
        x, y = sp.symbols("x y")
        for _ in range(40):
            p, q = dyadic_poly(rng, 2, 3), dyadic_poly(rng, 2, 4)
            expr = to_sympy(sp, p, (x, y)) + to_sympy(sp, q, (x, y))
            assert as_dict(sp, p + q) == sympy_dict(sp, expr, (x, y))
            assert as_dict(sp, p + (-1.0) * p) == {}
            assert as_dict(sp, 0.75 + p) == sympy_dict(sp, to_sympy(sp, p, (x, y)) + sp.Rational(3, 4), (x, y))

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
            for alpha, q in derivatives_of_order(p, 1):
                s = syms[alpha.index(1)]
                assert as_dict(sp, q) == sympy_dict(sp, sp.diff(expr, s), syms)

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
                        col = col * signed_power(pts[:, axis], e)
                cols.append(col)
            assert np.array_equal(vandermonde(pts, d), np.column_stack(cols))

    def test_sum_and_difference_match_dict_merge(self):
        rng = np.random.default_rng(24)
        for n in (1, 2, 3):
            for _ in range(30):
                p, q = random_sparse(rng, n, 4), random_sparse(rng, n, 3)
                minus_q = (-1.0) * q
                assert_rows(p + q, old_add(items(p), items(q)))
                assert_rows(p + minus_q, old_add(items(p), {e: -c for e, c in items(q).items()}))
                assert_rows(p + 0.3, old_add(items(p), {(0,) * n: 0.3}))
                assert_rows(0.3 + minus_q, old_add(items(minus_q), {(0,) * n: 0.3}))
                assert (p + (-1.0) * p).is_zero()

    def test_product_matches_dict_loop(self):
        rng = np.random.default_rng(25)
        for n in (1, 2, 3):
            for _ in range(30):
                p, q = random_sparse(rng, n, 4), random_sparse(rng, n, 3)
                assert_rows(p * q, old_mul(items(p), items(q)))
                assert_rows(p * p, old_mul(items(p), items(p)))
        a, b = rng.uniform(0.1, 2.0, size=2)
        plus, minus = MultiPoly(2, {(1, 0): a, (0, 1): b}), MultiPoly(2, {(1, 0): a, (0, 1): -b})
        # the two cross terms cancel exactly
        assert_rows(plus * minus, old_mul(items(plus), items(minus)))
        assert (plus * minus).exps.tolist() == [[0, 2], [2, 0]]

    def test_compose_matches_chained_sums(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            f = random_sparse(rng, 2, 5)
            omega = [random_sparse(rng, 1, 2, density=1.0), random_sparse(rng, 1, 3, density=0.8)]
            assert_rows(compose(f, omega), old_compose(f, omega))
        f = random_sparse(rng, 3, 3)
        omega = [random_sparse(rng, 2, 2) for _ in range(3)]
        assert_rows(compose(f, omega), old_compose(f, omega))

    def test_derivatives_match_the_single_axis_chain(self):
        rng = np.random.default_rng(28)
        for n in (1, 2, 3):
            for _ in range(10):
                p = random_sparse(rng, n, 7)
                for k in range(6):
                    got, want = derivatives_of_order(p, k), chained_derivatives(p, k)
                    assert [alpha for alpha, _ in got] == [alpha for alpha, _ in want]
                    for (_, q), (_, r) in zip(got, want):
                        assert np.array_equal(q.exps, r.exps) and q.coefs.tobytes() == r.coefs.tobytes()

    def test_duplicate_rows_sum_in_arrival_order(self):
        # (1e16 + 1) - 1e16 is 0.0 in floats, while (1e16 - 1e16) + 1 is 1.0
        p = MultiPoly.from_rows(1, [[1], [0], [1], [1]], [1e16, 0.5, 1.0, -1e16])
        assert p.exps.tolist() == [[0]] and p.coefs.tolist() == [0.5]
        q = MultiPoly.from_rows(1, [[1], [1], [0], [1]], [1e16, -1e16, 0.5, 1.0])
        assert q.exps.tolist() == [[0], [1]] and q.coefs.tolist() == [0.5, 1.0]

    def test_eval_polys_matches_one_call_each(self):
        rng = np.random.default_rng(27)
        polys = [random_sparse(rng, 2, d) for d in (0, 1, 3, 6)] + [MultiPoly(2), random_sparse(rng, 2, 8)]
        arrays = [rng.uniform(-1.5, 1.5, size=129) for _ in range(2)]
        scalars = [float(rng.uniform(-1.5, 1.5)) for _ in range(2)]
        for x in (arrays, scalars, [np.float64(v) for v in scalars], [scalars[0], arrays[1]]):
            got = eval_polys(polys, x)
            for p, value in zip(polys, got):
                want = eval_poly(p, x)
                assert type(value) is type(want) and np.array_equal(value, want)
                assert np.array_equal(value, old_eval(p, x))
        assert eval_polys([], scalars) == []
