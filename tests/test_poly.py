import math

import numpy as np
import pytest

from conftest import random_poly, same_poly
from rigidkit.errors import ValidationError
from rigidkit.poly import (
    MultiPoly,
    basis_size,
    compose,
    derivatives_of_order,
    eval_poly,
    eval_polys,
    monomials,
)


def x2_plus_y2():
    return MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})


def variable(nvars: int, axis: int) -> MultiPoly:
    return MultiPoly(nvars, {tuple(int(i == axis) for i in range(nvars)): 1.0})


class TestMultiPoly:
    def test_zero_coefficients_never_stored(self):
        p = MultiPoly(2, {(1, 0): 0.0, (0, 1): 2.0})
        assert p.exps.tolist() == [[0, 1]] and p.coefs.tolist() == [2.0]
        q = MultiPoly(1, {(1,): 1.0}) + MultiPoly(1, {(1,): -1.0})
        assert q.is_zero() and q.exps.shape == (0, 1) and q.coefs.shape == (0,)

    def test_degree(self):
        assert x2_plus_y2().degree == 2
        assert MultiPoly.constant(2, 3.0).degree == 0
        assert MultiPoly(2, {}).degree == 0

    def test_zero_variables_rejected(self):
        with pytest.raises(ValidationError, match=r"^nvars must be >= 1, got 0$"):
            MultiPoly(0, {})

    def test_exponent_length_enforced(self):
        with pytest.raises(ValidationError, match=r"expected dimension 2, got 1"):
            MultiPoly(2, {(1,): 1.0})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValidationError):
            MultiPoly(1, {(-1,): 1.0})

    def test_arithmetic(self):
        x, y = variable(2, 0), variable(2, 1)
        p = (x + y) * (x + (-1.0) * y)
        assert same_poly(p, MultiPoly(2, {(2, 0): 1.0, (0, 2): -1.0}))
        assert (x * x * x).exps.tolist() == [[3, 0]] and (x * x * x).coefs.tolist() == [1.0]
        assert (2 * x + (-1.0) * x + (-1.0) * x).is_zero()

    def test_mixed_dim_arithmetic_rejected(self):
        with pytest.raises(ValidationError, match=r"expected dimension 2, got 1"):
            variable(2, 0) + variable(1, 0)

    def test_coefficient_norm(self):
        p = MultiPoly(1, {(0,): -5.0, (2,): 3.0})
        assert p.coefficient_norm() == 5.0
        assert MultiPoly(1, {}).coefficient_norm() == 0.0

    def test_json_round_trip(self):
        p = MultiPoly(2, {(2, 0): 1.5, (0, 1): -2.0})
        assert same_poly(MultiPoly.from_json_dict(p.to_json_dict()), p)

    def test_malformed_json(self):
        with pytest.raises(ValidationError):
            MultiPoly.from_json_dict({"nvars": 1})

    def test_storage_is_graded_lex_rows(self):
        p = MultiPoly(2, {(0, 2): 1.0, (3, 0): 4.0, (1, 0): -2.0, (0, 0): 5.0, (1, 1): 3.0})
        assert MultiPoly.__slots__ == ("nvars", "exps", "coefs")
        assert p.exps.tolist() == [[0, 0], [1, 0], [0, 2], [1, 1], [3, 0]]
        assert p.coefs.tolist() == [5.0, -2.0, 1.0, 3.0, 4.0]

    def test_row_key_overflow_rejected(self):
        p = MultiPoly(1, {(2**60,): 1.0, (3,): 2.0})
        assert p.exps.tolist() == [[3], [2**60]]
        with pytest.raises(ValidationError, match=r"overflow the row key"):
            MultiPoly(2, {(2**40, 0): 1.0, (0, 1): 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"non-finite coefficient"):
            MultiPoly(2, {(1, 0): 1.0, (0, 1): bad})

    @pytest.mark.parametrize("exp", [[1.5, 0], (1.5, 0), (np.float64(0.25), 1)])
    def test_non_integral_exponent_rejected(self, exp):
        with pytest.raises(ValidationError, match=r"non-integral exponent"):
            MultiPoly.from_json_dict({"nvars": 2, "terms": [{"exp": list(exp), "coef": 1.0}]})
        with pytest.raises(ValidationError, match=r"non-integral exponent"):
            MultiPoly(2, {tuple(exp): 1.0})

    @pytest.mark.parametrize("bad", ["a", math.nan, math.inf])
    def test_non_numeric_or_non_finite_exponent_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"non-numeric or non-finite exponent in \("):
            MultiPoly(2, {(bad, 0): 1.0})

    def test_integral_float_exponent_accepted(self):
        p = MultiPoly.from_json_dict({"nvars": 2, "terms": [{"exp": [2.0, 0], "coef": 1.0}]})
        assert same_poly(p, MultiPoly(2, {(2, 0): 1.0}))

    @pytest.mark.parametrize("big", [2**63, 99999999999999999999, 1e20])
    def test_exponent_beyond_int64_rejected(self, big):
        with pytest.raises(ValidationError, match=r"does not fit int64"):
            MultiPoly.from_json_dict({"nvars": 2, "terms": [{"exp": [big, 0], "coef": 1.0}]})
        assert MultiPoly(1, {(2**63 - 1,): 1.0}).degree == 2**63 - 1

    @pytest.mark.parametrize(
        "bad, fragment",
        [(math.inf, "malformed polynomial JSON"), (math.nan, "malformed polynomial JSON"),
         (None, "malformed polynomial JSON"), ("1", "non-integral exponent")],
    )
    def test_non_numeric_json_exponent_rejected(self, bad, fragment):
        with pytest.raises(ValidationError, match=fragment):
            MultiPoly.from_json_dict({"nvars": 2, "terms": [{"exp": [bad, 0], "coef": 1.0}]})

    def test_duplicate_json_exponent_rejected(self):
        data = {"nvars": 2, "terms": [{"exp": [2, 0], "coef": 1.0}, {"exp": [2, 0], "coef": 2.0}]}
        with pytest.raises(ValidationError, match=r"duplicate exponent \[2, 0\]"):
            MultiPoly.from_json_dict(data)


class TestScalarOperands:
    @pytest.mark.parametrize("c", [2, 2.5, True, np.int64(2), np.int8(-3), np.float32(1.5), np.float64(-0.25)])
    def test_real_scalars_act_as_constants(self, c):
        x = variable(2, 0)
        k = MultiPoly.constant(2, float(c))
        assert same_poly(x * c, x * k) and same_poly(c * x, x * k)
        assert same_poly(x + c, x + k) and same_poly(c + x, x + k)

    @pytest.mark.parametrize("other", ["a", None, 1j, [1.0], object()])
    def test_other_operands_raise_type_error(self, other):
        x = variable(2, 0)
        for op in (lambda: x * other, lambda: other * x, lambda: x + other, lambda: other + x):
            with pytest.raises(TypeError):
                op()


class TestEval:
    def test_sum_of_squares(self):
        assert eval_poly(x2_plus_y2(), (1, 1)) == 2.0

    def test_constant(self):
        p = MultiPoly.constant(3, 5.0)
        assert eval_poly(p, (0.1, -0.2, 0.9)) == 5.0

    def test_cubic(self):
        p = MultiPoly(1, {(3,): 2.0, (1,): -3.0})
        assert eval_poly(p, [2.0]) == 10.0

    def test_vectorized(self):
        p = x2_plus_y2()
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([1.0, 1.0, 0.0])
        assert np.array_equal(eval_poly(p, [xs, ys]), [1.0, 2.0, 4.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match=r"expected dimension 2, got 1"):
            eval_poly(x2_plus_y2(), (1.0,))


def partial(p: MultiPoly, alpha: tuple[int, ...]) -> MultiPoly:
    """The derivative d^alpha p, as ``derivatives_of_order`` lists it."""
    return dict(derivatives_of_order(p, sum(alpha)))[alpha]


class TestDerivatives:
    def test_product_rule_example(self):
        p = MultiPoly(2, {(2, 1): 1.0})  # x^2 y
        assert same_poly(partial(p, (1, 0)), MultiPoly(2, {(1, 1): 2.0}))

    def test_derivative_of_missing_variable_is_zero(self):
        p = MultiPoly(2, {(2, 0): 1.0})
        assert partial(p, (0, 1)).is_zero()

    def test_cubic_derivative(self):
        p = MultiPoly(1, {(3,): 1.0, (1,): -3.0})
        assert same_poly(partial(p, (1,)), MultiPoly(1, {(2,): 3.0, (0,): -3.0}))

    def test_partials_commute_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_poly(2, 5, rng)
            pxy = partial(partial(p, (1, 0)), (0, 1))
            pyx = partial(partial(p, (0, 1)), (1, 0))
            assert same_poly(pxy, pyx)
            assert same_poly(pxy, partial(p, (1, 1)))

    def test_order_above_every_row_is_zero(self):
        p = x2_plus_y2()
        assert all(q.is_zero() for _, q in derivatives_of_order(p, 3))
        assert partial(MultiPoly(1, {(2,): 1.0}), (10**6,)).is_zero()

    @pytest.mark.parametrize("p", [MultiPoly(1, {(2,): 1.0}), x2_plus_y2()], ids=["univariate", "bivariate"])
    def test_negative_order_refused(self, p):
        with pytest.raises(ValidationError, match=r"^derivative order must be >= 0, got -1$"):
            derivatives_of_order(p, -1)

    def test_derivatives_of_order_enumerates_all_multi_indices(self):
        p = x2_plus_y2()
        pairs = derivatives_of_order(p, 2)
        assert sorted(alpha for alpha, _ in pairs) == [(0, 2), (1, 1), (2, 0)]
        by_alpha = {alpha: q for alpha, q in pairs}
        assert same_poly(by_alpha[(2, 0)], MultiPoly.constant(2, 2.0))
        assert by_alpha[(1, 1)].is_zero()


def derivative_norm_pointwise(p: MultiPoly, k: int, x) -> float:
    """Sum over |alpha| = k of |d^alpha p (x)|, each multi-index once."""
    return float(sum(abs(v) for v in eval_polys([q for _, q in derivatives_of_order(p, k)], x)))


class TestDerivativeNorm:
    def test_second_derivative_of_square(self):
        p = MultiPoly(1, {(2,): 1.0})
        assert derivative_norm_pointwise(p, 2, [0.3]) == 2.0

    def test_mixed_term_counted_once(self):
        p = MultiPoly(2, {(1, 1): 1.0})  # xy: orders (2,0),(1,1),(0,2) -> 0,1,0
        assert derivative_norm_pointwise(p, 2, (0.2, -0.4)) == 1.0

    def test_third_derivative_of_cube(self):
        p = MultiPoly(1, {(3,): 1.0})
        assert derivative_norm_pointwise(p, 3, [0.0]) == 6.0

    def test_vanishes_above_degree(self):
        rng = np.random.default_rng(11)
        p = random_poly(2, 3, rng)
        for k in range(p.degree + 1, p.degree + 4):
            assert derivative_norm_pointwise(p, k, (0.5, 0.5)) == 0.0


class TestCompose:
    def test_linear_with_parabola(self):
        f = MultiPoly(2, {(1, 0): 1.0, (0, 1): 1.0})
        g = compose(f, [MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(2,): 1.0})])
        assert same_poly(g, MultiPoly(1, {(1,): 1.0, (2,): 1.0}))

    def test_degree_multiplies(self):
        f = MultiPoly(1, {(2,): 1.0})
        g = compose(f, [MultiPoly(1, {(2,): 1.0})])
        assert same_poly(g, MultiPoly(1, {(4,): 1.0}))
        assert g.degree == 4

    def test_numeric_cross_check(self):
        # cos-like truncated series as one component
        cos_approx = MultiPoly(1, {(0,): 1.0, (2,): -0.5, (4,): 1.0 / 24.0})
        ident = MultiPoly(1, {(1,): 1.0})
        f = x2_plus_y2()
        g = compose(f, [cos_approx, ident])
        ts = np.linspace(-1.0, 1.0, 100)
        direct = np.array([eval_poly(f, (eval_poly(cos_approx, [t]), t)) for t in ts])
        composed = eval_poly(g, [ts])
        assert np.max(np.abs(composed - direct)) <= 1e-9 * max(1.0, np.max(np.abs(direct)))

    def test_wrong_component_count(self):
        with pytest.raises(ValidationError, match=r"expected dimension 2, got 1"):
            compose(x2_plus_y2(), [MultiPoly(1, {(1,): 1.0})])

    def test_components_in_different_variable_counts(self):
        with pytest.raises(ValidationError, match=r"^expected dimension 1, got 2$"):
            compose(x2_plus_y2(), [MultiPoly(1, {(1,): 1.0}), MultiPoly(2, {(0, 1): 1.0})])


def chebyshev(d: int) -> MultiPoly:
    """T_d by the three-term recurrence, an exact check of chained products and sums."""
    t_prev, t_cur = MultiPoly.constant(1, 1.0), variable(1, 0)
    for _ in range(d):
        t_prev, t_cur = t_cur, 2.0 * variable(1, 0) * t_cur + (-1.0) * t_prev
    return t_prev


class TestChebyshev:
    def test_degree_zero(self):
        assert same_poly(chebyshev(0), MultiPoly.constant(1, 1.0))

    def test_growth_values(self):
        assert eval_poly(chebyshev(2), [3.0]) == 17.0
        assert eval_poly(chebyshev(3), [2.0]) == 26.0

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_bounded_on_interval(self, d):
        ts = np.linspace(-1.0, 1.0, 1000)
        vals = eval_poly(chebyshev(d), [ts])
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_cosine_identity(self, d):
        thetas = np.linspace(0.0, np.pi, 100)
        vals = eval_poly(chebyshev(d), [np.cos(thetas)])
        assert np.max(np.abs(vals - np.cos(d * thetas))) <= 1e-9


class TestBasis:
    def test_sizes(self):
        assert basis_size(1, 3) == 4
        assert basis_size(2, 2) == 6
        assert basis_size(2, 6) == 28

    def test_oversized_basis_rejected(self):
        with pytest.raises(ValidationError, match=r"a basis of 5000150001 monomials would hold"):
            basis_size(2, 100000)

    def test_basis_limit_is_an_m_by_m_factor_of_2_to_the_24_entries(self):
        assert basis_size(1, 4095) == 4096
        with pytest.raises(ValidationError, match=r"^an m x m factor of a basis of 4097 monomials would hold 16785409 entries"):
            basis_size(1, 4096)

    def test_matches_monomial_enumeration(self):
        for n, d in [(1, 4), (2, 3), (3, 2)]:
            assert len(monomials(n, d)) == basis_size(n, d)
            assert basis_size(n, d) == math.comb(n + d, n)

    def test_monomials_graded_lex(self):
        ms = monomials(2, 2)
        assert ms == sorted(ms, key=lambda e: (sum(e), e))
        assert all(len(e) == 2 and sum(e) <= 2 for e in ms)
