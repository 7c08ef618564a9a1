import math

import numpy as np
import pytest

from rigidkit.errors import SolverError, ValidationError
from rigidkit.poly import MultiPoly, basis_size, eval_poly, monomials
from rigidkit.remez import (
    brudnyi_ganzburg_bound,
    inverse_remez,
    ovals_required,
    remez_bound_topological,
    remez_estimate_lp,
    vandermonde,
)


class TestTopologicalBound:
    def test_plane_substitution(self):
        assert remez_bound_topological(2.0, 3, 2) == pytest.approx(64.0)

    def test_unit_value(self):
        assert remez_bound_topological(8.0, 1, 2) == pytest.approx(1.0)

    def test_oval_count_hypothesis(self):
        # the degree-6 formula value; whether 26 ovals are present is judged by the reports
        assert remez_bound_topological(1.0, 6, 2) == pytest.approx(8.0**6)

    def test_ovals_required(self):
        assert [ovals_required(d, 2) for d in (1, 2, 3, 6)] == [1, 2, 5, 26]
        assert ovals_required(3, 3) == 9
        for bad in (0, -1):
            with pytest.raises(ValidationError, match=r"ambient dimension must be >= 1"):
                ovals_required(3, bad)
        with pytest.raises(ValidationError, match=r"degree must be >= 0, got -1"):
            ovals_required(-1, 2)

    def test_mu_positive(self):
        with pytest.raises(ValidationError, match=r"minimal domain area must be positive"):
            remez_bound_topological(0.0, 2, 2)

    @pytest.mark.parametrize(
        "d, n, message", [(-1, 2, r"degree must be >= 0, got -1"), (2, 0, r"ambient dimension must be >= 1, got 0")]
    )
    def test_degree_and_dimension_rejected(self, d, n, message):
        with pytest.raises(ValidationError, match=message):
            remez_bound_topological(1.0, d, n)

    @pytest.mark.parametrize("mu, d", [(4e-18, 18), (4e-320, 1)])
    def test_overflow_rejected(self, mu, d):
        # the power overflows at the first pair; 8/mu is already infinite at the second
        with pytest.raises(ValidationError, match=r"^bound \(4n/mu\)\^d overflows a double"):
            remez_bound_topological(mu, d, 2)


class TestBrudnyiGanzburg:
    def test_full_measure(self):
        for d in (1, 3, 7):
            assert brudnyi_ganzburg_bound(1.0, d, 2) == pytest.approx(1.0)

    def test_half_measure_line(self):
        assert brudnyi_ganzburg_bound(0.5, 1, 1) == pytest.approx(3.0)
        assert brudnyi_ganzburg_bound(0.5, 2, 1) == pytest.approx(17.0)

    def test_strictly_decreasing_in_lambda(self):
        lams = np.linspace(0.05, 1.0, 40)
        for d in (1, 2, 4):
            vals = [brudnyi_ganzburg_bound(lam, d, 2) for lam in lams]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_lambda_range(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError, match=r"measure fraction must lie in \(0, 1\]"):
                brudnyi_ganzburg_bound(bad, 2, 2)


class TestVandermonde:
    def test_shape_and_columns(self):
        pts = np.array([[0.1, 0.2], [0.3, -0.4], [0.0, 0.0]])
        phi = vandermonde(pts, 2, 2)
        assert phi.shape == (3, basis_size(2, 2))
        assert np.allclose(phi[:, 0], 1.0)  # constant column first (graded-lex)

    def test_dimension_check(self):
        with pytest.raises(ValidationError):
            vandermonde(np.zeros((2, 3)), 2, 1)


class TestEstimatorTwoPoint:
    def test_hand_solvable_lp(self):
        est = remez_estimate_lp([[-1.0], [0.0]], 1, [[1.0]])
        assert est.value == pytest.approx(3.0, abs=1e-7)
        assert not est.is_infinite
        # the extremal line is P(t) = 2t + 1 up to sign
        w = est.witness_poly
        assert w is not None
        assert abs(eval_poly(w, est.witness_point)) == pytest.approx(3.0, abs=1e-6)
        assert max(abs(w([-1.0])), abs(w([0.0]))) <= 1.0 + 1e-9

    def test_chebyshev_growth_degree2(self):
        zs = np.linspace(-1.0, 0.0, 512).reshape(-1, 1)
        cand = np.linspace(-1.0, 1.0, 1024).reshape(-1, 1)
        est = remez_estimate_lp(zs, 2, cand)
        assert est.value == pytest.approx(17.0, rel=0.05)


class TestEstimatorProperties:
    def test_value_at_least_one(self):
        rng = np.random.default_rng(2)
        zs = rng.uniform(-0.6, 0.6, size=(40, 2))
        cand = rng.uniform(-0.5, 0.5, size=(30, 2))
        est = remez_estimate_lp(zs, 2, cand)
        assert est.value >= 1.0 - 1e-9

    def test_monotone_in_samples_and_candidates(self):
        rng = np.random.default_rng(8)
        zs = rng.uniform(-0.7, 0.7, size=(25, 2))
        extra = rng.uniform(-0.7, 0.7, size=(25, 2))
        cand = rng.uniform(-0.65, 0.65, size=(20, 2))
        more_cand = np.concatenate([cand, rng.uniform(-0.65, 0.65, size=(20, 2))])
        base = remez_estimate_lp(zs, 2, cand).value
        more_constraints = remez_estimate_lp(np.concatenate([zs, extra]), 2, cand).value
        more_candidates = remez_estimate_lp(zs, 2, more_cand).value
        assert more_constraints <= base + 1e-7
        assert more_candidates >= base - 1e-7

    def test_affinely_independent_points_finite(self):
        est = remez_estimate_lp([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]], 1, [[0.9, 0.0]])
        assert not est.is_infinite
        assert math.isfinite(est.value)

    def test_collinear_points_infinite_with_witness(self):
        zs = [[-0.5, -0.5], [0.0, 0.0], [0.5, 0.5]]
        est = remez_estimate_lp(zs, 1, [[0.9, 0.0]])
        assert est.is_infinite
        w = est.witness_poly
        assert w is not None and not w.is_zero()
        onz = max(abs(w(z)) for z in zs)
        assert onz <= 1e-9 * w.coefficient_norm()
        assert inverse_remez(est) == 0.0

    def test_ball_membership_enforced(self):
        with pytest.raises(ValidationError):
            remez_estimate_lp([[1.5, 0.0]], 1, [[0.0, 0.0]])
        with pytest.raises(ValidationError):
            remez_estimate_lp([[0.0, 0.0]], 1, [[1.5, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_rejected(self, bad):
        zs = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
        zs[4, 0] = bad
        with pytest.raises(ValidationError, match=r"^zsamples contains non-finite points$"):
            remez_estimate_lp(zs, 2, np.linspace(-1.0, 1.0, 5).reshape(-1, 1))
        with pytest.raises(ValidationError, match=r"^candidates contains non-finite points$"):
            remez_estimate_lp(np.linspace(-1.0, 1.0, 9), 2, zs)

    def test_solver_failure_raises(self, monkeypatch):
        import scipy.optimize

        failed = scipy.optimize.OptimizeResult(status=4, message="numerical difficulties", nit=0)
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: failed)
        message = r"^LP solver failed with status 4: numerical difficulties$"
        with pytest.raises(SolverError, match=message):
            remez_estimate_lp([[-1.0], [0.0]], 1, [[1.0]])

    def test_unbounded_lp_is_infinite_with_nullspace_witness(self, monkeypatch):
        import scipy.optimize

        unbounded = scipy.optimize.OptimizeResult(status=3, message="unbounded", nit=2)
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: unbounded)
        zs = [[-1.0], [0.0]]
        est = remez_estimate_lp(zs, 1, [[1.0]])
        assert est.is_infinite
        assert inverse_remez(est) == 0.0
        # the witness is the last right singular vector of the sample Vandermonde
        vt = np.linalg.svd(vandermonde(np.array(zs), 1, 1))[2]
        assert est.witness_poly == MultiPoly.from_rows(1, monomials(1, 1), vt[-1])
        assert est.witness_point is None
        assert est.diagnostics["unbounded_at"] == [1.0]
        assert est.diagnostics["lp_solved"] == 1
        assert est.diagnostics["lp_iterations"] == 2


class TestInverseRemez:
    def test_reciprocal(self):
        est = remez_estimate_lp([[-1.0], [0.0]], 1, [[1.0]])
        assert inverse_remez(est) == pytest.approx(1.0 / est.value)
        assert inverse_remez(est) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_value_one(self):
        est = remez_estimate_lp([[-1.0], [1.0]], 1, [[0.0]])
        assert est.value == pytest.approx(1.0, abs=1e-7)
        assert inverse_remez(est) == pytest.approx(1.0, abs=1e-7)
