import math

import numpy as np
import pytest

from conftest import concentric_ring_config, square
from rigidkit import remez
from rigidkit.cli import _boundary_samples, _candidate_grid
from rigidkit.errors import SolverError, ValidationError
from rigidkit.geometry import validate_configuration
from rigidkit.poly import basis_size, eval_poly
from rigidkit.remez import inverse_remez, remez_estimate_lp, vandermonde
from rigidkit.rigidity import ovals_required, remez_bound_topological


class TestTopologicalBound:
    def test_plane_substitution(self):
        assert remez_bound_topological(2.0, 3) == pytest.approx(64.0)

    def test_unit_value(self):
        assert remez_bound_topological(8.0, 1) == pytest.approx(1.0)

    def test_oval_count_hypothesis(self):
        # the degree-6 formula value; whether 26 ovals are present is judged by the reports
        assert remez_bound_topological(1.0, 6) == pytest.approx(8.0**6)

    def test_ovals_required(self):
        assert [ovals_required(d) for d in (1, 2, 3, 6)] == [1, 2, 5, 26]
        with pytest.raises(ValidationError, match=r"degree must be >= 0, got -1"):
            ovals_required(-1)

    def test_mu_positive(self):
        with pytest.raises(ValidationError, match=r"minimal domain area must be positive"):
            remez_bound_topological(0.0, 2)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValidationError, match=r"degree must be >= 0, got -1"):
            remez_bound_topological(1.0, -1)

    @pytest.mark.parametrize("mu, d", [(4e-18, 18), (4e-320, 1)])
    def test_overflow_rejected(self, mu, d):
        # the power overflows at the first pair; 8/mu is already infinite at the second
        with pytest.raises(ValidationError, match=r"^bound \(4n/mu\)\^d overflows a double"):
            remez_bound_topological(mu, d)


class TestVandermonde:
    def test_shape_and_columns(self):
        pts = np.array([[0.1, 0.2], [0.3, -0.4], [0.0, 0.0]])
        phi = vandermonde(pts, 2)
        assert phi.shape == (3, basis_size(2, 2))
        assert np.allclose(phi[:, 0], 1.0)  # constant column first (graded-lex)


class TestEstimatorTwoPoint:
    def test_hand_solvable_lp(self):
        est = remez_estimate_lp([[-1.0], [0.0]], 1, [[1.0]])
        assert est.value == pytest.approx(3.0, abs=1e-7)
        assert not est.is_infinite
        # the extremal line is P(t) = 2t + 1 up to sign
        w = est.witness_poly
        assert w is not None
        assert abs(eval_poly(w, est.witness_point)) == pytest.approx(3.0, abs=1e-6)
        assert max(abs(eval_poly(w, [-1.0])), abs(eval_poly(w, [0.0]))) <= 1.0 + 1e-9

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
        onz = max(abs(eval_poly(w, z)) for z in zs)
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
        # a cubic on 16 points of [-1, 0] needs at least one pivot from its cold start
        monkeypatch.setattr(remez, "_PIVOT_CAP", 0)
        with pytest.raises(SolverError, match=r"^LP solver reached no optimal basis within 0 pivots$"):
            remez_estimate_lp(np.linspace(-1.0, 0.0, 16), 3, np.linspace(-1.0, 1.0, 9))

    def test_infeasible_start_is_repaired_by_dual_steps(self):
        # samples -1, 0, 1 at degree 1: the basis {P(-1) = 1, P(0) = -1} prices
        # optimal for psi = (0, -1), but its P = -1 - 2t has |P(1)| = 3; dual
        # steps reach max -c1 = 1 at P = -t
        phi = vandermonde(np.array([[-1.0], [0.0], [1.0]]), 1)
        psi = np.array([0.0, -1.0])
        rows, signs, c, pivots, binv = remez._simplex(phi, psi, np.array([0, 1]), np.array([1.0, -1.0]), -np.inf)
        assert psi @ c == pytest.approx(1.0, abs=1e-12)
        assert np.abs(phi @ c).max() <= 1.0 + 1e-12
        assert pivots >= 1
        assert binv @ (signs[:, None] * phi[rows]) == pytest.approx(np.eye(2), abs=1e-12)

    @pytest.mark.parametrize("cutoff", [2.0, 3.0])
    def test_start_basis_under_cutoff_stops_at_once(self, cutoff):
        # the same start basis has weights y = (1, 1): its bound 2 is at or
        # below the cutoff, so the run stops before any step, with no vertex
        phi = vandermonde(np.array([[-1.0], [0.0], [1.0]]), 1)
        start = np.array([0, 1]), np.array([1.0, -1.0])
        rows, signs, c, pivots, binv = remez._simplex(phi, np.array([0.0, -1.0]), *start, cutoff)
        assert c is None and pivots == 0
        assert np.array_equal(rows, start[0]) and np.array_equal(signs, start[1])
        assert binv == pytest.approx(np.linalg.inv(start[1][:, None] * phi[start[0]]), abs=1e-15)

    def test_ratio_test_without_a_pivot_row_raises(self):
        with pytest.raises(SolverError, match=r"^LP ratio test found no row to pivot on$"):
            remez._ratio(np.ones(3), np.array([0.0, -1.0, 0.0]), np.eye(3))

    def test_ratio_test_breaks_ties_lexicographically(self):
        # rows 0-2 tie at ratio 0, with keys lex[:, r] / den[r] of (1, 0, 0),
        # (1, -1, 0) and (1, 1, -2): row 1 is the least, not row 2 of the
        # largest den nor row 0 of the lowest index; row 3's key is less
        # still, but its ratio is 1
        num = np.array([0.0, 0.0, 0.0, 1.0])
        den = np.array([1.0, 2.0, 4.0, 1.0])
        lex = np.array([[1.0, 2.0, 4.0, 0.0], [0.0, -2.0, 4.0, -5.0], [0.0, 0.0, -8.0, 0.0]])
        assert remez._ratio(num, den, lex) == 1

    def test_dense_collinear_samples_infinite_with_witness(self):
        # 8192 samples of the line y = x at degree 4 (m = 15): the rank test
        # reports infinite without an 8192 x 8192 factor
        t = np.linspace(-0.7, 0.7, 8192)
        zs = np.column_stack([t, t])
        est = remez_estimate_lp(zs, 4, [[0.9, 0.0]])
        assert est.is_infinite
        assert est.witness_point is None
        w = est.witness_poly
        assert not w.is_zero()
        assert np.abs(eval_poly(w, [zs[:, 0], zs[:, 1]])).max() <= 1e-9 * w.coefficient_norm()


def _recorded_lps(zsamples, d, candidates):
    """The estimate and every LP it started, as (phi, psi, cutoff, rows, signs, c, pivots, binv); c is None if stopped."""
    lps = []
    solve = remez._simplex

    def record(phi, psi, rows, signs, cutoff):
        out = solve(phi, psi, rows, signs, cutoff)
        lps.append((phi, psi, cutoff, *out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(remez, "_simplex", record)
        est = remez_estimate_lp(zsamples, d, candidates)
    return est, lps


def _golden_inputs(case):
    """Samples, degree and candidates of the LP goldens (see test_golden.py)."""
    if case == "remez-lp-halfline":
        ts = np.array([float(f"{t:.12f}") for t in np.linspace(-1.0, 0.0, 64)])
        return ts[:, None], 2, _candidate_grid(1, 64)
    # remez-lp-annulus and rigidity-annulus solve the same LPs
    config = validate_configuration([square(math.sqrt(2.0), 1), square(1.0, 2)])
    return _boundary_samples(config, 32), 2, _candidate_grid(2, 16)


@pytest.fixture(scope="module")
def ladder10_lps():
    """The 10-ring ladder of concentric 48-gons at degree 4: 64 samples per ring, grid 24."""
    config = concentric_ring_config([0.95 * (10 - i) / 10 for i in range(10)])
    return _recorded_lps(_boundary_samples(config, 64), 4, _candidate_grid(2, 24))


def _assert_matches_highs(lps):
    """Optimal LPs match HiGHS; a stopped LP's optimum and its basis weights are at most its cutoff."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    for phi, psi, cutoff, rows, signs, c, *_ in lps:
        res = linprog(-psi, A_ub=np.vstack([phi, -phi]), b_ub=np.ones(2 * len(phi)), bounds=(None, None), method="highs")
        assert res.status == 0
        if c is None:
            assert -res.fun <= cutoff * (1.0 + 1e-9)
            assert np.abs(np.linalg.solve((signs[:, None] * phi[rows]).T, psi)).sum() <= cutoff
        else:
            assert psi @ c == pytest.approx(-res.fun, rel=1e-9, abs=0.0)


class TestSimplexAgainstHighs:
    """HiGHS, through scipy, is a test-only oracle for every LP the simplex solves."""

    @pytest.mark.parametrize("case", ["remez-lp-halfline", "remez-lp-annulus"])
    def test_golden_inputs(self, case):
        est, lps = _recorded_lps(*_golden_inputs(case))
        assert len(lps) == est.diagnostics["lp_solved"] > 0
        _assert_matches_highs(lps)

    def test_ten_ring_ladder(self, ladder10_lps):
        est, lps = ladder10_lps
        assert len(lps) == est.diagnostics["lp_solved"] > 50
        assert est.diagnostics["lp_stopped"] > 0
        _assert_matches_highs(lps)


class TestSimplexCertificate:
    def test_symmetric_ladder_certified_under_cap(self, ladder10_lps):
        # concentric regular 48-gons make many vertices degenerate
        est, lps = ladder10_lps
        optima = [lp for lp in lps if lp[5] is not None]
        assert all(lp[6] < remez._PIVOT_CAP for lp in lps)
        for phi, psi, _, rows, signs, c, *_ in optima:
            y = np.linalg.solve((signs[:, None] * phi[rows]).T, psi)
            assert np.abs(phi @ c).max() <= 1.0 + 1e-9
            assert y.min() >= -1e-9 * np.abs(y).max()
            assert y.sum() == pytest.approx(psi @ c, rel=1e-9)
        assert est.value == max(psi @ c for _, psi, _, _, _, c, *_ in optima)
        assert est.diagnostics["lp_stopped"] == len(lps) - len(optima)
        assert est.diagnostics["lp_iterations"] == sum(lp[6] for lp in lps)

    def test_full_sweep_of_ten_ring_ladder_finishes_every_lp(self, ladder10_lps):
        # every candidate from the spread basis with no cutoff, so no stop hides a slow LP
        est, lps = ladder10_lps
        phi, psi = lps[0][0], vandermonde(_candidate_grid(2, 24), 4)
        start = remez._spread_rows(phi), np.ones(phi.shape[1])
        runs = [remez._simplex(phi, p, *start, -np.inf) for p in psi]
        assert len(runs) == est.diagnostics["n_candidates"] == 408
        assert max(run[3] for run in runs) < 1000
        best = max(p @ run[2] for p, run in zip(psi, runs))
        assert best == pytest.approx(est.value, rel=1e-12, abs=0.0)

    def test_no_cutoff_always_reaches_a_certified_optimum(self):
        # from every basis the estimate returned, stopped ones too, each candidate runs to an optimum
        zsamples, d, candidates = _scattered_inputs()
        _, lps = _recorded_lps(zsamples, d, candidates)
        phi, psi = vandermonde(zsamples, d), vandermonde(candidates, d)
        for _, _, _, rows, signs, *_ in lps:
            for p in psi[::6]:
                _, _, c, _, binv = remez._simplex(phi, p, rows, signs, -np.inf)
                assert c is not None
                y = p @ binv
                assert np.abs(phi @ c).max() <= 1.0 + 1e-9
                assert y.min() >= -1e-9 * np.abs(y).max()
                assert y.sum() == pytest.approx(p @ c, rel=1e-9)

    @pytest.mark.parametrize("count, d", [(8192, 6), (2048, 10)])
    def test_dense_halfline_meets_chebyshev(self, count, d):
        # T_d(2t + 1) is feasible on samples of [-1, 0] and is T_d(3) at t = 1,
        # so the estimate at candidate 1 is at least T_d(3), and barely more
        # on dense samples; dual steps from spread rows take few pivots
        cheb = {6: 19601.0, 10: 22619537.0}[d]
        est = remez_estimate_lp(np.linspace(-1.0, 0.0, count), d, [[1.0]])
        assert cheb * (1.0 - 1e-9) <= est.value <= cheb * (1.0 + 1e-4)
        assert est.diagnostics["lp_iterations"] < 100


def _scattered_inputs():
    """40 random samples of the annulus 0.3 <= |x| <= 0.9 and 60 random candidates, degree 3."""
    rng = np.random.default_rng(4)
    r, theta = rng.uniform(0.3, 0.9, 40), rng.uniform(0.0, 2.0 * np.pi, 40)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)]), 3, rng.uniform(-0.7, 0.7, (60, 2))


class TestPruningMatchesFullSweep:
    """The basis-weight pruning and the stop rule return exactly the max of solving every candidate."""

    @pytest.mark.parametrize(
        "inputs",
        [
            _golden_inputs("remez-lp-annulus"),
            (
                _boundary_samples(concentric_ring_config([0.95 * (5 - i) / 5 for i in range(5)]), 64),
                3,
                _candidate_grid(2, 24),
            ),
            # here the first LP is not the max, so an unsound bound prunes the maximiser
            _scattered_inputs(),
        ],
        ids=["remez-lp-annulus", "ladder5-d3", "scattered-d3"],
    )
    def test_estimate_is_max_of_every_lp(self, inputs):
        zsamples, d, candidates = inputs
        est, lps = _recorded_lps(zsamples, d, candidates)
        phi, psi = vandermonde(zsamples, d), vandermonde(candidates, d)
        start = remez._spread_rows(phi), np.ones(phi.shape[1])
        values = np.array([p @ remez._simplex(phi, p, *start, -np.inf)[2] for p in psi])
        optimal = {lp[1].tobytes() for lp in lps if lp[5] is not None}
        unsolved = np.array([p.tobytes() not in optimal for p in psi])
        diag = est.diagnostics
        assert diag["lp_solved"] + diag["pruned"] == diag["n_candidates"] == len(psi)
        assert diag["lp_solved"] == len(lps) and diag["pruned"] > 0
        assert unsolved.sum() == diag["pruned"] + diag["lp_stopped"]
        assert est.value == pytest.approx(values.max(), rel=1e-9, abs=0.0)
        assert values[unsolved].max() <= est.value * (1.0 + 1e-9)
        # every basis a run returns, optimal or stopped, bounds P at every candidate by its weights
        for *_, binv in lps:
            assert np.all(np.abs(psi @ binv).sum(axis=1) >= values * (1.0 - 1e-9))


class TestInverseRemez:
    def test_reciprocal(self):
        est = remez_estimate_lp([[-1.0], [0.0]], 1, [[1.0]])
        assert inverse_remez(est) == pytest.approx(1.0 / est.value)
        assert inverse_remez(est) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_value_one(self):
        est = remez_estimate_lp([[-1.0], [1.0]], 1, [[0.0]])
        assert est.value == pytest.approx(1.0, abs=1e-7)
        assert inverse_remez(est) == pytest.approx(1.0, abs=1e-7)
