import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import concentric_ring_config, forcing_ladder, random_poly, regular_polygon, vanishing_ring_poly
from rigidkit import prooftrace
from rigidkit.errors import ValidationError
from rigidkit.geometry import validate_configuration
from rigidkit.poly import MultiPoly, derivatives_of_order, eval_polys
from rigidkit.prooftrace import domain_pigeonhole_report, find_critical_points, perturb_linear

BOX = ((-1.5, -1.5), (1.5, 1.5))


def nine_well_poly() -> MultiPoly:
    # (x^2-1)^2 + (y^2-1)^2
    return MultiPoly(2, {(4, 0): 1.0, (2, 0): -2.0, (0, 4): 1.0, (0, 2): -2.0, (0, 0): 2.0})


def two_ring_poly() -> MultiPoly:
    return vanishing_ring_poly((0.95, 0.55))


def two_ring_config():
    return concentric_ring_config((0.95, 0.55))


def exact_ring_critical_count(p: MultiPoly, t: float) -> int:
    """The number of critical points of p + t(a x + b y), for p = F(x^2 + y^2) and (a, b) a unit vector.

    Every critical point lies on the line along (a, b), at s(a, b) for a real root s of 2s F'(s^2) + t; sympy's
    Sturm count of those roots is exact on the floats' rational values. The float coefficients of p must be
    exactly those of F(x^2 + y^2).
    """
    sp = pytest.importorskip("sympy")
    coefs = {tuple(e): Fraction(c) for e, c in zip(p.exps.tolist(), p.coefs.tolist()) if c}
    f = [coefs.get((2 * k, 0), Fraction(0)) for k in range(p.degree // 2 + 1)]
    assert coefs == {(2 * i, 2 * (k - i)): f[k] * math.comb(k, i) for k in range(len(f)) if f[k] for i in range(k + 1)}
    s = sp.Symbol("s")
    g = 2 * s * sum(k * sp.Rational(f[k]) * s ** (2 * k - 2) for k in range(1, len(f))) + sp.Rational(Fraction(t))
    return sp.Poly(g, s, domain=sp.QQ).count_roots()


class TestFindCriticalPoints:
    def test_single_minimum(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        cps = find_critical_points(p, BOX, 8)
        assert cps.n_clusters == 1
        assert np.allclose(cps.representatives[0], [0.0, 0.0], atol=1e-10)

    def test_saddle(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): -1.0})
        cps = find_critical_points(p, BOX, 8)
        assert cps.n_clusters == 1
        assert np.allclose(cps.representatives[0], [0.0, 0.0], atol=1e-10)

    def test_nine_wells(self):
        cps = find_critical_points(nine_well_poly(), BOX, 24)
        assert cps.n_clusters == 9
        expected = sorted(product((-1.0, 0.0, 1.0), repeat=2))
        got = sorted(map(tuple, cps.representatives))
        for g, e in zip(got, expected):
            assert math.hypot(g[0] - e[0], g[1] - e[1]) <= 1e-6

    def test_gradient_norm_invariant(self):
        cps = find_critical_points(nine_well_poly(), BOX, 24)
        tol = 1e-8 * (1.0 + nine_well_poly().coefficient_norm())
        assert np.all(cps.gradient_norms <= tol)

    def test_cluster_separation_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_poly(2, 4, rng)
            cps = find_critical_points(p, BOX, 12)
            reps = cps.representatives
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    gap = math.hypot(*(reps[i] - reps[j]))
                    assert gap > prooftrace._MERGE_RADIUS

    def test_merge_radius_separates_close_critical_points(self):
        # grad p = (x^2 - delta x, y) vanishes at (0, 0) and (delta, 0), 1.5 merge
        # radii apart: a radius of 2e-6 would merge all 256 seeds into one cluster
        delta = 1.5e-6
        p = MultiPoly(2, {(3, 0): 1.0 / 3.0, (2, 0): -delta / 2.0, (0, 2): 0.5})
        cps = find_critical_points(p, ((-1.0, -1.0), (1.0, 1.0)), 16)
        assert cps.n_clusters == 2
        reps = cps.representatives[np.argsort(cps.representatives[:, 0])]
        assert np.allclose(reps, [[0.0, 0.0], [delta, 0.0]], rtol=0.0, atol=1e-9)

    def test_tilted_degenerate_line_has_no_critical_points(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 1): 1e-6})  # x^2 + 1e-6 y
        cps = find_critical_points(p, BOX, 12)
        assert cps.n_clusters == 0

    def test_constant_has_none(self):
        cps = find_critical_points(MultiPoly.constant(2, 3.0), BOX, 8)
        assert cps.n_clusters == 0
        assert "identically" in cps.diagnostics["note"]

    def test_input_validation(self):
        with pytest.raises(ValidationError, match=r"expected dimension 2, got 1"):
            find_critical_points(MultiPoly(1, {(2,): 1.0}), BOX, 8)
        with pytest.raises(ValidationError):
            find_critical_points(nine_well_poly(), ((1.0, -1.0), (-1.0, 1.0)), 8)
        with pytest.raises(ValidationError):
            find_critical_points(nine_well_poly(), BOX, 1)

    def test_box_needs_four_bounds(self):
        # (a, b) is not a shorthand for the square [a, b]^2
        with pytest.raises(ValidationError, match="box must be"):
            find_critical_points(nine_well_poly(), (0.0, 1.0), 8)

    @pytest.mark.parametrize(
        "box",
        [
            (-1.5, 1.5, -1.5, 1.5),  # the flat (xmin, xmax, ymin, ymax) form is not accepted
            ((-1.5, -1.5), (math.inf, 1.5)),
            ((-1.5, math.nan), (1.5, 1.5)),
            ((1.5, -1.5), (1.5, 1.5)),
            ((-1.5, 1.5), (1.5, -1.5)),
            ((0.0, 0.0), (1.0,)),  # ragged
            (("a", "b"), ("c", "d")),  # not numbers
        ],
    )
    def test_box_must_be_finite_ordered_corners(self, box):
        with pytest.raises(ValidationError, match=r"search box must be finite \(lo, hi\) corners with lo < hi"):
            find_critical_points(nine_well_poly(), box, 8)

    def test_every_seed_is_kept_or_dropped_for_one_reason(self):
        cps = find_critical_points(nine_well_poly(), BOX, 24)
        d = cps.diagnostics
        dropped = d["dropped_singular_hessian"] + d["dropped_left_box"] + d["dropped_gradient_tolerance"]
        assert d["converged"] + dropped == d["seeds"] == 24 * 24
        assert d["converged"] == int(cps.cluster_sizes.sum())
        assert 0 < d["seed_iterations"] < 80 * d["seeds"]

    @pytest.mark.parametrize(
        "terms, box, grid, singular, left, tolerance",
        [
            # x^2 + 1e-6 y: the Hessian is singular everywhere
            ({(2, 0): 1.0, (0, 1): 1e-6}, BOX, 12, 144, 0, 0),
            # x^2 + y^3/3 + y: y^2 + 1 has no real root, so every seed runs off
            ({(2, 0): 1.0, (0, 3): 1.0 / 3.0, (0, 1): 1.0}, BOX, 12, 0, 144, 0),
            # grad = (x^3 - 2x + 2, y): Newton cycles 0 -> 1 -> 0 exactly, and x = -1 jumps to -4
            ({(4, 0): 0.25, (2, 0): -1.0, (1, 0): 2.0, (0, 2): 0.5}, ((-1.0, -1.0), (1.0, 1.0)), 3, 0, 3, 6),
        ],
    )
    def test_drop_reasons_counted(self, terms, box, grid, singular, left, tolerance):
        d = find_critical_points(MultiPoly(2, terms), box, grid).diagnostics
        assert (d["dropped_singular_hessian"], d["dropped_left_box"]) == (singular, left)
        assert (d["dropped_gradient_tolerance"], d["converged"]) == (tolerance, 0)


def off_centre_rings(n: int):
    """n nested 48-gons, each 0.01 further along the diagonal than its parent, and the product of their circles."""
    radii = [0.9 - 0.7 * i / (n - 1) for i in range(n)]
    centres = [(0.01 * i, 0.01 * i) for i in range(n)]
    ovals = [regular_polygon(c, r, 48, i + 1) for i, (c, r) in enumerate(zip(centres, radii))]
    p = MultiPoly.constant(2, 1.0)
    for r, (a, b) in zip(radii, centres):
        p = p * MultiPoly(2, {(2, 0): 1.0, (1, 0): -2 * a, (0, 2): 1.0, (0, 1): -2 * b, (0, 0): a * a + b * b - r * r})
    return p, validate_configuration(ovals)


class TestSettledSeeds:
    """Newton stops evaluating a seed once its step falls under _STEP_FLOOR, with the same results."""

    @staticmethod
    def assert_same_points(frozen, full):
        assert np.array_equal(frozen["cluster_sizes"], full["cluster_sizes"])
        assert np.allclose(frozen["representatives"], full["representatives"], rtol=0.0, atol=1e-12)

    def test_nine_wells_match_unfrozen_run(self, monkeypatch):
        frozen = find_critical_points(nine_well_poly(), BOX, 24)
        monkeypatch.setattr(prooftrace, "_STEP_FLOOR", 0.0)
        full = find_critical_points(nine_well_poly(), BOX, 24)
        assert frozen.n_clusters == full.n_clusters == 9
        self.assert_same_points(frozen.to_json_dict(), full.to_json_dict())
        assert frozen.diagnostics["seed_iterations"] < full.diagnostics["seed_iterations"]

    def test_three_rings_match_unfrozen_run(self, monkeypatch):
        # the verify-proof-rings golden: radii 0.25, 0.5, 0.75 at seed grid 24
        p, config = vanishing_ring_poly((0.25, 0.5, 0.75)), concentric_ring_config((0.25, 0.5, 0.75))
        frozen = domain_pigeonhole_report(p, config, newton_grid=24)
        monkeypatch.setattr(prooftrace, "_STEP_FLOOR", 0.0)
        full = domain_pigeonhole_report(p, config, newton_grid=24)
        assert frozen["critical_points"]["n_clusters"] == full["critical_points"]["n_clusters"] > 0
        self.assert_same_points(frozen["critical_points"], full["critical_points"])
        assert frozen["assignments"] == full["assignments"]
        assert [e["flagged"] for e in frozen["domains"]] == [e["flagged"] for e in full["domains"]]

    def test_degenerate_critical_point_settles_before_its_hessian_turns_singular(self, monkeypatch):
        # x^3 + y^2: Newton halves x each step, so the Hessian determinant 12x shrinks only linearly
        cusp, box = MultiPoly(2, {(3, 0): 1.0, (0, 2): 1.0}), ((-1.0, -1.0), (1.0, 1.0))
        cps = find_critical_points(cusp, box, 9)
        assert cps.n_clusters == 1 and np.allclose(cps.representatives, [[0.0, 0.0]], rtol=0.0, atol=1e-12)
        # the 9 seeds on x = 0 start singular; without the floor the other 72 follow them
        assert cps.diagnostics["dropped_singular_hessian"] == 9 and cps.diagnostics["converged"] == 72
        monkeypatch.setattr(prooftrace, "_STEP_FLOOR", 0.0)
        assert find_critical_points(cusp, box, 9).diagnostics["dropped_singular_hessian"] == 81

    def test_off_centre_rings_settle_within_a_third_of_the_iterations(self):
        p, config = off_centre_rings(4)
        report = domain_pigeonhole_report(p, config, newton_grid=48)
        assert report["critical_points"]["n_clusters"] == 7
        assert report["bezout"]["verdict"] == "consistent"
        d = report["critical_points"]["diagnostics"]
        assert d["seeds"] == 48 * 48
        assert d["seed_iterations"] <= 80 * d["seeds"] / 3


def masked_newton_reference(p: MultiPoly, box, grid: int):
    """The former Newton loop, which masks every seed each iteration, and point-by-point clustering.

    Kept as an oracle for ``find_critical_points``, with the same settling
    rule: a seed whose step is at most 1e-13 * (1 + |x| + |y|) freezes.
    Returns its representatives, gradient norms, cluster sizes and
    diagnostics.
    """
    (xmin, ymin), (xmax, ymax) = box
    (_, gy), (_, gx) = derivatives_of_order(p, 1)
    (_, hyy), (_, hxy), (_, hxx) = derivatives_of_order(p, 2)
    grad_tol = 1e-8 * (1.0 + p.coefficient_norm())
    diagnostics = {
        "seeds": grid * grid,
        "converged": 0,
        "dropped_singular_hessian": 0,
        "dropped_left_box": 0,
        "dropped_gradient_tolerance": 0,
        "seed_iterations": 0,
    }

    def empty(note):
        return np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=np.int64), {**diagnostics, "note": note}

    gxs, gys = np.meshgrid(np.linspace(xmin, xmax, grid), np.linspace(ymin, ymax, grid), indexing="ij")
    pts = np.stack([gxs.ravel(), gys.ravel()], axis=1)
    alive = np.ones(len(pts), dtype=bool)
    frozen = np.zeros(len(pts), dtype=bool)
    pad_x, pad_y = 0.5 * (xmax - xmin) + 1.0, 0.5 * (ymax - ymin) + 1.0
    lo, hi = np.array([xmin - pad_x, ymin - pad_y]), np.array([xmax + pad_x, ymax + pad_y])
    # dropped and frozen seeds stay where they stopped and are still evaluated, so they may overflow
    with np.errstate(all="ignore"):
        for _ in range(80):
            diagnostics["seed_iterations"] += int(np.count_nonzero(alive))
            gv1, gv2, a, b, c = eval_polys((gx, gy, hxx, hxy, hyy), [pts[:, 0], pts[:, 1]])
            det = a * c - b * b
            scale = np.abs(a) + np.abs(b) + np.abs(c)
            ok = alive & (np.abs(det) > 1e-14 * np.maximum(1.0, scale * scale))
            diagnostics["dropped_singular_hessian"] += int(np.count_nonzero(alive & ~ok))
            step_x = np.where(ok, (c * gv1 - b * gv2) / np.where(ok, det, 1.0), 0.0)
            step_y = np.where(ok, (a * gv2 - b * gv1) / np.where(ok, det, 1.0), 0.0)
            pts[:, 0] -= step_x
            pts[:, 1] -= step_y
            inside = ok & np.all(np.isfinite(pts), axis=1)
            inside &= np.all(pts >= lo, axis=1) & np.all(pts <= hi, axis=1)
            diagnostics["dropped_left_box"] += int(np.count_nonzero(ok & ~inside))
            small = np.abs(step_x) + np.abs(step_y) <= 1e-13 * (1.0 + np.abs(pts[:, 0]) + np.abs(pts[:, 1]))
            frozen |= inside & small
            alive = inside & ~small
            if not np.any(alive):
                break
    kept = alive | frozen
    if not np.any(kept):
        return empty("no seed converged")
    cand = pts[kept]
    gn = np.hypot(*eval_polys((gx, gy), [cand[:, 0], cand[:, 1]]))
    keep = gn <= grad_tol
    diagnostics["dropped_gradient_tolerance"] = int(np.count_nonzero(~keep))
    cand, gn = cand[keep], gn[keep]
    if len(cand) == 0:
        return empty("no seed reached the gradient tolerance")
    diagnostics["converged"] = int(len(cand))
    order = np.lexsort((cand[:, 1], cand[:, 0]))
    reps, rep_gn, sizes = [], [], []
    for point, g in zip(cand[order], gn[order]):
        for i, r in enumerate(reps):
            if np.hypot(point[0] - r[0], point[1] - r[1]) <= 1e-6:
                sizes[i] += 1
                break
        else:
            reps.append(point)
            rep_gn.append(float(g))
            sizes.append(1)
    diagnostics["gradient_tolerance"] = grad_tol
    return np.array(reps), np.array(rep_gn), np.array(sizes, dtype=np.int64), diagnostics


def assert_matches_reference(p: MultiPoly, box, grid: int) -> int:
    """Assert bit-identity with the reference; return the cluster count."""
    cps = find_critical_points(p, box, grid)
    reps, gns, sizes, diagnostics = masked_newton_reference(p, box, grid)
    assert np.array_equal(cps.representatives, reps)
    assert np.array_equal(cps.gradient_norms, gns)
    assert np.array_equal(cps.cluster_sizes, sizes)
    assert cps.diagnostics == diagnostics
    return cps.n_clusters


class TestNewtonReference:
    def test_nine_wells_bit_identical(self):
        assert assert_matches_reference(nine_well_poly(), BOX, 24) == 9

    def test_random_tilted_polys_bit_identical(self):
        rng = np.random.default_rng(41)
        clustered = 0
        for _ in range(100):
            p = perturb_linear(random_poly(2, int(rng.integers(2, 7)), rng), 1e-6)
            x0, y0 = rng.uniform(-1.5, 0.5, size=2)
            box = ((x0, y0), (x0 + rng.uniform(0.2, 2.5), y0 + rng.uniform(0.2, 2.5)))
            clustered += assert_matches_reference(p, box, int(rng.integers(8, 33))) > 0
        # most boxes hold a critical point, so the comparison is rarely between two empty sets
        assert clustered >= 50


class TestPerturbation:
    def test_gradient_never_vanishes_after_tilt(self):
        q = perturb_linear(MultiPoly(2, {(2, 0): 1.0}), 1e-6)
        cps = find_critical_points(q, BOX, 16)
        assert cps.n_clusters == 0

    def test_zero_eps_rejected(self):
        with pytest.raises(ValidationError, match="perturbation size must be positive, got 0.0"):
            perturb_linear(MultiPoly(2, {(2, 0): 1.0}), 0.0)

    def test_shifted_quadratic_minimizer(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        (a, b), eps = prooftrace._TILT, 1e-3
        q = perturb_linear(p, eps)
        cps = find_critical_points(q, BOX, 8)
        assert cps.n_clusters == 1
        expected = (-eps * a / 2.0, -eps * b / 2.0)
        assert math.hypot(*(cps.representatives[0] - expected)) <= 1e-5

    @pytest.mark.parametrize("norm, eps", [(0.0, 1e-6), (0.25, 1e-6), (0.25, 1e-3), (1.0, 1e-4), (4.0, 1e-3)])
    def test_tilt_size_is_eps_times_norm_floored_at_one(self, norm, eps, monkeypatch):
        p = MultiPoly(2, {(2, 0): norm})
        assert p.coefficient_norm() == norm
        monkeypatch.setattr(prooftrace, "_TILT_EPS", eps)
        report = domain_pigeonhole_report(p, two_ring_config(), newton_grid=4)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        direction = [1.0 / math.hypot(1.0, golden), golden / math.hypot(1.0, golden)]
        assert report["perturbation"] == {"direction": direction, "eps": eps * max(norm, 1.0)}
        assert math.hypot(*direction) == 1.0

    @pytest.mark.xfail(
        strict=True,
        reason="the tilt splits a circle of critical points into two, but Newton on the degenerate ring product "
        "still counts extra clusters; ROADMAP item 3 asks for certified counts of 2N-1",
    )
    @pytest.mark.parametrize(
        "radii, grid", [((0.2, 0.4, 0.6, 0.8), 24), ((0.25, 0.5, 0.75), 48), ((0.95, 0.65, 0.35), 24)]
    )
    def test_tilted_concentric_rings_leave_2n_minus_1_clusters(self, radii, grid):
        # the product of N concentric rings has the centre and N - 1 circles of critical points;
        # the tilt leaves the centre and two points on each circle
        report = domain_pigeonhole_report(vanishing_ring_poly(radii), concentric_ring_config(radii), grid)
        assert report["critical_points"]["n_clusters"] == 2 * len(radii) - 1

    @pytest.mark.parametrize("n", [3, 6, pytest.param(10, marks=pytest.mark.xfail(
        strict=True,
        reason="on 10 ladder rings the tilt of 4.4e-4 leaves 3 clusters, and 8 of the 10 domains (at grids 24 and 48 "
        "alike) report no critical point; ROADMAP items 11(d) and 12 ask for a tilt size the margins certify",
    ))])
    def test_tilted_ring_ladder_keeps_a_critical_point_in_every_domain(self, n):
        # the untilted product has a circle of critical points between each pair of rings and one at the centre
        radii = [0.95 * (n - i) / n for i in range(n)]
        report = domain_pigeonhole_report(vanishing_ring_poly(radii), concentric_ring_config(radii, sides=48), 24)
        assert all(entry["has_critical_point"] for entry in report["domains"])

    @pytest.mark.parametrize(
        "radii, count", [((0.25, 0.5, 0.75), 5), ((0.2, 0.4, 0.6, 0.8), 7), ((0.95, 0.55), 3), ((0.95, 0.65, 0.35), 5)]
    )
    def test_exact_count_on_tilted_concentric_rings_is_2n_minus_1(self, radii, count):
        p = vanishing_ring_poly(radii)
        assert exact_ring_critical_count(p, prooftrace._TILT_EPS * max(p.coefficient_norm(), 1.0)) == count

    @pytest.mark.parametrize("radii", [(0.25, 0.5, 0.75), (0.95, 0.55)])
    def test_report_count_on_concentric_rings_is_exact(self, radii):
        p = vanishing_ring_poly(radii)
        report = domain_pigeonhole_report(p, concentric_ring_config(radii), 24)
        assert report["critical_points"]["n_clusters"] == exact_ring_critical_count(p, report["perturbation"]["eps"])

    def test_critical_points_stable_under_eps_halving(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(10):
            p = random_poly(2, 3, rng)
            eps0 = prooftrace._TILT_EPS * max(p.coefficient_norm(), 1.0)
            full = find_critical_points(perturb_linear(p, eps0), BOX, 16)
            half = find_critical_points(perturb_linear(p, eps0 / 2.0), BOX, 16)
            for rep in full.representatives:
                gaps = [math.hypot(*(rep - other)) for other in half.representatives]
                assert gaps and min(gaps) <= 1e-4
                checked += 1
        assert checked > 0


class TestBezout:
    GOLDEN_RINGS = (0.25, 0.5, 0.75)

    def golden_rings_bezout(self, grid: int) -> dict:
        radii = self.GOLDEN_RINGS
        return domain_pigeonhole_report(vanishing_ring_poly(radii), concentric_ring_config(radii), grid)["bezout"]

    def test_consistent_verdicts(self):
        bezout = self.golden_rings_bezout(24)
        assert bezout == {"degree": 6, "bound": 25, "n_clusters": 5, "verdict": "consistent", "note": None}

    def test_small_cases(self):
        # x^2 + y^2, x^3 - 3x + y^2 and the nine wells: degrees 2, 3 and 4 with 1, 2 and 9 critical points
        cubic = MultiPoly(2, {(3, 0): 1.0, (1, 0): -3.0, (0, 2): 1.0})
        for p, d, n in ((MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0}), 2, 1), (cubic, 3, 2), (nine_well_poly(), 4, 9)):
            bezout = domain_pigeonhole_report(p, two_ring_config(), 24)["bezout"]
            assert bezout == {"degree": d, "bound": (d - 1) ** 2, "n_clusters": n, "verdict": "consistent", "note": None}

    def test_degree_six_bound_is_25(self):
        bezout = domain_pigeonhole_report(MultiPoly(2, {(6, 0): 1.0, (0, 2): 1.0}), two_ring_config(), 8)["bezout"]
        assert (bezout["degree"], bezout["bound"]) == (6, 25)

    def test_degree_zero_refused(self):
        # the tilt of size 1e-6 along (a, b) cancels the linear terms of 1 - 1e-6 (a x + b y)
        a, b = prooftrace._TILT
        p = MultiPoly(2, {(0, 0): 1.0, (1, 0): -1e-6 * a, (0, 1): -1e-6 * b})
        with pytest.raises(ValidationError, match=r"^the tilt of size 1e-06 cancels every non-constant term of p$"):
            domain_pigeonhole_report(p, two_ring_config(), 8)

    def test_violation_labeled_numerical(self):
        # at grid 200 Newton splits the 5 critical points of the tilted ring product into 50 clusters
        bezout = self.golden_rings_bezout(200)
        assert (bezout["n_clusters"], bezout["verdict"]) == (50, "violation")
        assert "numerical" in bezout["note"]

    def test_random_perturbed_polys_within_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            p = random_poly(2, d, rng)
            q = perturb_linear(p, 1e-6)
            cps = find_critical_points(q, ((-1.2, -1.2), (1.2, 1.2)), 10)
            assert cps.n_clusters <= (d - 1) ** 2


class TestPigeonhole:
    def test_two_ring_fixture(self):
        report = domain_pigeonhole_report(two_ring_poly(), two_ring_config(), newton_grid=48)
        flagged = [e for e in report["domains"] if e["flagged"]]
        assert len(flagged) == 2
        for entry in flagged:
            assert entry["has_critical_point"]
        assert report["confinement_violations"] == []
        assert report["bezout"]["verdict"] == "consistent"

    def test_constant_poly(self):
        report = domain_pigeonhole_report(MultiPoly.constant(2, 1.0), two_ring_config(), newton_grid=48)
        assert all(not e["flagged"] for e in report["domains"])
        assert report["critical_points"]["n_clusters"] == 0

    def test_linear_form(self):
        p = MultiPoly(2, {(1, 0): 0.3, (0, 1): 0.2})
        report = domain_pigeonhole_report(p, two_ring_config(), newton_grid=48)
        assert report["critical_points"]["n_clusters"] == 0
        assert all(not e["flagged"] for e in report["domains"])

    def test_ulp_ties_at_the_own_ring_are_no_flag(self):
        # on the 10-ring ladder, this quartic's lattice maxima in domains 2, 3, 4 and 9 are at (-r, 0), a vertex of
        # the domain's own outer ring, where they beat the boundary samples by an ulp; Newton finds a critical
        # point in domain 3 only
        p, config = forcing_ladder(4, 4)
        domains = domain_pigeonhole_report(p, config, 24)["domains"]
        ties = [e["oval_id"] for e in domains if e["interior_max"] > e["boundary_max"]]
        assert ties == [2, 3, 4, 9]
        assert [e["flagged"] for e in domains] == [False] * 10
        assert all(type(e["flagged"]) is bool for e in domains)

    @staticmethod
    def coarse_and_fine(monkeypatch) -> list[dict]:
        """Two-ring reports at 128 boundary samples and a 17-point lattice, then at 256 and 33."""
        reports = []
        for samples, grid in ((128, 17), (256, 33)):
            monkeypatch.setattr(prooftrace, "_BOUNDARY_SAMPLES", samples)
            monkeypatch.setattr(prooftrace, "_INTERIOR_GRID", grid)
            reports.append(domain_pigeonhole_report(two_ring_poly(), two_ring_config(), newton_grid=48))
        return reports

    def test_flags_monotone_under_sample_doubling(self, monkeypatch):
        coarse, fine = self.coarse_and_fine(monkeypatch)
        for a, b in zip(coarse["domains"], fine["domains"]):
            assert a["oval_id"] == b["oval_id"]
            if a["flagged"]:
                assert b["flagged"]

    def test_interior_and_boundary_maxima_grow(self, monkeypatch):
        coarse, fine = self.coarse_and_fine(monkeypatch)
        for a, b in zip(coarse["domains"], fine["domains"]):
            assert b["boundary_max"] >= a["boundary_max"] - 1e-15
            if a["interior_max"] is not None:
                assert b["interior_max"] >= a["interior_max"] - 1e-15

    def test_unconfined_maximum_is_a_violation(self):
        # the maximum of 1 - x^2 - y^2 sits at the origin, outside the only domain, and beats its boundary
        config = validate_configuration([regular_polygon((0.5, 0.0), 0.2, 48)])
        cap = MultiPoly(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
        report = domain_pigeonhole_report(cap, config, newton_grid=48)
        assert report["assignments"] == [None]
        assert report["confinement_violations"] == [0]
        assert report["global_boundary_max"] == pytest.approx(0.91, abs=1e-6)

    def test_unconfined_minimum_is_not_a_violation(self):
        config = validate_configuration([regular_polygon((0.5, 0.0), 0.2, 48)])
        report = domain_pigeonhole_report(MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0}), config, newton_grid=48)
        assert report["assignments"] == [None]
        assert report["confinement_violations"] == []

    def test_each_oval_sampled_and_evaluated_once(self, monkeypatch):
        calls = {"sample": 0, "eval": 0}
        sample, evaluate = prooftrace.sample_boundary, prooftrace.eval_poly

        def counted_sample(config, count):
            calls["sample"] += 1
            pts = sample(config, count)
            calls["samples"] = len(pts)
            return pts

        def counted_eval(p, x):
            calls["eval"] += 1
            return evaluate(p, x)

        monkeypatch.setattr(prooftrace, "sample_boundary", counted_sample)
        monkeypatch.setattr(prooftrace, "eval_poly", counted_eval)
        report = domain_pigeonhole_report(two_ring_poly(), two_ring_config(), newton_grid=48)
        # one call samples both ovals
        assert calls["sample"] == 1 and calls["samples"] == 2 * prooftrace._BOUNDARY_SAMPLES
        # the boundary, one interior lattice per domain, and the unassigned critical points
        assert calls["eval"] == 1 + len(report["domains"]) + 1

    def test_report_json_shape(self):
        data = domain_pigeonhole_report(two_ring_poly(), two_ring_config(), newton_grid=48)
        assert {"degree", "perturbation", "bezout", "critical_points", "domains"} <= set(data)
        assert all({"oval_id", "boundary_max", "interior_max", "flagged"} <= set(e) for e in data["domains"])


class TestForcingRegime:
    """A random degree-d p on (d-1)^2 + 1 rings: one more domain than p has isolated critical points."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_pigeonhole_leaves_domains_without_critical_point(self, d, seed):
        p, config = forcing_ladder(d, seed)
        report = domain_pigeonhole_report(p, config, 24)
        if report["bezout"]["verdict"] == "consistent":
            assert report["pigeonhole_forced"]
            assert report["n_without_critical_point"] >= config.N - (d - 1) ** 2
