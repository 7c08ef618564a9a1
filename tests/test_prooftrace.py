import math
from itertools import product

import numpy as np
import pytest

from conftest import concentric_ring_config, vanishing_ring_poly
from rigidkit import prooftrace
from rigidkit.errors import ValidationError
from rigidkit.geometry import regular_polygon, validate_configuration
from rigidkit.poly import MultiPoly, eval_polys, partial_derivative, random_poly
from rigidkit.prooftrace import (
    bezout_check,
    default_perturbation,
    domain_pigeonhole_report,
    find_critical_points,
    perturb_linear,
)

BOX = (-1.5, 1.5, -1.5, 1.5)


def nine_well_poly() -> MultiPoly:
    # (x^2-1)^2 + (y^2-1)^2
    return MultiPoly(2, {(4, 0): 1.0, (2, 0): -2.0, (0, 4): 1.0, (0, 2): -2.0, (0, 0): 2.0})


def two_ring_poly() -> MultiPoly:
    return vanishing_ring_poly((0.95, 0.55))


def two_ring_config():
    return concentric_ring_config((0.95, 0.55))


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
                    assert gap > cps.merge_radius

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
            find_critical_points(nine_well_poly(), (1.0, -1.0, -1.0, 1.0), 8)
        with pytest.raises(ValidationError):
            find_critical_points(nine_well_poly(), BOX, 1)

    def test_box_needs_four_bounds(self):
        # (a, b) is not a shorthand for the square [a, b]^2
        with pytest.raises(ValidationError, match="box must be"):
            find_critical_points(nine_well_poly(), (0.0, 1.0), 8)


def masked_newton_reference(p: MultiPoly, box, grid: int):
    """The former Newton loop, which masks every seed each iteration, and point-by-point clustering.

    Kept as an oracle for ``find_critical_points``: returns its
    representatives, gradient norms, cluster sizes and diagnostics.
    """
    xmin, xmax, ymin, ymax = (float(v) for v in box)
    gx, gy = partial_derivative(p, 0), partial_derivative(p, 1)
    hxx, hxy, hyy = partial_derivative(gx, 0), partial_derivative(gx, 1), partial_derivative(gy, 1)
    grad_tol = 1e-8 * (1.0 + p.coefficient_norm())

    def empty(note):
        return np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=np.int64), {
            "seeds": grid * grid, "converged": 0, "note": note
        }

    gxs, gys = np.meshgrid(np.linspace(xmin, xmax, grid), np.linspace(ymin, ymax, grid), indexing="ij")
    pts = np.stack([gxs.ravel(), gys.ravel()], axis=1)
    alive = np.ones(len(pts), dtype=bool)
    pad_x, pad_y = 0.5 * (xmax - xmin) + 1.0, 0.5 * (ymax - ymin) + 1.0
    lo, hi = np.array([xmin - pad_x, ymin - pad_y]), np.array([xmax + pad_x, ymax + pad_y])
    # dropped seeds stay frozen wherever they left the box and are still evaluated, so they may overflow
    with np.errstate(all="ignore"):
        for _ in range(80):
            gv1, gv2, a, b, c = eval_polys((gx, gy, hxx, hxy, hyy), [pts[:, 0], pts[:, 1]])
            det = a * c - b * b
            scale = np.abs(a) + np.abs(b) + np.abs(c)
            ok = alive & (np.abs(det) > 1e-14 * np.maximum(1.0, scale * scale))
            step_x = np.where(ok, (c * gv1 - b * gv2) / np.where(ok, det, 1.0), 0.0)
            step_y = np.where(ok, (a * gv2 - b * gv1) / np.where(ok, det, 1.0), 0.0)
            pts[:, 0] -= step_x
            pts[:, 1] -= step_y
            alive = ok & np.all(np.isfinite(pts), axis=1)
            alive &= np.all(pts >= lo, axis=1) & np.all(pts <= hi, axis=1)
            if not np.any(alive):
                break
    if not np.any(alive):
        return empty("no seed converged")
    cand = pts[alive]
    gn = np.hypot(*eval_polys((gx, gy), [cand[:, 0], cand[:, 1]]))
    keep = gn <= grad_tol
    cand, gn = cand[keep], gn[keep]
    if len(cand) == 0:
        return empty("no seed reached the gradient tolerance")
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
    diagnostics = {"seeds": grid * grid, "converged": int(len(cand)), "gradient_tolerance": grad_tol}
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
            p = perturb_linear(random_poly(2, int(rng.integers(2, 7)), rng))
            x0, y0 = rng.uniform(-1.5, 0.5, size=2)
            box = (x0, x0 + rng.uniform(0.2, 2.5), y0, y0 + rng.uniform(0.2, 2.5))
            clustered += assert_matches_reference(p, box, int(rng.integers(8, 33))) > 0
        # most boxes hold a critical point, so the comparison is rarely between two empty sets
        assert clustered >= 50


class TestPerturbation:
    def test_xi_is_a_flat_triple(self):
        p = MultiPoly(2, {(2, 0): 1.0})
        q = perturb_linear(p, (0.0, 1.0, 1e-6))
        assert q.exps.tolist() == [[0, 1], [2, 0]]
        assert q.coefs[0] == pytest.approx(1e-6)
        with pytest.raises(ValidationError, match="perturbation must be"):
            perturb_linear(p, ((0.0, 1.0), 1e-6))

    def test_gradient_never_vanishes_after_tilt(self):
        q = perturb_linear(MultiPoly(2, {(2, 0): 1.0}), (0.0, 1.0, 1e-6))
        cps = find_critical_points(q, BOX, 16)
        assert cps.n_clusters == 0

    def test_zero_eps_rejected(self):
        with pytest.raises(ValidationError):
            perturb_linear(MultiPoly(2, {(2, 0): 1.0}), (0.0, 1.0, 0.0))

    def test_zero_direction_rejected(self):
        with pytest.raises(ValidationError):
            perturb_linear(MultiPoly(2, {(2, 0): 1.0}), (0.0, 0.0, 1e-6))

    def test_direction_normalized(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        q = perturb_linear(p, (3.0, 4.0, 1e-4))
        assert q.exps.tolist() == [[0, 1], [1, 0], [0, 2], [2, 0]]
        assert q.coefs[1] == pytest.approx(0.6e-4)
        assert q.coefs[0] == pytest.approx(0.8e-4)

    def test_shifted_quadratic_minimizer(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        a, b, eps = 0.6, 0.8, 1e-3
        q = perturb_linear(p, (a, b, eps))
        cps = find_critical_points(q, BOX, 8)
        assert cps.n_clusters == 1
        expected = (-eps * a / 2.0, -eps * b / 2.0)
        assert math.hypot(*(cps.representatives[0] - expected)) <= 1e-5

    def test_default_perturbation(self):
        p = MultiPoly(2, {(2, 0): 4.0})
        a, b, eps = default_perturbation(p)
        assert math.hypot(a, b) == pytest.approx(1.0)
        assert b / a == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0)
        assert eps == pytest.approx(4e-6)
        assert default_perturbation(MultiPoly(2, {}))[2] == pytest.approx(1e-6)

    def test_critical_points_stable_under_eps_halving(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(10):
            p = random_poly(2, 3, rng)
            a, b, eps0 = default_perturbation(p)
            full = find_critical_points(perturb_linear(p, (a, b, eps0)), BOX, 16)
            half = find_critical_points(perturb_linear(p, (a, b, eps0 / 2.0)), BOX, 16)
            for rep in full.representatives:
                gaps = [math.hypot(*(rep - other)) for other in half.representatives]
                assert gaps and min(gaps) <= 1e-4
                checked += 1
        assert checked > 0


class TestBezout:
    def test_consistent_verdicts(self):
        p = nine_well_poly()
        cps = find_critical_points(p, BOX, 24)
        v = bezout_check(cps, 4)
        assert v.verdict == "consistent"
        assert v.bound == 9 and v.n_clusters == 9

    def test_small_cases(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        cps = find_critical_points(p, BOX, 8)
        assert bezout_check(cps, 2).verdict == "consistent"
        assert bezout_check(cps, 3).bound == 4

    def test_degree_six_bound_is_25(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        cps = find_critical_points(p, BOX, 8)
        assert bezout_check(cps, 6).bound == 25

    def test_violation_labeled_numerical(self):
        cps = find_critical_points(nine_well_poly(), BOX, 24)
        v = bezout_check(cps, 2)  # wrong degree on purpose: 9 > 1
        assert v.verdict == "violation"
        assert "numerical" in v.note

    def test_random_perturbed_polys_within_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            p = random_poly(2, d, rng)
            q = perturb_linear(p)
            cps = find_critical_points(q, (-1.2, 1.2, -1.2, 1.2), 10)
            assert bezout_check(cps, d).verdict == "consistent"


class TestPigeonhole:
    def test_two_ring_fixture(self):
        report = domain_pigeonhole_report(two_ring_poly(), two_ring_config())
        flagged = [e for e in report.domains if e["flagged"]]
        assert len(flagged) == 2
        for entry in flagged:
            assert entry["has_critical_point"]
        assert report.confinement_violations == []
        assert report.bezout.verdict == "consistent"

    def test_constant_poly(self):
        report = domain_pigeonhole_report(MultiPoly.constant(2, 1.0), two_ring_config())
        assert all(not e["flagged"] for e in report.domains)
        assert report.critical_points.n_clusters == 0

    def test_linear_form(self):
        p = MultiPoly(2, {(1, 0): 0.3, (0, 1): 0.2})
        report = domain_pigeonhole_report(p, two_ring_config())
        assert report.critical_points.n_clusters == 0
        assert all(not e["flagged"] for e in report.domains)

    def test_flags_monotone_under_sample_doubling(self):
        p = two_ring_poly()
        config = two_ring_config()
        coarse = domain_pigeonhole_report(p, config, samples=128, interior_grid=17)
        fine = domain_pigeonhole_report(p, config, samples=256, interior_grid=33)
        for a, b in zip(coarse.domains, fine.domains):
            assert a["oval_id"] == b["oval_id"]
            if a["flagged"]:
                assert b["flagged"]

    def test_interior_and_boundary_maxima_grow(self):
        p = two_ring_poly()
        config = two_ring_config()
        coarse = domain_pigeonhole_report(p, config, samples=128, interior_grid=17)
        fine = domain_pigeonhole_report(p, config, samples=256, interior_grid=33)
        for a, b in zip(coarse.domains, fine.domains):
            assert b["boundary_max"] >= a["boundary_max"] - 1e-15
            if a["interior_max"] is not None:
                assert b["interior_max"] >= a["interior_max"] - 1e-15

    def test_unconfined_maximum_is_a_violation(self):
        # the maximum of 1 - x^2 - y^2 sits at the origin, outside the only domain, and beats its boundary
        config = validate_configuration([regular_polygon((0.5, 0.0), 0.2, 48)])
        report = domain_pigeonhole_report(MultiPoly(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}), config)
        assert report.assignments == [None]
        assert report.confinement_violations == [0]
        assert report.global_boundary_max == pytest.approx(0.91, abs=1e-6)

    def test_unconfined_minimum_is_not_a_violation(self):
        config = validate_configuration([regular_polygon((0.5, 0.0), 0.2, 48)])
        report = domain_pigeonhole_report(MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0}), config)
        assert report.assignments == [None]
        assert report.confinement_violations == []

    def test_each_oval_sampled_and_evaluated_once(self, monkeypatch):
        calls = {"sample": 0, "eval": 0}
        sample, evaluate = prooftrace.sample_boundary, prooftrace.eval_poly

        def counted_sample(oval, count):
            calls["sample"] += 1
            return sample(oval, count)

        def counted_eval(p, x):
            calls["eval"] += 1
            return evaluate(p, x)

        monkeypatch.setattr(prooftrace, "sample_boundary", counted_sample)
        monkeypatch.setattr(prooftrace, "eval_poly", counted_eval)
        report = domain_pigeonhole_report(two_ring_poly(), two_ring_config())
        assert calls["sample"] == 2
        # the boundary, one interior lattice per domain, and the unassigned critical points
        assert calls["eval"] == 1 + len(report.domains) + 1

    def test_report_json_shape(self):
        data = domain_pigeonhole_report(two_ring_poly(), two_ring_config()).to_json_dict()
        assert {"degree", "perturbation", "bezout", "critical_points", "domains"} <= set(data)
        assert all({"oval_id", "boundary_max", "interior_max", "flagged"} <= set(e) for e in data["domains"])
