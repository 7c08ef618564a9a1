import math
from itertools import product

import numpy as np
import pytest

from conftest import concentric_ring_config, vanishing_ring_poly
from rigidkit.errors import ValidationError
from rigidkit.poly import MultiPoly, random_poly
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

    def test_report_json_shape(self):
        data = domain_pigeonhole_report(two_ring_poly(), two_ring_config()).to_json_dict()
        assert {"degree", "perturbation", "bezout", "critical_points", "domains"} <= set(data)
        assert all({"oval_id", "boundary_max", "interior_max", "flagged"} <= set(e) for e in data["domains"])
