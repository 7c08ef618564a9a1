import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from conftest import concentric_ring_config, oval_vertices, random_poly, regular_polygon, square
from rigidkit import curves, errors, geometry
from rigidkit.curves import composition_report, crossing_count, fit_curve
from rigidkit.errors import ValidationError
from rigidkit.geometry import validate_configuration
from rigidkit.poly import MultiPoly, compose, derivatives_of_order, eval_poly, eval_polys


def chebyshev_params(k: int) -> np.ndarray:
    return np.cos((2 * np.arange(k) + 1) * np.pi / (2 * k))


def all_pairs_hits(omega, config) -> np.ndarray:
    """Sorted crossing parameters from solving every chord against every edge.

    The reference for ``crossing_count``: no box filter, the same float
    expressions, and blocks of chords only to bound memory.
    """
    taus = np.linspace(-1.0, 1.0, curves._SUBDIVISIONS + 1)
    pts = curves._points(omega, taus)
    q0 = config.vertices
    d2 = np.concatenate([np.roll(v, -1, axis=0) for v in oval_vertices(config)]) - q0
    hits = [np.empty(0)]
    for start in range(0, len(taus) - 1, 256):
        p0, p1 = pts[:-1][start : start + 256], pts[1:][start : start + 256]
        d1 = p1 - p0
        denom = d1[:, None, 0] * d2[None, :, 1] - d1[:, None, 1] * d2[None, :, 0]
        dx, dy = q0[None, :, 0] - p0[:, None, 0], q0[None, :, 1] - p0[:, None, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (dx * d2[None, :, 1] - dy * d2[None, :, 0]) / denom
            chord, edge = np.nonzero((denom != 0) & (t >= 0.0) & (t <= 1.0))
            # u only where t passed: the same elementwise values, fewer of them
            dx, dy, t = dx[chord, edge], dy[chord, edge], t[chord, edge]
            u = (dx * d1[chord, 1] - dy * d1[chord, 0]) / denom[chord, edge]
        valid = (u >= 0.0) & (u <= 1.0)
        idx = chord[valid] + start
        hits.append(taus[idx] + t[valid] * (taus[idx + 1] - taus[idx]))
    return np.sort(np.concatenate(hits))


def merged_count(hits: np.ndarray, tol: float) -> int:
    return 0 if not hits.size else 1 + int(np.sum(np.diff(hits) > tol))


DIFFERENTIAL_TOLS = (0.0, 1e-12, 1e-6, 1e-3)


@pytest.fixture(scope="module")
def differential_cases():
    """278 (curve, rings, reference hits) triples: 1112 cases with the four tols.

    Fitted curves of degree 1..4 through random points, about half of them
    ring vertices, against 1..4 concentric regular rings of 3..299 vertices.
    """
    rng = np.random.default_rng(2024)
    cases = []
    while len(cases) < 278:
        center, radius, rings = rng.uniform(-0.2, 0.2, 2), rng.uniform(0.3, 0.7), []
        for i, k in enumerate(rng.integers(3, 300, size=rng.integers(1, 5))):
            rings.append(regular_polygon(center, radius, int(k), i + 1))
            radius *= math.cos(math.pi / k) * rng.uniform(0.4, 0.95)
        verts = np.concatenate([o.vertices for o in rings])
        s = int(rng.integers(1, 5))
        pts = rng.uniform(-0.8, 0.8, (s + 1, 2))
        on_ring = rng.random(s + 1) < 0.5
        pts[on_ring] = verts[rng.integers(0, len(verts), int(on_ring.sum()))]
        try:
            omega, config = fit_curve(pts, s)[0], validate_configuration(rings)
        except ValidationError:
            continue
        cases.append((omega, config, all_pairs_hits(omega, config)))
    return cases


class TestFitCurve:
    def test_segment_through_two_points(self):
        pts = np.array([[-0.5, -0.2], [0.4, 0.3]])
        curve, _ = fit_curve(pts, 1)
        tj = chebyshev_params(2)
        for t, p in zip(tj, pts):
            assert np.allclose(curves._points(curve, t), p, atol=1e-12)
        assert len(curve) == 2 and all(c.nvars == 1 and c.degree <= 1 for c in curve)

    def test_collinear_points_give_affine_curve(self):
        # three points equally spaced on a line: the Chebyshev parameters for
        # k=3 are themselves equally spaced, so the interpolant is affine
        base = np.array([0.1, -0.2])
        direction = np.array([0.4, 0.3])
        pts = np.array([base + s * direction for s in (1.0, 0.0, -1.0)])
        curve, _ = fit_curve(pts, 2)
        for c in curve:
            quad = c.coefs[c.exps[:, 0] == 2].sum()
            assert abs(quad) <= 1e-10

    def test_points_at_parameters_along_line(self):
        # place points affinely in the parameter: all nonlinear terms vanish
        tj = chebyshev_params(4)
        pts = np.array([[0.05 + 0.3 * t, -0.1 + 0.2 * t] for t in tj])
        curve, _ = fit_curve(pts, 3)
        for c in curve:
            for exp, coef in zip(c.exps.tolist(), c.coefs):
                if exp[0] >= 2:
                    assert abs(coef) <= 1e-10

    def test_parabola_through_three_points(self):
        pts = np.array([[-0.6, 0.1], [0.0, 0.5], [0.6, 0.1]])
        curve, _ = fit_curve(pts, 2)
        tj = chebyshev_params(3)
        residual = max(np.max(np.abs(curves._points(curve, t) - p)) for t, p in zip(tj, pts))
        assert residual <= 1e-10

    def test_too_many_points(self):
        pts = np.zeros((4, 2)) + np.arange(4).reshape(-1, 1) * 0.1
        with pytest.raises(ValidationError, match=r"cannot be interpolated by degree-2 components"):
            fit_curve(pts, 2)

    def test_no_points_rejected(self):
        with pytest.raises(ValidationError, match=r"^need at least one point$"):
            fit_curve(np.zeros((0, 2)), 2)

    def test_image_leaving_ball_rejected(self):
        pts = np.array([[-0.99, 0.0], [0.0, 0.99], [0.99, 0.0]])
        with pytest.raises(ValidationError, match=r"curve image leaves the unit ball"):
            fit_curve(pts, 2)

    def test_returns_max_image_norm(self):
        # the curve (t, t^2) through its Chebyshev points peaks at t = +-1, at norm sqrt(2): halved, it fits
        tj = chebyshev_params(3)
        _, norm = fit_curve(np.stack([tj / 2.0, tj**2 / 2.0], axis=1), 2)
        assert norm == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)
        with pytest.raises(ValidationError, match=r"^curve image leaves the unit ball \(max \|omega\(t\)\| = 1\.41421\)$"):
            fit_curve(np.stack([tj, tj**2], axis=1), 2)

    def test_reproduction_property_random(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            s = int(rng.integers(1, 4))
            k = int(rng.integers(2, s + 2))
            pts = rng.uniform(-0.4, 0.4, size=(k, 2))
            curve, _ = fit_curve(pts, s)
            tj = chebyshev_params(k)
            residual = max(np.max(np.abs(curves._points(curve, t) - p)) for t, p in zip(tj, pts))
            assert residual <= 1e-10


class TestCurvePoints:
    def test_eval_vectorized(self):
        curve = (MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(2,): 1.0}))
        ts = np.array([-1.0, 0.0, 0.5])
        pts = curves._points(curve, ts)
        assert pts.shape == (3, 2)
        assert np.allclose(pts[:, 0], ts)
        assert np.allclose(pts[:, 1], ts**2)


def pointwise(rep, key: str) -> np.ndarray:
    """One column of the report's per-grid-point rows."""
    return np.array([row[key] for row in rep["pointwise"]])


def full_table_columns(f: MultiPoly, omega, s: int, d: int, tgrid: int):
    """LHS and RHS columns with every order ceil((d+1)/s) .. d+1 of f in the table, the zeros above deg f included."""
    taus = geometry.lattice((-1.0,), (1.0,), tgrid)[:, 0]
    k_lo = max(1, math.ceil((d + 1) / s))
    qs = [q for k in range(k_lo, d + 2) for _, q in derivatives_of_order(f, k)]
    lhs = np.zeros(tgrid)
    for value in eval_polys(qs, eval_polys(omega, [taus])):
        lhs += np.abs(value)
    [(_, g_deriv)] = derivatives_of_order(compose(f, list(omega)), d + 1)
    return lhs, np.abs(eval_poly(g_deriv, [taus]))


class TestCompositionReport:
    def test_table_stopped_at_deg_f_matches_the_full_table(self):
        # orders 6..8 of a degree-8 f at d = 20 and s = 4; the 13 orders 9..21 add only zeros
        rng = np.random.default_rng(37)
        for _ in range(5):
            f = random_poly(2, 8, rng)
            omega = tuple(random_poly(1, 4, rng, scale=0.4) for _ in range(2))
            rep = composition_report(f, omega, 4, 20, 64)
            assert rep["order_range"] == [6, 21] and not rep["all_degenerate"]
            lhs, rhs = full_table_columns(f, omega, 4, 20, 64)
            assert np.array_equal(pointwise(rep, "lhs"), lhs) and np.array_equal(pointwise(rep, "rhs"), rhs)
            live = rhs > 1e-12
            assert rep["c_hat"] == float(np.min(lhs[live] / rhs[live]))

    def test_line_case_collapses_to_top_order(self):
        f = random_poly(2, 3, np.random.default_rng(3))
        line = (MultiPoly(1, {(1,): 0.5}), MultiPoly(1, {(1,): 0.3, (0,): 0.1}))
        rep = composition_report(f, line, 1, 2, 64)
        assert rep["order_range"][0] == rep["order_range"][1] == 3

    def test_quadratic_example(self):
        f = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        omega = (MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(2,): 1.0}))
        rep = composition_report(f, omega, 2, 3, 256)
        assert tuple(rep["order_range"]) == (2, 4)
        # g = t^2 + t^4, g'''' = 24; LHS = |f_xx| + |f_xy| + |f_yy| = 4
        assert not rep["all_degenerate"]
        assert rep["c_hat"] == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert np.allclose(pointwise(rep, "rhs"), 24.0)

    def test_degenerate_when_degree_too_low(self):
        f = MultiPoly(2, {(1, 0): 1.0, (0, 1): 2.0})  # degree 1
        omega = (MultiPoly(1, {(1,): 0.5}), MultiPoly(1, {(2,): 0.5}))
        rep = composition_report(f, omega, 2, 3, 64)  # deg g <= 2 < 4
        assert rep["all_degenerate"]
        assert rep["c_hat"] is None

    def test_positivity_wherever_rhs_lives(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            s = int(rng.integers(1, 4))
            d = int(rng.integers(1, 5))
            f = random_poly(2, int(rng.integers(1, 5)), rng)
            omega = tuple(random_poly(1, s, rng, scale=0.4) for _ in range(2))
            rep = composition_report(f, omega, s, d, 128)
            lhs, rhs = pointwise(rep, "lhs"), pointwise(rep, "rhs")
            live = rhs > 1e-12
            assert np.all(lhs[live] > 0.0)
            if not rep["all_degenerate"]:
                assert np.max(lhs) >= rep["c_hat"] * np.max(rhs) - 1e-9

    def test_degree_budget(self):
        rng = np.random.default_rng(37)
        from rigidkit.poly import compose

        for _ in range(20):
            s = int(rng.integers(1, 4))
            f = random_poly(2, int(rng.integers(1, 5)), rng)
            comp = tuple(random_poly(1, s, rng, scale=0.3) for _ in range(2))
            g = compose(f, list(comp))
            assert g.degree <= s * f.degree

    def test_dimension_mismatch(self):
        f = MultiPoly(3, {(1, 1, 1): 1.0})
        omega = (MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(1,): 1.0}))
        with pytest.raises(ValidationError, match=r"expected dimension 2, got 3"):
            composition_report(f, omega, 1, 2, 16)

    @pytest.mark.parametrize(
        "omega, s, message",
        [
            ((MultiPoly(1, {(3,): 1.0}), MultiPoly(1, {(1,): 1.0})), 2, "component degree 3 exceeds s = 2"),
            ((MultiPoly(1, {(1,): 1.0}), MultiPoly(2, {(1, 0): 1.0})), 2, "expected dimension 1, got 2"),
            ((MultiPoly(1, {(0,): 0.5}), MultiPoly(1, {(0,): 0.5})), 0, "curve degree must be >= 1, got 0"),
        ],
        ids=["component-degree", "bivariate-component", "s-zero"],
    )
    def test_curve_hypotheses_refused(self, omega, s, message):
        # checked before f, so a planar f and a valid order still refuse; s = 0 would divide ceil((d+1)/s) by zero
        f = MultiPoly(2, {(2, 0): 1.0})
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            composition_report(f, omega, s, 2, 16)

    def test_negative_order_rejected(self):
        f = MultiPoly(2, {(2, 0): 1.0})
        omega = (MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(1,): 1.0}))
        with pytest.raises(ValidationError, match=r"derivative order must be >= 0, got -1"):
            composition_report(f, omega, 1, -1, 16)

    def test_tgrid_limit_is_inclusive(self, monkeypatch):
        # the largest array holds the 3 + 4 + 5 derivatives of orders 2..4 of a quartic at every grid point
        monkeypatch.setattr(errors, "MAX_ENTRIES", 12 * 16)
        f = MultiPoly(2, {(4, 0): 1.0, (0, 4): 1.0})
        omega = (MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(2,): 1.0}))
        assert len(composition_report(f, omega, 2, 3, 16)["pointwise"]) == 16
        with pytest.raises(ValidationError, match="^the values of 12 polynomials at 17 points would hold 204 entries"):
            composition_report(f, omega, 2, 3, 17)
        with pytest.raises(ValidationError, match=f"^a lattice of {10**20} points per axis in 1D would hold"):
            composition_report(f, omega, 2, 3, 10**20)

    def test_derivative_table_refused_before_enumeration(self, monkeypatch):
        # x_1^30 in 10 variables has C(39, 30) derivatives of order 30; listing them would take many GB
        def no_enumeration(p, k):
            if p.nvars > 1:  # f, not its univariate composition with the curve
                raise AssertionError(f"the order-{k} derivatives of f were enumerated")
            return derivatives_of_order(p, k)

        monkeypatch.setattr(curves, "derivatives_of_order", no_enumeration)
        f = MultiPoly(10, {(30,) + (0,) * 9: 1.0})
        omega = tuple(MultiPoly(1, {(1,): 0.1}) for _ in range(10))
        with pytest.raises(ValidationError, match=(
                "^the values of 211915132 polynomials at 8 points would hold 1695321056 entries, more than 16777216$")):
            composition_report(f, omega, 1, 29, 8)

    def test_json_shape(self):
        f = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        omega = (MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(2,): 1.0}))
        data = composition_report(f, omega, 2, 3, 16)
        assert data["order_range"] == [2, 4]
        assert len(data["pointwise"]) == 16
        assert {"t", "lhs", "rhs"} <= set(data["pointwise"][0])


class TestCrossingCount:
    def circle(self, radius, oval_id=1, center=(0.0, 0.0)):
        return regular_polygon(center, radius, 64, oval_id)

    def test_segment_crosses_circle_twice(self):
        config = validate_configuration([self.circle(0.5)])
        seg = (MultiPoly(1, {(1,): 0.9}), MultiPoly(1, {}))
        assert crossing_count(seg, config) == 2

    def test_disjoint_segment(self):
        config = validate_configuration([self.circle(0.2, center=(0.0, 0.7))])
        seg = (MultiPoly(1, {(1,): 0.9}), MultiPoly(1, {}))
        assert crossing_count(seg, config) == 0

    def test_bivariate_component_refused_before_evaluation(self, monkeypatch):
        # the message composition_report gives for the same curve, not one from inside eval_polys
        def no_evaluation(*args):
            raise AssertionError("the curve was evaluated")

        monkeypatch.setattr(curves, "eval_polys", no_evaluation)
        omega = (MultiPoly(2, {(1, 0): 0.5}), MultiPoly(1, {(1,): 0.5}))
        with pytest.raises(ValidationError, match=r"^expected dimension 1, got 2$"):
            crossing_count(omega, validate_configuration([square(1.0, 1)]))

    def test_parabola_four_crossings(self):
        config = validate_configuration([self.circle(0.288)])
        omega = (MultiPoly(1, {(1,): 0.6}), MultiPoly(1, {(2,): 0.9, (0,): -0.3}))
        assert crossing_count(omega, config) == 4

    @pytest.mark.parametrize("half_length", [0.75, 0.5])
    def test_curve_along_an_edge_counts_its_corners(self, half_length):
        # y = 0.5 runs along the top edge of the unit square, past both corners
        # or exactly onto them: chord and edge boxes coincide, the two corner
        # touches count and the collinear overlap does not
        config = validate_configuration([square(1.0, 1)])
        seg = (MultiPoly(1, {(1,): half_length}), MultiPoly(1, {(0,): 0.5}))
        assert crossing_count(seg, config) == 2

    def test_chained_hits_merge_into_one_incidence_per_side(self, monkeypatch):
        # rings delta apart meet the segment x = 0.9 t at parameters delta/0.9 apart
        delta = 0.02
        gap = delta / 0.9
        config = validate_configuration([self.circle(0.5 + i * delta, i + 1) for i in range(3)])
        seg = (MultiPoly(1, {(1,): 0.9}), MultiPoly(1, {}))
        monkeypatch.setattr(curves, "_MERGE_TOL", 0.5 * gap)
        assert crossing_count(seg, config) == 6
        # each hit is within the merge distance of the previous one but the third is
        # two gaps from the first: merging against a cluster's first hit would give 4
        monkeypatch.setattr(curves, "_MERGE_TOL", 1.5 * gap)
        assert crossing_count(seg, config) == 2

    def test_fitted_curve_through_boundary_points(self):
        # cubic interpolating four near-parabola points marked on the circle
        circle = self.circle(0.288)
        config = validate_configuration([circle])
        ts = np.array([-0.41398, -0.22539, 0.22539, 0.41398])
        parabola_pts = np.stack([0.6 * ts, 0.9 * ts**2 - 0.3], axis=1)
        k = len(circle.vertices)
        marked = []
        for p in parabola_pts:
            angle = math.atan2(p[1], p[0]) % (2 * math.pi)
            marked.append(circle.vertices[round(angle / (2 * math.pi / k)) % k])
        curve, _ = fit_curve(np.array(marked), 3)
        assert crossing_count(curve, config) >= 4

    def test_fine_oval_counts_in_bounded_memory(self):
        # one (chords x edges) broadcast over all edges would need about 2 GB here
        config = validate_configuration([regular_polygon((0.0, 0.0), 0.5, 10_000, 1)])
        seg = (MultiPoly(1, {(1,): 0.9}), MultiPoly(1, {}))
        tracemalloc.start()
        try:
            assert crossing_count(seg, config) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    @pytest.mark.parametrize("direction", [(0.9, 0.0), (0.0, 0.9)])
    def test_fine_oval_counts_fast(self, direction):
        # only the few chord-edge pairs whose boxes overlap are solved
        config = validate_configuration([regular_polygon((0.0, 0.0), 0.5, 10_000, 1)])
        seg = tuple(MultiPoly(1, {(1,): c}) for c in direction)
        start = time.process_time()
        assert crossing_count(seg, config) == 2
        assert time.process_time() - start < 0.1

    @pytest.mark.parametrize(
        "points, s", [([[0.2, 0.1]], 2), ([[0.2, 0.1], [np.nextafter(0.2, 1.0), 0.1]], 1)], ids=["constant", "3-points"]
    )
    def test_zero_length_chords_stay_out_of_the_sweep(self, points, s):
        # a constant curve has 4096 equal chord boxes, and the line through two neighbouring floats
        # has 3 distinct image points; swept, its zero-length chords would pair with each other
        config = concentric_ring_config((0.9, 0.5))
        curve, _ = fit_curve(points, s)
        start = time.process_time()
        assert crossing_count(curve, config) == 0
        assert time.process_time() - start < 0.01

    def test_matches_all_pairs_reference(self, differential_cases, monkeypatch):
        for omega, config, hits in differential_cases:
            for tol in DIFFERENTIAL_TOLS:
                monkeypatch.setattr(curves, "_MERGE_TOL", tol)
                assert crossing_count(omega, config) == merged_count(hits, tol)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_small_sweep_chunks_match_reference(self, chunk, differential_cases, monkeypatch):
        # steps this small cost about 0.2 s a call, so eight cases at merge
        # distance 0 stand for the rest: the chunk changes which pairs a step
        # holds, never how hits merge
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        monkeypatch.setattr(curves, "_MERGE_TOL", 0.0)
        for omega, config, hits in differential_cases[:8]:
            assert crossing_count(omega, config) == merged_count(hits, 0.0)
