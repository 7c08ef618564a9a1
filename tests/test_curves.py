import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import random_poly, regular_polygon
from rigidkit import curves, geometry
from rigidkit.curves import (
    ParamCurve,
    composition_report,
    crossing_count,
    fit_curve,
)
from rigidkit.errors import ValidationError
from rigidkit.geometry import validate_configuration
from rigidkit.poly import MultiPoly


def chebyshev_params(k: int) -> np.ndarray:
    return np.cos((2 * np.arange(k) + 1) * np.pi / (2 * k))


def all_pairs_hits(omega: ParamCurve, config) -> np.ndarray:
    """Sorted crossing parameters from solving every chord against every edge.

    The reference for ``crossing_count``: no box filter, the same float
    expressions, and blocks of chords only to bound memory.
    """
    taus = np.linspace(-1.0, 1.0, curves._SUBDIVISIONS + 1)
    pts = omega.eval(taus)
    q0 = np.concatenate([o.vertices for o in config.ovals])
    d2 = np.concatenate([np.roll(o.vertices, -1, axis=0) for o in config.ovals]) - q0
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
            omega, config = fit_curve(pts, s), validate_configuration(rings)
        except ValidationError:
            continue
        cases.append((omega, config, all_pairs_hits(omega, config)))
    return cases


class TestFitCurve:
    def test_segment_through_two_points(self):
        pts = np.array([[-0.5, -0.2], [0.4, 0.3]])
        curve = fit_curve(pts, 1)
        tj = chebyshev_params(2)
        for t, p in zip(tj, pts):
            assert np.allclose(curve.eval(t), p, atol=1e-12)
        assert all(c.degree <= 1 for c in curve.components)

    def test_collinear_points_give_affine_curve(self):
        # three points equally spaced on a line: the Chebyshev parameters for
        # k=3 are themselves equally spaced, so the interpolant is affine
        base = np.array([0.1, -0.2])
        direction = np.array([0.4, 0.3])
        pts = np.array([base + s * direction for s in (1.0, 0.0, -1.0)])
        curve = fit_curve(pts, 2)
        for c in curve.components:
            quad = c.coefs[c.exps[:, 0] == 2].sum()
            assert abs(quad) <= 1e-10

    def test_points_at_parameters_along_line(self):
        # place points affinely in the parameter: all nonlinear terms vanish
        tj = chebyshev_params(4)
        pts = np.array([[0.05 + 0.3 * t, -0.1 + 0.2 * t] for t in tj])
        curve = fit_curve(pts, 3)
        for c in curve.components:
            for exp, coef in zip(c.exps.tolist(), c.coefs):
                if exp[0] >= 2:
                    assert abs(coef) <= 1e-10

    def test_parabola_through_three_points(self):
        pts = np.array([[-0.6, 0.1], [0.0, 0.5], [0.6, 0.1]])
        curve = fit_curve(pts, 2)
        tj = chebyshev_params(3)
        residual = max(np.max(np.abs(curve.eval(t) - p)) for t, p in zip(tj, pts))
        assert residual <= 1e-10

    def test_too_many_points(self):
        pts = np.zeros((4, 2)) + np.arange(4).reshape(-1, 1) * 0.1
        with pytest.raises(ValidationError, match=r"cannot be interpolated by degree-2 components"):
            fit_curve(pts, 2)

    def test_image_leaving_ball_rejected(self):
        pts = np.array([[-0.99, 0.0], [0.0, 0.99], [0.99, 0.0]])
        with pytest.raises(ValidationError, match=r"curve image leaves the unit ball"):
            fit_curve(pts, 2)

    def test_reproduction_property_random(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            s = int(rng.integers(1, 4))
            k = int(rng.integers(2, s + 2))
            pts = rng.uniform(-0.4, 0.4, size=(k, 2))
            curve = fit_curve(pts, s)
            tj = chebyshev_params(k)
            residual = max(np.max(np.abs(curve.eval(t) - p)) for t, p in zip(tj, pts))
            assert residual <= 1e-10


class TestParamCurve:
    def test_component_degree_capped(self):
        with pytest.raises(ValidationError):
            ParamCurve(components=(MultiPoly(1, {(3,): 1.0}),), s=2)

    def test_eval_vectorized(self):
        curve = ParamCurve(
            components=(MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(2,): 1.0})), s=2
        )
        ts = np.array([-1.0, 0.0, 0.5])
        pts = curve.eval(ts)
        assert pts.shape == (3, 2)
        assert np.allclose(pts[:, 0], ts)
        assert np.allclose(pts[:, 1], ts**2)


def pointwise(rep, key: str) -> np.ndarray:
    """One column of the report's per-grid-point rows."""
    return np.array([row[key] for row in rep["pointwise"]])


class TestCompositionReport:
    def test_line_case_collapses_to_top_order(self):
        f = random_poly(2, 3, np.random.default_rng(3))
        line = ParamCurve(
            components=(MultiPoly(1, {(1,): 0.5}), MultiPoly(1, {(1,): 0.3, (0,): 0.1})),
            s=1,
        )
        rep = composition_report(f, line, 2, 64)
        assert rep["order_range"][0] == rep["order_range"][1] == 3

    def test_quadratic_example(self):
        f = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        omega = ParamCurve(
            components=(MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(2,): 1.0})), s=2
        )
        rep = composition_report(f, omega, 3, 256)
        assert tuple(rep["order_range"]) == (2, 4)
        # g = t^2 + t^4, g'''' = 24; LHS = |f_xx| + |f_xy| + |f_yy| = 4
        assert not rep["all_degenerate"]
        assert rep["c_hat"] == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert np.allclose(pointwise(rep, "rhs"), 24.0)

    def test_degenerate_when_degree_too_low(self):
        f = MultiPoly(2, {(1, 0): 1.0, (0, 1): 2.0})  # degree 1
        omega = ParamCurve(
            components=(MultiPoly(1, {(1,): 0.5}), MultiPoly(1, {(2,): 0.5})), s=2
        )
        rep = composition_report(f, omega, 3, 64)  # deg g <= 2 < 4
        assert rep["all_degenerate"]
        assert rep["c_hat"] is None

    def test_positivity_wherever_rhs_lives(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            s = int(rng.integers(1, 4))
            d = int(rng.integers(1, 5))
            f = random_poly(2, int(rng.integers(1, 5)), rng)
            comp = tuple(random_poly(1, s, rng, scale=0.4) for _ in range(2))
            omega = ParamCurve(components=comp, s=s)
            rep = composition_report(f, omega, d, 128)
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
        omega = ParamCurve(
            components=(MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(1,): 1.0})), s=1
        )
        with pytest.raises(ValidationError, match=r"expected dimension 2, got 3"):
            composition_report(f, omega, 2, 16)

    def test_negative_order_rejected(self):
        f = MultiPoly(2, {(2, 0): 1.0})
        omega = ParamCurve(
            components=(MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(1,): 1.0})), s=1
        )
        with pytest.raises(ValidationError, match=r"derivative order must be >= 0, got -1"):
            composition_report(f, omega, -1, 16)

    def test_tgrid_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_LATTICE", 16)
        f = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        omega = ParamCurve(
            components=(MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(2,): 1.0})), s=2
        )
        assert len(composition_report(f, omega, 3, 16)["pointwise"]) == 16
        for bad in (17, 10**20):
            with pytest.raises(ValidationError, match=f"lattice of {bad} points per axis in 1D exceeds 16 points"):
                composition_report(f, omega, 3, bad)

    def test_json_shape(self):
        f = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        omega = ParamCurve(
            components=(MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(2,): 1.0})), s=2
        )
        data = composition_report(f, omega, 3, 16)
        assert data["order_range"] == [2, 4]
        assert len(data["pointwise"]) == 16
        assert {"t", "lhs", "rhs"} <= set(data["pointwise"][0])


class TestCrossingCount:
    def circle(self, radius, oval_id=1, center=(0.0, 0.0)):
        return regular_polygon(center, radius, 64, oval_id)

    def test_segment_crosses_circle_twice(self):
        config = validate_configuration([self.circle(0.5)])
        seg = ParamCurve(
            components=(MultiPoly(1, {(1,): 0.9}), MultiPoly(1, {})), s=1
        )
        assert crossing_count(seg, config) == 2

    def test_disjoint_segment(self):
        config = validate_configuration([self.circle(0.2, center=(0.0, 0.7))])
        seg = ParamCurve(
            components=(MultiPoly(1, {(1,): 0.9}), MultiPoly(1, {})), s=1
        )
        assert crossing_count(seg, config) == 0

    def test_parabola_four_crossings(self):
        config = validate_configuration([self.circle(0.288)])
        omega = ParamCurve(
            components=(
                MultiPoly(1, {(1,): 0.6}),
                MultiPoly(1, {(2,): 0.9, (0,): -0.3}),
            ),
            s=2,
        )
        assert crossing_count(omega, config) == 4

    def test_chained_hits_merge_into_one_incidence_per_side(self, monkeypatch):
        # rings delta apart meet the segment x = 0.9 t at parameters delta/0.9 apart
        delta = 0.02
        gap = delta / 0.9
        config = validate_configuration([self.circle(0.5 + i * delta, i + 1) for i in range(3)])
        seg = ParamCurve(
            components=(MultiPoly(1, {(1,): 0.9}), MultiPoly(1, {})), s=1
        )
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
        curve = fit_curve(np.array(marked), 3)
        assert crossing_count(curve, config) >= 4

    def test_fine_oval_counts_in_bounded_memory(self):
        # one (chords x edges) broadcast over all edges would need about 2 GB here
        config = validate_configuration([regular_polygon((0.0, 0.0), 0.5, 10_000, 1)])
        seg = ParamCurve(
            components=(MultiPoly(1, {(1,): 0.9}), MultiPoly(1, {})), s=1
        )
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
        seg = ParamCurve(tuple(MultiPoly(1, {(1,): c}) for c in direction), s=1)
        start = time.process_time()
        assert crossing_count(seg, config) == 2
        assert time.process_time() - start < 0.1

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
