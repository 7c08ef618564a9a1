import math
import tracemalloc

import numpy as np
import pytest

from conftest import forest_roots, random_circle_config, regular_polygon, square, write_config_json
from rigidkit import geometry
from rigidkit.errors import ValidationError
from rigidkit.geometry import (
    Oval,
    bounding_box,
    build_domains,
    build_nesting_forest,
    config_from_json_dict,
    in_unit_ball,
    lattice,
    mu,
    points_in_domain,
    points_in_polygon,
    sample_boundary,
    shoelace_area,
    validate_configuration,
)
from rigidkit.svg import render_svg


def rect(x0, x1, y0, y1, oval_id) -> Oval:
    return Oval(id=oval_id, vertices=np.array([[x1, y1], [x0, y1], [x0, y0], [x1, y0]]))


def ray_cast(vertices, point) -> bool:
    """Reference for ``points_in_polygon``: one point, pure Python, even-odd rule.

    An edge counts when its ends lie on opposite sides of the ray's level,
    a vertex exactly on the level counting as below it, the half-open rule
    that ``points_in_polygon`` applies too.
    """
    px, py = (float(c) for c in point)
    verts = np.asarray(vertices, dtype=float).tolist()
    inside = False
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        if (y1 > py) != (y2 > py) and x1 + (py - y1) * (x2 - x1) / (y2 - y1) > px:
            inside = not inside
    return inside


class TestValidation:
    def test_single_square(self):
        config = validate_configuration([square(1.0, 1)])
        assert config.N == 1

    @pytest.mark.parametrize("ovals", [[], ()])
    def test_empty_configuration_rejected(self, ovals):
        with pytest.raises(ValidationError, match=r"^configuration has no domains$"):
            validate_configuration(ovals)

    def test_crossing_squares_rejected(self):
        with pytest.raises(ValidationError, match=r"boundaries of ovals 1 and 2 intersect"):
            validate_configuration([square(0.5, 1), square(0.5, 2, center=(0.25, 0.0))])

    def test_bow_tie_rejected(self):
        verts = np.array([[0.0, 0.0], [0.5, 0.5], [0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(ValidationError, match=r"oval 1 has self-intersecting edges"):
            validate_configuration([Oval(id=1, vertices=verts)])

    def test_too_few_vertices(self):
        with pytest.raises(ValidationError, match=r"oval 1 has 2 vertices, need at least 3"):
            validate_configuration([Oval(id=1, vertices=np.array([[0.0, 0.0], [1.0, 0.0]]))])

    def test_outside_ball_rejected_by_default(self):
        with pytest.raises(ValidationError, match=r"oval 1 has vertices outside the unit ball"):
            validate_configuration([square(2.0, 1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_vertex_rejected(self, bad):
        verts = np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, bad]])
        with pytest.raises(ValidationError, match=r"oval 1 has non-finite vertex coordinates"):
            validate_configuration([Oval(id=1, vertices=verts)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match=r"^duplicate oval id 1$"):
            validate_configuration([square(0.4, 1), square(0.4, 1, center=(0.6, 0.0))])

    @pytest.mark.parametrize("chunk", [1, 7, geometry._PAIR_CHUNK])
    def test_first_of_several_intersecting_pairs(self, chunk, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        # in configuration order a, b, c, d the touching pairs are (a, c), (a, d),
        # (b, d) and (c, d); ids are out of order so the report shows which order wins
        a = rect(-0.35, 0.6, -0.05, 0.02, 7)
        b = square(0.3, 3, center=(-0.1, 0.2))
        c = square(0.4, 9, center=(-0.5, 0.0))
        d = square(0.4, 1, center=(-0.4, 0.1))
        with pytest.raises(ValidationError, match=r"^boundaries of ovals 7 and 9 intersect$"):
            validate_configuration([a, b, c, d])
        with pytest.raises(ValidationError, match=r"^boundaries of ovals 3 and 1 intersect$"):
            validate_configuration([b, c, d])
        with pytest.raises(ValidationError, match=r"^boundaries of ovals 9 and 1 intersect$"):
            validate_configuration([c, d, b])

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_small_sweep_chunks_accept_valid_configurations(self, chunk, monkeypatch):
        rng = np.random.default_rng(17)
        configs = [random_circle_config(rng) for _ in range(3)]
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        for config in configs:
            assert validate_configuration(config.ovals).N == config.N

    def test_clockwise_rejected(self):
        verts = square(1.0, 1).vertices[::-1]
        with pytest.raises(ValidationError, match=r"^domain of oval 1 has non-positive area -1\.0$"):
            validate_configuration([Oval(id=1, vertices=verts)])

    def test_fold_back_spike_rejected(self):
        # the third vertex turns back onto the first edge; only the spike check
        # sees it, since all three edges are cyclic neighbours and the area is 0
        verts = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.0]])
        with pytest.raises(ValidationError, match=r"^oval 1 has self-intersecting edges$"):
            validate_configuration([Oval(id=1, vertices=verts)])

    def test_zero_length_edge_rejected(self):
        verts = np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]])
        with pytest.raises(ValidationError, match=r"^oval 4 has self-intersecting edges$"):
            validate_configuration([square(1.4, 2), Oval(id=4, vertices=verts)])
        # three copies of one point: no spike, no edge pair to sweep, and zero area
        with pytest.raises(ValidationError, match=r"^oval 4 has self-intersecting edges$"):
            validate_configuration([Oval(id=4, vertices=np.full((3, 2), 0.25))])

    def test_repeated_non_adjacent_vertex_rejected(self):
        # two triangles meeting at the origin: a figure eight with positive area
        verts = np.array([[0.0, 0.0], [0.5, -0.25], [0.5, 0.25], [0.0, 0.0], [-0.5, 0.25], [-0.5, -0.25]])
        assert shoelace_area(verts) > 0
        with pytest.raises(ValidationError, match=r"^oval 1 has self-intersecting edges$"):
            validate_configuration([Oval(id=1, vertices=verts)])

    @staticmethod
    def pinched(oval_id) -> Oval:
        """32-gon whose top vertex is moved onto its bottom vertex: two lobes touching there."""
        verts = regular_polygon((0.0, 0.0), 0.8, 32).vertices.copy()
        verts[8] = verts[24]
        return Oval(id=oval_id, vertices=verts)

    @pytest.mark.parametrize("chunk", [1, 7, geometry._PAIR_CHUNK])
    def test_self_touching_oval_found_in_any_chunk(self, chunk, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        ring = regular_polygon((0.0, 0.0), 0.95, 48, 2)
        inner = regular_polygon((0.5, 0.0), 0.1, 16, 3)
        assert validate_configuration([ring, inner]).N == 2
        with pytest.raises(ValidationError, match=r"^oval 5 has self-intersecting edges$"):
            validate_configuration([ring, self.pinched(5), inner])

    def test_self_intersection_beats_later_crossing_pair(self):
        ovals = [self.pinched(5), square(0.2, 1, center=(0.5, 0.0)), square(0.2, 2, center=(0.6, 0.0))]
        # the sweep reports both; the pair never counts an oval's own contacts
        assert geometry._first_touching(ovals) == (0, (1, 2))
        with pytest.raises(ValidationError, match=r"^oval 5 has self-intersecting edges$"):
            validate_configuration(ovals)

    def test_self_intersection_beats_later_duplicate_id(self):
        with pytest.raises(ValidationError, match=r"^oval 5 has self-intersecting edges$"):
            validate_configuration([square(0.1, 1, center=(0.5, 0.0)), self.pinched(5),
                                    square(0.1, 5, center=(-0.5, 0.0))])

    def test_later_oval_check_beats_earlier_crossing_pair(self):
        with pytest.raises(ValidationError, match=r"^oval 3 has vertices outside the unit ball$"):
            validate_configuration([square(0.2, 1), square(0.2, 2, center=(0.1, 0.0)), square(2.0, 3)])

    def test_fine_oval_validates_in_bounded_memory(self):
        # a k x k predicate matrix would need several GB here
        oval = regular_polygon((0.0, 0.0), 0.9, 10_000, 1)
        tracemalloc.start()
        try:
            assert validate_configuration([oval]).N == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestContains:
    """Containment as the nesting forest records it: depth 1 + the number of containing ovals."""

    def test_nested_squares(self, side1_annulus):
        forest = build_nesting_forest(side1_annulus)
        assert [forest.nodes[i].depth for i in (1, 2)] == [1, 2]
        assert forest.nodes[2].parent == 1
        assert forest.nodes[1].parent is None

    def test_side_by_side(self):
        a = square(0.5, 1, center=(-0.4, 0.0))
        b = square(0.5, 2, center=(0.4, 0.0))
        forest = build_nesting_forest(validate_configuration([a, b]))
        assert [forest.nodes[i].depth for i in (1, 2)] == [1, 1]
        assert sorted(forest_roots(forest)) == [1, 2]

    def test_strict_partial_order(self):
        # the containing ovals of each oval, by the pure-Python ray cast, are
        # exactly its ancestors in the forest: a chain, so containment is a
        # strict partial order whose depth is the chain length
        rng = np.random.default_rng(31)
        for _ in range(5):
            config = random_circle_config(rng)
            forest = build_nesting_forest(config)
            for o in config.ovals:
                containing = {p.id for p in config.ovals if p.id != o.id and ray_cast(p.vertices, o.vertices[0])}
                ancestors, node = set(), forest.nodes[o.id]
                while node.parent is not None:
                    assert node.parent not in ancestors and node.parent != o.id
                    ancestors.add(node.parent)
                    node = forest.nodes[node.parent]
                assert containing == ancestors
                assert forest.nodes[o.id].depth == 1 + len(ancestors)


class TestForest:
    def test_three_disjoint_circles(self):
        ovals = [
            regular_polygon((-0.6, 0.0), 0.2, 16, 1),
            regular_polygon((0.6, 0.0), 0.2, 16, 2),
            regular_polygon((0.0, 0.6), 0.2, 16, 3),
        ]
        forest = build_nesting_forest(validate_configuration(ovals))
        assert sorted(forest_roots(forest)) == [1, 2, 3]
        assert all(node.depth == 1 for node in forest.nodes.values())

    def test_chain_depths(self):
        ovals = [
            regular_polygon((0.0, 0.0), 0.9, 32, 1),
            regular_polygon((0.0, 0.0), 0.6, 32, 2),
            regular_polygon((0.0, 0.0), 0.3, 32, 3),
        ]
        forest = build_nesting_forest(validate_configuration(ovals))
        assert [forest.nodes[i].depth for i in (1, 2, 3)] == [1, 2, 3]
        assert forest.nodes[3].parent == 2
        assert forest.nodes[2].parent == 1

    def test_root_two_children_one_grandchild(self):
        ovals = [
            regular_polygon((0.0, 0.0), 0.95, 32, 1),
            regular_polygon((-0.45, 0.0), 0.35, 32, 2),
            regular_polygon((0.5, 0.0), 0.25, 32, 3),
            regular_polygon((-0.45, 0.0), 0.15, 32, 4),
        ]
        forest = build_nesting_forest(validate_configuration(ovals))
        depths = sorted(node.depth for node in forest.nodes.values())
        assert depths == [1, 2, 2, 3]
        # oracle: depth = 1 + number of ovals containing the oval
        config = forest.config
        for o in config.ovals:
            node = forest.nodes[o.id]
            containing = sum(1 for other in config.ovals if other.id != o.id and ray_cast(other.vertices, o.vertices[0]))
            assert node.depth == containing + 1

    def test_batched_nesting_on_vertex_levels_matches_pairwise(self):
        # every representative vertex sits on a vertex y-level of another
        # polygon, and the left square's ray runs along the top edge of the
        # middle square, so the half-open rule decides the batched points
        octagon = Oval(id=1, vertices=0.25 * np.array(
            [[2, 1], [1, 2], [-1, 2], [-2, 1], [-2, -1], [-1, -2], [1, -2], [2, -1]], dtype=float))
        middle = square(0.5, 2)
        diamond = Oval(id=3, vertices=np.array([[0.2, 0.0], [0.0, 0.2], [-0.2, 0.0], [0.0, -0.2]]))
        right = rect(0.65, 0.85, 0.0, 0.2, 4)
        left = rect(-0.85, -0.65, 0.05, 0.25, 6)
        config = validate_configuration([right, middle, left, octagon, diamond])
        reps = np.array([o.vertices[0] for o in config.ovals])
        levels = [set(o.vertices[:, 1].tolist()) for o in config.ovals]
        assert all(
            any(y in levels[j] for j in range(len(reps)) if j != i) for i, y in enumerate(reps[:, 1].tolist())
        )
        for p in config.ovals:
            single = [ray_cast(p.vertices, r) for r in reps]
            assert points_in_polygon(p.vertices, reps).tolist() == single
        forest = build_nesting_forest(config)
        for o in config.ovals:
            containing = sum(ray_cast(p.vertices, o.vertices[0]) for p in config.ovals if p.id != o.id)
            assert forest.nodes[o.id].depth == 1 + containing
        assert {i: forest.nodes[i].depth for i in (1, 2, 3, 4, 6)} == {1: 1, 2: 2, 3: 3, 4: 1, 6: 1}
        assert [forest.nodes[i].parent for i in (2, 3)] == [1, 2]

    def test_node_count_equals_oval_count(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            config = random_circle_config(rng)
            forest = build_nesting_forest(config)
            assert len(forest.nodes) == config.N
            for node in forest.nodes.values():
                if node.parent is not None:
                    assert forest.nodes[node.parent].depth == node.depth - 1


class TestDomains:
    def test_single_oval(self):
        config = validate_configuration([square(1.0, 1)])
        domains = build_domains(build_nesting_forest(config))
        assert len(domains) == 1
        assert domains[0].holes == ()
        assert domains[0].area == pytest.approx(1.0)

    def test_annulus_areas(self, side1_annulus):
        domains = build_domains(build_nesting_forest(side1_annulus))
        areas = sorted(d.area for d in domains)
        assert areas == pytest.approx([0.25, 0.75])

    def test_points_in_domain_excludes_holes(self, side1_annulus):
        outer, inner = build_domains(build_nesting_forest(side1_annulus))
        pts = np.array([[0.0, 0.0], [0.375, 0.0], [0.75, 0.0]])
        assert points_in_domain(outer, pts).tolist() == [False, True, False]
        assert points_in_domain(inner, pts).tolist() == [True, False, False]

    def test_nested_depth3_count(self):
        ovals = [
            regular_polygon((0.0, 0.0), 0.9, 32, 1),
            regular_polygon((0.0, 0.0), 0.6, 32, 2),
            regular_polygon((0.0, 0.0), 0.3, 32, 3),
            regular_polygon((0.76, 0.0), 0.1, 32, 4),
        ]
        config = validate_configuration(ovals)
        domains = build_domains(build_nesting_forest(config))
        assert len(domains) == config.N == 4

    def test_domain_count_and_area_conservation(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            config = random_circle_config(rng)
            forest = build_nesting_forest(config)
            domains = build_domains(forest)
            assert len(domains) == config.N
            by_id = {o.id: o for o in config.ovals}
            roots = [by_id[i] for i in forest_roots(forest)]
            total_roots = sum(shoelace_area(o.vertices) for o in roots)
            total_domains = sum(d.area for d in domains)
            assert total_domains == pytest.approx(total_roots, rel=1e-9)

    def test_adding_inner_oval_splits_area(self):
        base = [square(1.2, 1)]
        config = validate_configuration(base)
        [dom] = build_domains(build_nesting_forest(config))
        inner = square(0.5, 2)
        config2 = validate_configuration(base + [inner])
        domains2 = build_domains(build_nesting_forest(config2))
        assert len(domains2) == 2
        outer_dom = next(d for d in domains2 if d.outer.id == 1)
        inner_area = shoelace_area(inner.vertices)
        assert outer_dom.area == pytest.approx(dom.area - inner_area)


class TestAreas:
    def test_unit_square(self):
        dom = build_domains(build_nesting_forest(validate_configuration([square(1.0, 1)])))[0]
        assert dom.area == pytest.approx(1.0)

    def test_square_with_hole(self, side1_annulus):
        domains = build_domains(build_nesting_forest(side1_annulus))
        ring = next(d for d in domains if d.holes)
        assert ring.area == pytest.approx(0.75)

    def test_regular_64gon(self):
        oval = regular_polygon((0.0, 0.0), 1.0, 64, 1)
        expected = 32.0 * math.sin(2.0 * math.pi / 64.0)
        assert shoelace_area(oval.vertices) == pytest.approx(expected, rel=1e-12)
        # cross-check: triangle fan from the centroid
        v = oval.vertices
        w = np.roll(v, -1, axis=0)
        fan = 0.5 * np.abs(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]).sum()
        assert fan == pytest.approx(expected, rel=1e-12)

    def test_mu(self, side1_annulus):
        domains = build_domains(build_nesting_forest(side1_annulus))
        assert mu(domains) == pytest.approx(0.25)
        assert mu(domains) == min(d.area for d in domains)

    def test_mu_single(self):
        config = validate_configuration([square(math.sqrt(0.5), 1)])
        assert mu(build_domains(build_nesting_forest(config))) == pytest.approx(0.5)

    def test_mu_empty(self):
        with pytest.raises(ValidationError, match=r"configuration has no domains"):
            mu([])


class TestBallAnnulusFixture:
    def test_fits_without_opt_out(self, ball_annulus):
        domains = build_domains(build_nesting_forest(ball_annulus))
        assert sorted(d.area for d in domains) == pytest.approx([1.0, 1.0])
        assert mu(domains) == pytest.approx(1.0)


class TestPointInPolygon:
    def test_basic(self):
        verts = square(2.0, 1).vertices
        assert points_in_polygon(verts, [(0.0, 0.0)])[0]
        assert not points_in_polygon(verts, [(2.0, 0.0)])[0]

    def test_ray_through_vertex(self):
        # the horizontal ray from the query passes exactly through two vertices
        verts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert points_in_polygon(verts, [(0.0, 0.0)])[0]
        assert not points_in_polygon(verts, [(1.5, 0.0)])[0]

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        verts = regular_polygon((0.1, -0.2), 0.5, 17, 1).vertices
        pts = rng.uniform(-1, 1, size=(200, 2))
        batch = points_in_polygon(verts, pts)
        single = np.array([ray_cast(verts, p) for p in pts])
        assert np.array_equal(batch, single)


class TestSampleBoundary:
    def test_count_and_membership(self):
        oval = regular_polygon((0.0, 0.0), 0.5, 64, 1)
        pts = sample_boundary(oval, 256)
        assert pts.shape == (256, 2)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.all(radii <= 0.5 + 1e-12)
        assert np.all(radii >= 0.5 * math.cos(math.pi / 64) - 1e-12)

    def test_nested_under_doubling(self):
        oval = regular_polygon((0.2, 0.1), 0.4, 48, 1)
        coarse = sample_boundary(oval, 128)
        fine = sample_boundary(oval, 256)
        assert np.allclose(fine[::2], coarse, atol=1e-12)

    def test_hits_all_vertices_when_count_divisible(self):
        oval = square(1.0, 1)
        pts = sample_boundary(oval, 8)
        for v in oval.vertices:
            assert np.min(np.hypot(pts[:, 0] - v[0], pts[:, 1] - v[1])) <= 1e-12

    def test_count_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_LATTICE", 8)
        oval = square(1.0, 1)
        assert sample_boundary(oval, 8).shape == (8, 2)
        for bad in (0, 9, 10**20):
            with pytest.raises(ValidationError, match=f"boundary sample count must be in 1..8, got {bad}"):
                sample_boundary(oval, bad)


class TestLattice:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shape_endpoints_and_order(self, n):
        lo, hi, k = np.arange(n) - 1.5, np.arange(n) + 0.25, 5
        pts = lattice(lo, hi, k)
        assert pts.shape == (k**n, n)
        assert np.array_equal(pts[0], lo) and np.array_equal(pts[-1], hi)
        for axis in range(n):
            # axis 0 changes slowest: each axis value repeats in blocks of k**(n-1-axis)
            levels = np.linspace(lo[axis], hi[axis], k)
            expected = np.tile(np.repeat(levels, k ** (n - 1 - axis)), k**axis)
            assert np.array_equal(pts[:, axis], expected)

    def test_bounding_box(self):
        lo, hi = bounding_box([square(1.0, 1, center=(0.5, -0.25)), square(0.5, 2, center=(-0.5, 0.0))])
        assert np.array_equal(lo, [-0.75, -0.75]) and np.array_equal(hi, [1.0, 0.25])

    def test_no_ovals_to_bound(self):
        with pytest.raises(ValidationError, match="no ovals to bound"):
            bounding_box([])
        with pytest.raises(ValidationError, match="no ovals to bound"):
            render_svg([])

    @pytest.mark.parametrize("n, k", [(1, 2**24 + 1), (2, 4097), (3, 257), (2, 10**6)])
    def test_more_than_2_to_the_24_points_rejected(self, n, k):
        with pytest.raises(ValidationError, match=f"lattice of {k} points per axis in {n}D exceeds 16777216 points"):
            lattice((0.0,) * n, (1.0,) * n, k)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_LATTICE", 27)
        assert lattice((0.0,) * 3, (1.0,) * 3, 3).shape == (27, 3)
        with pytest.raises(ValidationError):
            lattice((0.0,) * 3, (1.0,) * 3, 4)


class TestUnitBall:
    def test_closed_ball_up_to_tolerance(self):
        r = np.array([0.0, 1.0, 1.0 + 0.5e-9, 1.0 + 2e-9, 2.0, math.nan, math.inf])
        assert in_unit_ball(np.stack([0.6 * r, 0.8 * r], axis=1)).tolist() == [
            True, True, True, False, False, False, False,
        ]
        assert in_unit_ball([[0.5, 0.5, 0.5], [0.6, 0.6, 0.6]]).tolist() == [True, False]
        assert in_unit_ball(np.zeros((0, 2))).shape == (0,)

    def test_every_ball_check_reads_one_tolerance(self, monkeypatch):
        from rigidkit.cli import _candidate_grid
        from rigidkit.curves import fit_curve
        from rigidkit.remez import remez_estimate_lp

        wide = np.linspace(-1.2, 1.2, 7).reshape(-1, 1)
        checks = [
            lambda: validate_configuration([regular_polygon((0.0, 0.0), 1.2, 8, 1)]),
            lambda: remez_estimate_lp(wide, 1, wide),
            lambda: _candidate_grid(2, 2),
            lambda: fit_curve([[1.2, 0.0]], 1),
        ]
        for check in checks:
            with pytest.raises(ValidationError, match="unit ball"):
                check()
        monkeypatch.setattr(geometry, "_BALL_TOL", 0.5)
        for check in checks:
            check()


class TestJsonInterface:
    def test_round_trip(self, tmp_path, ball_annulus):
        path = write_config_json(ball_annulus, tmp_path / "cfg.json")
        import json

        with open(path, encoding="utf-8") as fh:
            config = config_from_json_dict(json.load(fh))
        assert config.N == 2
        assert {o.id for o in config.ovals} == {1, 2}

    def test_missing_field(self):
        with pytest.raises(ValidationError):
            config_from_json_dict({"polygons": []})
