import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    forest_roots,
    oval_vertices,
    random_circle_config,
    ray_cast,
    regular_polygon,
    sample_oval,
    shoelace_area,
    square,
    write_config_json,
)
from rigidkit import errors, geometry
from rigidkit.curves import composition_report, fit_curve
from rigidkit.errors import ValidationError
from rigidkit.geometry import (
    Oval,
    build_domains,
    build_nesting_forest,
    candidate_grid,
    config_from_json_dict,
    in_unit_ball,
    lattice,
    mu,
    points_in_domain,
    sample_boundary,
    validate_configuration,
)
from rigidkit.poly import MultiPoly, basis_size, eval_polys
from rigidkit.rigidity import rigidity_1d_bound


def rect(x0, x1, y0, y1, oval_id) -> Oval:
    return Oval(id=oval_id, vertices=np.array([[x1, y1], [x0, y1], [x0, y0], [x1, y0]]))


def containing(config, k) -> set[int]:
    """Indices of the ovals other than k whose polygon contains oval k's first vertex, by the pure-Python ray cast."""
    rings = oval_vertices(config)
    return {j for j, v in enumerate(rings) if j != k and ray_cast(v, rings[k][0])}


def ancestors(parent, k) -> list[int]:
    """Oval k's chain of parents in the forest, nearest first."""
    chain = []
    while parent[k] >= 0:
        k = int(parent[k])
        assert k not in chain
        chain.append(k)
    return chain


def one_oval_domain(oval: Oval):
    """``points_in_domain`` of the configuration holding only ``oval``: that polygon's even-odd rule."""
    config = validate_configuration([oval])
    return lambda points: points_in_domain(config, build_nesting_forest(config)[0], 0, points)


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

    @pytest.mark.parametrize("rows", [0, 1, 2])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_short_oval_first_middle_or_last(self, rows, at):
        # segment sums and per-oval reductions must not misread an oval with no, one or two vertices
        ovals = [square(0.4, 1, center=(-0.5, 0.0)), square(0.4, 2, center=(0.5, 0.0))]
        ovals.insert(at, Oval(id=9, vertices=np.full((rows, 2), 0.25)))
        with pytest.raises(ValidationError, match=f"^oval 9 has {rows} vertices, need at least 3$"):
            validate_configuration(ovals)
        # an earlier oval's own fault still comes first
        clockwise = Oval(id=3, vertices=square(0.25, 3, center=(0.0, 0.5)).vertices[::-1])
        with pytest.raises(ValidationError, match=r"^domain of oval 3 has non-positive area -0\.0625$"):
            validate_configuration([clockwise] + ovals)

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
            ovals = [Oval(id=i, vertices=v) for i, v in zip(config.ids, oval_vertices(config))]
            assert validate_configuration(ovals).N == config.N

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
        verts, _, succ, owner = geometry._stack(ovals)
        assert geometry._first_touching(verts, succ, owner, len(ovals)) == (0, (1, 2))
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

    def test_thousand_rings_validate_in_bounded_memory(self):
        # 48 000 edges in 1000 concentric rings: every step of the sweep stays chunk-sized
        ovals = [regular_polygon((0.0, 0.0), 0.95 * (1000 - i) / 1000, 48, i + 1) for i in range(1000)]
        tracemalloc.start()
        try:
            assert validate_configuration(ovals).N == 1000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_areas_match_the_per_polygon_shoelace_bit_for_bit(self):
        # vertex counts on both sides of numpy's pairwise-summation blocks, in one stacked array
        rng = np.random.default_rng(11)
        sizes = [1000, 300, 129, 128, 127, 17, 9, 8, 5, 3]
        ovals = [regular_polygon((0.0, 0.0), 0.95 - 0.09 * i, k, i + 1) for i, k in enumerate(sizes)]
        ovals = [Oval(id=o.id, vertices=np.roll(o.vertices + rng.uniform(-1e-7, 1e-7, o.vertices.shape), k, axis=0))
                 for k, o in enumerate(ovals)]
        config = validate_configuration(ovals)
        assert config.areas == tuple(shoelace_area(o.vertices) for o in ovals)
        for _ in range(5):
            config = random_circle_config(rng)
            assert config.areas == tuple(shoelace_area(v) for v in oval_vertices(config))


def brute_force_box_pairs(p0, p1, other=None):
    """Sorted (a, b) with overlapping closed bounding boxes: a < b for one set, every a, b for two."""
    lo_a, hi_a = np.minimum(p0, p1), np.maximum(p0, p1)
    lo_b, hi_b = (lo_a, hi_a) if other is None else (np.minimum(*other), np.maximum(*other))
    overlap = np.all(lo_a[:, None] <= hi_b[None], axis=2) & np.all(lo_b[None] <= hi_a[:, None], axis=2)
    if other is None:
        overlap = np.triu(overlap, 1)
    return sorted(zip(*(idx.tolist() for idx in np.nonzero(overlap))))


def swept_box_pairs(p0, p1, other=None):
    """The sweep's pairs as ``brute_force_box_pairs`` orders them.

    With two sets, the sweep runs over p0-p1 stacked before ``other`` and keeps
    the mixed pairs, mapped back to indices in each set, as the crossing count does.
    """
    n = len(p0)
    if other is not None:
        p0, p1 = np.concatenate([p0, other[0]]), np.concatenate([p1, other[1]])
    out = []
    for a, b in geometry._box_pairs(p0, p1):
        out += zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist())
    return sorted(out) if other is None else sorted((a, b - n) for a, b in out if a < n <= b)


def segment_sets():
    """Named (p0, p1) segment sets: random ones and the degenerate shapes the strips must survive."""
    rng = np.random.default_rng(29)
    p0 = rng.uniform(-1, 1, (150, 2))
    short = (p0, p0 + rng.normal(0.0, 0.1, p0.shape))
    grid = rng.integers(-4, 5, (120, 2)) / 4  # dyadic: many ties in x, in y and on strip edges
    xs = rng.uniform(-1, 1, 80)
    spanning = (np.vstack([short[0][:60], [[0.0, -1.0]]]), np.vstack([short[1][:60], [[0.1, 1.0]]]))
    points = rng.integers(-3, 4, (60, 2)) / 4
    dup = (np.vstack([short[0][:40]] * 3), np.vstack([short[1][:40]] * 3))
    return {
        "random": short,
        "dyadic": (grid, grid + rng.integers(-2, 3, grid.shape) / 4),
        "one horizontal line": (np.column_stack([xs, np.full(80, 0.3)]), np.column_stack([xs + 0.2, np.full(80, 0.3)])),
        "one edge spans all y": spanning,
        "zero-size boxes": (points, points.copy()),
        "one hairline box among points": (np.vstack([points, [[0.1, 0.0]]]), np.vstack([points, [[0.1, 1e-200]]])),
        "duplicate boxes": dup,
        "reversed duplicates": (np.vstack([short[0][:40], short[1][:40]]), np.vstack([short[1][:40], short[0][:40]])),
    }


SETS = segment_sets()


class TestBoxPairs:
    """The sweep against the O(E^2) reference: the same pairs, each once, for any chunk size."""

    @pytest.mark.parametrize("chunk", [1, 7, geometry._PAIR_CHUNK])
    @pytest.mark.parametrize("name", list(SETS))
    def test_self_pairs_match_brute_force(self, name, chunk, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        p0, p1 = SETS[name]
        assert swept_box_pairs(p0, p1) == brute_force_box_pairs(p0, p1)

    @pytest.mark.parametrize("chunk", [1, 7, geometry._PAIR_CHUNK])
    @pytest.mark.parametrize("name", list(SETS))
    def test_bipartite_pairs_match_brute_force(self, name, chunk, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        p0, p1 = SETS[name]
        for other in (SETS["random"], SETS["zero-size boxes"], (p0, p1), (p0[:1], p1[:1])):
            assert swept_box_pairs(p0, p1, other) == brute_force_box_pairs(p0, p1, other)
            assert swept_box_pairs(*other, (p0, p1)) == brute_force_box_pairs(*other, (p0, p1))


class TestContains:
    """Containment as the nesting forest records it: depth 1 + the number of containing ovals."""

    def test_nested_squares(self, side1_annulus):
        parent, depth = build_nesting_forest(side1_annulus)
        assert depth.tolist() == [1, 2]
        assert parent.tolist() == [-1, 0]

    def test_side_by_side(self):
        a = square(0.5, 1, center=(-0.4, 0.0))
        b = square(0.5, 2, center=(0.4, 0.0))
        config = validate_configuration([a, b])
        parent, depth = build_nesting_forest(config)
        assert depth.tolist() == [1, 1]
        assert sorted(forest_roots(config, parent)) == [1, 2]

    def test_strict_partial_order(self):
        # the containing ovals of each oval, by the pure-Python ray cast, are
        # exactly its ancestors in the forest: a chain, so containment is a
        # strict partial order whose depth is the chain length
        rng = np.random.default_rng(31)
        for _ in range(5):
            config = random_circle_config(rng)
            parent, depth = build_nesting_forest(config)
            for k in range(config.N):
                chain = ancestors(parent, k)
                assert k not in chain
                assert containing(config, k) == set(chain)
                assert depth[k] == 1 + len(chain)


class TestForest:
    def test_three_disjoint_circles(self):
        ovals = [
            regular_polygon((-0.6, 0.0), 0.2, 16, 1),
            regular_polygon((0.6, 0.0), 0.2, 16, 2),
            regular_polygon((0.0, 0.6), 0.2, 16, 3),
        ]
        config = validate_configuration(ovals)
        parent, depth = build_nesting_forest(config)
        assert sorted(forest_roots(config, parent)) == [1, 2, 3]
        assert depth.tolist() == [1, 1, 1]

    def test_chain_depths(self):
        ovals = [
            regular_polygon((0.0, 0.0), 0.9, 32, 1),
            regular_polygon((0.0, 0.0), 0.6, 32, 2),
            regular_polygon((0.0, 0.0), 0.3, 32, 3),
        ]
        parent, depth = build_nesting_forest(validate_configuration(ovals))
        assert depth.tolist() == [1, 2, 3]
        assert parent.tolist() == [-1, 0, 1]

    def test_root_two_children_one_grandchild(self):
        ovals = [
            regular_polygon((0.0, 0.0), 0.95, 32, 1),
            regular_polygon((-0.45, 0.0), 0.35, 32, 2),
            regular_polygon((0.5, 0.0), 0.25, 32, 3),
            regular_polygon((-0.45, 0.0), 0.15, 32, 4),
        ]
        config = validate_configuration(ovals)
        parent, depth = build_nesting_forest(config)
        assert sorted(depth.tolist()) == [1, 2, 2, 3]
        # oracle: depth = 1 + number of ovals containing the oval
        for k in range(config.N):
            assert depth[k] == 1 + len(containing(config, k))

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
        ovals = [right, middle, left, octagon, diamond]
        config = validate_configuration(ovals)
        reps = np.array([o.vertices[0] for o in ovals])
        levels = [set(o.vertices[:, 1].tolist()) for o in ovals]
        assert all(
            any(y in levels[j] for j in range(len(reps)) if j != i) for i, y in enumerate(reps[:, 1].tolist())
        )
        for p in ovals:
            single = [ray_cast(p.vertices, r) for r in reps]
            assert one_oval_domain(p)(reps).tolist() == single
        parent, depth = build_nesting_forest(config)
        for k in range(config.N):
            assert depth[k] == 1 + len(containing(config, k))
        # ids 4, 2, 6, 1, 3 in configuration order
        assert depth.tolist() == [1, 2, 1, 1, 3]
        assert parent.tolist() == [-1, 3, -1, -1, 1]

    def test_node_count_equals_oval_count(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            config = random_circle_config(rng)
            parent, depth = build_nesting_forest(config)
            assert len(parent) == len(depth) == config.N
            for k in np.flatnonzero(parent >= 0):
                assert depth[parent[k]] == depth[k] - 1


class TestDomains:
    def test_single_oval(self):
        config = validate_configuration([square(1.0, 1)])
        parent, _ = build_nesting_forest(config)
        areas = build_domains(config, parent)
        assert len(areas) == 1
        assert parent.tolist() == [-1]  # no oval, so no hole, inside it
        assert areas[0] == pytest.approx(1.0)

    def test_annulus_areas(self, side1_annulus):
        areas = build_domains(side1_annulus, build_nesting_forest(side1_annulus)[0])
        assert sorted(areas.tolist()) == pytest.approx([0.25, 0.75])

    def test_points_in_domain_excludes_holes(self, side1_annulus):
        parent, _ = build_nesting_forest(side1_annulus)
        pts = np.array([[0.0, 0.0], [0.375, 0.0], [0.75, 0.0]])
        assert points_in_domain(side1_annulus, parent, 0, pts).tolist() == [False, True, False]
        assert points_in_domain(side1_annulus, parent, 1, pts).tolist() == [True, False, False]

    def test_nested_depth3_count(self):
        ovals = [
            regular_polygon((0.0, 0.0), 0.9, 32, 1),
            regular_polygon((0.0, 0.0), 0.6, 32, 2),
            regular_polygon((0.0, 0.0), 0.3, 32, 3),
            regular_polygon((0.76, 0.0), 0.1, 32, 4),
        ]
        config = validate_configuration(ovals)
        areas = build_domains(config, build_nesting_forest(config)[0])
        assert len(areas) == config.N == 4

    def test_domain_count_and_area_conservation(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            config = random_circle_config(rng)
            parent, _ = build_nesting_forest(config)
            areas = build_domains(config, parent)
            assert len(areas) == config.N
            by_id = dict(zip(config.ids, oval_vertices(config)))
            total_roots = sum(shoelace_area(by_id[i]) for i in forest_roots(config, parent))
            assert sum(areas.tolist()) == pytest.approx(total_roots, rel=1e-9)
            # each area is the outer oval's minus its holes', summed in configuration order, bit for bit
            holes = [[h for h in range(config.N) if parent[h] == k] for k in range(config.N)]
            assert areas.tolist() == [config.areas[k] - sum(config.areas[h] for h in holes[k]) for k in range(config.N)]

    def test_adding_inner_oval_splits_area(self):
        base = [square(1.2, 1)]
        config = validate_configuration(base)
        [area] = build_domains(config, build_nesting_forest(config)[0])
        inner = square(0.5, 2)
        config2 = validate_configuration(base + [inner])
        areas2 = build_domains(config2, build_nesting_forest(config2)[0])
        assert len(areas2) == 2
        assert areas2[0] == pytest.approx(area - shoelace_area(inner.vertices))

    def test_non_positive_domain_area_rejected(self, side1_annulus):
        parent, _ = build_nesting_forest(side1_annulus)
        # stored areas whose hole fills its outer oval: the domain of oval 1 is empty
        config = dataclasses.replace(side1_annulus, areas=(0.25, 0.25))
        with pytest.raises(ValidationError, match=r"^domain of oval 1 has non-positive area 0\.0$"):
            build_domains(config, parent)


class TestAreas:
    def test_unit_square(self):
        config = validate_configuration([square(1.0, 1)])
        assert build_domains(config, build_nesting_forest(config)[0])[0] == pytest.approx(1.0)

    def test_square_with_hole(self, side1_annulus):
        parent, _ = build_nesting_forest(side1_annulus)
        areas = build_domains(side1_annulus, parent)
        [ring] = [k for k in range(side1_annulus.N) if np.any(parent == k)]
        assert areas[ring] == pytest.approx(0.75)

    def test_regular_64gon(self):
        oval = regular_polygon((0.0, 0.0), 1.0, 64, 1)
        expected = 32.0 * math.sin(2.0 * math.pi / 64.0)
        assert validate_configuration([oval]).areas[0] == pytest.approx(expected, rel=1e-12)
        # cross-check: triangle fan from the centroid
        v = oval.vertices
        w = np.roll(v, -1, axis=0)
        fan = 0.5 * np.abs(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]).sum()
        assert fan == pytest.approx(expected, rel=1e-12)

    def test_mu(self, side1_annulus):
        areas = build_domains(side1_annulus, build_nesting_forest(side1_annulus)[0])
        assert mu(areas) == pytest.approx(0.25)
        assert mu(areas) == min(areas.tolist())

    def test_mu_single(self):
        config = validate_configuration([square(math.sqrt(0.5), 1)])
        assert mu(build_domains(config, build_nesting_forest(config)[0])) == pytest.approx(0.5)

    def test_mu_empty(self):
        with pytest.raises(ValidationError, match=r"configuration has no domains"):
            mu([])


class TestBallAnnulusFixture:
    def test_fits_without_opt_out(self, ball_annulus):
        areas = build_domains(ball_annulus, build_nesting_forest(ball_annulus)[0])
        assert sorted(areas.tolist()) == pytest.approx([1.0, 1.0])
        assert mu(areas) == pytest.approx(1.0)


class TestPointInPolygon:
    """The domain of a lone oval is its polygon, by the even-odd rule."""

    def test_basic(self):
        inside = one_oval_domain(square(1.0, 1))
        assert inside([(0.0, 0.0)])[0]
        assert not inside([(1.0, 0.0)])[0]

    def test_ray_through_vertex(self):
        # the horizontal ray from the query passes exactly through two vertices
        inside = one_oval_domain(Oval(id=1, vertices=np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]])))
        assert inside([(0.0, 0.0)])[0]
        assert not inside([(0.75, 0.0)])[0]

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        oval = regular_polygon((0.1, -0.2), 0.5, 17, 1)
        pts = rng.uniform(-1, 1, size=(200, 2))
        single = np.array([ray_cast(oval.vertices, p) for p in pts])
        assert np.array_equal(one_oval_domain(oval)(pts), single)


class TestSampleBoundary:
    def test_count_limit_is_inclusive(self, monkeypatch):
        # a point set holds 2 floats per point: 16 entries take 8 samples of one oval, or 4 of each of two
        monkeypatch.setattr(errors, "MAX_ENTRIES", 16)
        one = validate_configuration([square(1.0, 1)])
        two = validate_configuration([square(1.0, 1), square(0.5, 2)])
        assert sample_boundary(one, 8).shape == sample_boundary(two, 4).shape == (8, 2)
        for config, count in ((one, 9), (two, 5), (two, 10**20)):
            with pytest.raises(ValidationError, match=f"^{config.N} ovals x {count} boundary samples would hold"):
                sample_boundary(config, count)
        with pytest.raises(ValidationError, match="^boundary sample count must be >= 1, got 0$"):
            sample_boundary(two, 0)

    def test_count_and_membership(self):
        config = validate_configuration([regular_polygon((0.0, 0.0), 0.5, 64, 1)])
        pts = sample_boundary(config, 256)
        assert pts.shape == (256, 2)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.all(radii <= 0.5 + 1e-12)
        assert np.all(radii >= 0.5 * math.cos(math.pi / 64) - 1e-12)

    def test_nested_under_doubling(self):
        ovals = [regular_polygon((0.2, 0.1), 0.4, 48, 1), regular_polygon((0.2, 0.1), 0.2, 7, 2)]
        config = validate_configuration(ovals)
        coarse = sample_boundary(config, 128)
        fine = sample_boundary(config, 256)
        assert np.allclose(fine[::2], coarse, atol=1e-12)

    def test_hits_all_vertices_when_count_divisible(self):
        oval = square(1.0, 1)
        pts = sample_boundary(validate_configuration([oval]), 8)
        for v in oval.vertices:
            assert np.min(np.hypot(pts[:, 0] - v[0], pts[:, 1] - v[1])) <= 1e-12

    @pytest.mark.parametrize("count", [1, 3, 7, 256, 1000])
    def test_matches_per_oval_reference_bit_for_bit(self, count):
        # ovals of 3 and of 10 000 vertices, with uneven edges, each summed over its own edges only
        rng = np.random.default_rng(11)
        ovals = [
            regular_polygon((0.0, 0.0), 0.9, 10_000, 1),
            Oval(id=2, vertices=np.array([[0.3, 0.1], [-0.2, 0.35], [-0.1, -0.4]])),
            regular_polygon((0.55, 0.1), 0.1, 3, 3),
        ]
        ovals[0] = Oval(id=1, vertices=ovals[0].vertices * rng.uniform(0.99, 1.0, (10_000, 1)))
        config = validate_configuration(ovals)
        expected = np.concatenate([sample_oval(o.vertices, count) for o in ovals])
        assert np.array_equal(sample_boundary(config, count), expected)


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

    @pytest.mark.parametrize("n, k", [(1, 2**24 + 1), (2, 2897), (2, 4097), (3, 257), (2, 10**6)])
    def test_more_than_2_to_the_24_points_rejected(self, n, k):
        # k**n points of n coordinates each; in 2D the lattice stops at 2896 points per axis
        message = f"^a lattice of {k} points per axis in {n}D would hold {k**n * n} entries, more than 16777216$"
        with pytest.raises(ValidationError, match=message):
            lattice((0.0,) * n, (1.0,) * n, k)

    def test_limit_is_inclusive(self, monkeypatch):
        # k**n points of n coordinates: 16 entries take 16 points in 1D, 81 take 3 per axis in 3D
        monkeypatch.setattr(errors, "MAX_ENTRIES", 16)
        assert lattice((0.0,), (1.0,), 16).shape == (16, 1)
        with pytest.raises(ValidationError, match="^a lattice of 17 points per axis in 1D would hold 17 entries"):
            lattice((0.0,), (1.0,), 17)
        monkeypatch.setattr(errors, "MAX_ENTRIES", 81)
        assert lattice((0.0,) * 3, (1.0,) * 3, 3).shape == (27, 3)
        with pytest.raises(ValidationError, match="^a lattice of 4 points per axis in 3D would hold 192 entries"):
            lattice((0.0,) * 3, (1.0,) * 3, 4)

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_fewer_than_2_points_per_axis_rejected(self, k):
        with pytest.raises(ValidationError, match=f"^a lattice needs at least 2 points per axis, got {k}$"):
            lattice((0.0, 0.0), (1.0, 1.0), k)


class TestEntryLimit:
    def test_every_size_check_reads_one_limit(self, monkeypatch):
        # each call builds an array of exactly `entries` floats: it passes at that limit and not one entry below
        one = validate_configuration([square(1.0, 1)])
        two = validate_configuration([square(1.0, 1), square(0.5, 2)])
        quad = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        line = (MultiPoly(1, {(1,): 0.5}), MultiPoly(1, {(1,): 0.5}))
        sized = [
            (lambda: lattice((0.0,) * 3, (1.0,) * 3, 3), 81, "a lattice of 3 points per axis in 3D"),
            (lambda: sample_boundary(one, 16), 32, "1 ovals x 16 boundary samples"),
            (lambda: sample_boundary(two, 8), 32, "2 ovals x 8 boundary samples"),
            (lambda: basis_size(1, 8), 81, "an m x m factor of a basis of 9 monomials"),
            (lambda: eval_polys([quad] * 3, [np.zeros(5), 0.5]), 15, "the values of 3 polynomials at 5 points"),
            # 32^2 entries, more than the 1000 of the image check that follows
            (lambda: fit_curve(np.zeros((32, 1)), 31), 1024, "an interpolation matrix of 32 curve points"),
            # the 3 second derivatives of quad at 5 grid points
            (lambda: composition_report(quad, line, 1, 1, 5), 15, "the values of 3 polynomials at 5 points"),
        ]
        for build, entries, array in sized:
            monkeypatch.setattr(errors, "MAX_ENTRIES", entries)
            build()
            monkeypatch.setattr(errors, "MAX_ENTRIES", entries - 1)
            with pytest.raises(ValidationError, match=f"^{re.escape(array)} would hold {entries} entries, more than {entries - 1}$"):
                build()


class TestUnitBall:
    def test_closed_ball_up_to_tolerance(self):
        r = np.array([0.0, 1.0, 1.0 + 0.5e-9, 1.0 + 2e-9, 2.0, math.nan, math.inf])
        assert in_unit_ball(np.stack([0.6 * r, 0.8 * r], axis=1)).tolist() == [
            True, True, True, False, False, False, False,
        ]
        assert in_unit_ball([[0.5, 0.5, 0.5], [0.6, 0.6, 0.6]]).tolist() == [True, False]
        assert in_unit_ball(np.zeros((0, 2))).shape == (0,)

    def test_every_ball_check_reads_one_tolerance(self, monkeypatch):
        from rigidkit.curves import fit_curve
        from rigidkit.fractal import box_dimension_estimate
        from rigidkit.remez import remez_estimate_lp

        wide = np.linspace(-1.2, 1.2, 7).reshape(-1, 1)
        checks = [
            lambda: validate_configuration([regular_polygon((0.0, 0.0), 1.2, 8, 1)]),
            lambda: remez_estimate_lp(wide, 1, wide),
            lambda: candidate_grid(2, 2),
            lambda: fit_curve([[1.2, 0.0]], 1),
            lambda: rigidity_1d_bound([1.2, 0.0], 0.5, 1),
            lambda: box_dimension_estimate([[1.2, 0.0]], [0.5, 0.25, 0.125]),
        ]
        for check in checks:
            with pytest.raises(ValidationError, match=r"unit (max-norm )?ball|\[-1, 1\]"):
                check()
        monkeypatch.setattr(errors, "BALL_TOL", 0.5)
        for check in checks:
            check()

    @pytest.mark.parametrize(
        "v", [s * x for x in (0.0, 1.0, 1.0 + 0.5e-9, 1.0 + 2e-9, 1e-300, 1e300, math.nan, math.inf) for s in (1, -1)]
    )
    def test_scalar_ball_check_decides_as_in_unit_ball(self, v):
        inside = bool(in_unit_ball([[v]])[0])
        for zeros, z0 in (([v], 0.25), ([0.5], v)):
            if inside:
                rigidity_1d_bound(zeros, z0, 0)
            else:
                with pytest.raises(ValidationError, match=r"\[-1, 1\]"):
                    rigidity_1d_bound(zeros, z0, 0)


class TestJsonInterface:
    def test_round_trip(self, tmp_path, ball_annulus):
        path = write_config_json(ball_annulus, tmp_path / "cfg.json")
        import json

        with open(path, encoding="utf-8") as fh:
            config = config_from_json_dict(json.load(fh))
        assert config.N == 2
        assert set(config.ids) == {1, 2}

    def test_missing_field(self):
        with pytest.raises(ValidationError):
            config_from_json_dict({"polygons": []})
