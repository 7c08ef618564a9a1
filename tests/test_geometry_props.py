"""Property-based checks of validation, nesting and areas against exact oracles.

Every finite vertex coordinate is dyadic (a multiple of a power of two well inside
double precision), so the float predicates compute exactly and must agree
with rational arithmetic. Validation is compared with a brute-force
``fractions.Fraction`` test over every edge pair, of one oval and of two, that
predicts the exact error message; the nesting forest's parents, children and
depths with the tree the configuration was built from; point location with
the pure-Python ray cast of the outer oval and of each hole.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import ray_cast, shoelace_area  # noqa: E402
from rigidkit.errors import ValidationError  # noqa: E402
from rigidkit.geometry import (  # noqa: E402
    Oval,
    build_domains,
    build_nesting_forest,
    points_in_domain,
    validate_configuration,
)

PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)

# strictly convex, counterclockwise; every vertex lies in the square of half-size 1
OCTAGON = ((1, 0.5), (0.5, 1), (-0.5, 1), (-1, 0.5), (-1, -0.5), (-0.5, -1), (0.5, -1), (1, -0.5))
SQUARE = ((1, 1), (-1, 1), (-1, -1), (1, -1))
DIAMOND = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _polygon(shape, cx, cy, r, roll, oval_id) -> Oval:
    verts = np.array([(cx + r * u, cy + r * v) for u, v in shape])
    return Oval(id=oval_id, vertices=np.roll(verts, roll, axis=0))


# --- exact oracle ---------------------------------------------------------


def _orient(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _within(a, b, p) -> bool:
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def _touch(p0, p1, q0, q1) -> bool:
    d1, d2 = _orient(q0, q1, p0), _orient(q0, q1, p1)
    d3, d4 = _orient(p0, p1, q0), _orient(p0, p1, q1)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (
        (d1 == 0 and _within(q0, q1, p0))
        or (d2 == 0 and _within(q0, q1, p1))
        or (d3 == 0 and _within(p0, p1, q0))
        or (d4 == 0 and _within(p0, p1, q1))
    )


def _exact_edges(oval: Oval):
    pts = [(Fraction(x), Fraction(y)) for x, y in oval.vertices.tolist()]
    return list(zip(pts, pts[1:] + pts[:1]))


def exact_first_touching_pair(ovals):
    edges = [_exact_edges(o) for o in ovals]
    for i in range(len(ovals)):
        for j in range(i + 1, len(ovals)):
            if any(_touch(p0, p1, q0, q1) for p0, p1 in edges[i] for q0, q1 in edges[j]):
                return i, j
    return None


def _exact_self_fault(oval: Oval) -> bool:
    """Non-neighbour edges touching, a zero-length edge or a fold-back spike."""
    edges = _exact_edges(oval)
    k = len(edges)
    if any(
        _touch(*edges[i], *edges[j])
        for i in range(k)
        for j in range(i + 2, k)
        if (i, j) != (0, k - 1)
    ):
        return True
    if any(p0 == p1 for p0, p1 in edges):
        return True
    for (prev, v), (_, nxt) in zip(edges[-1:] + edges[:-1], edges):
        back = (prev[0] - v[0]) * (nxt[0] - v[0]) + (prev[1] - v[1]) * (nxt[1] - v[1])
        if _orient(v, prev, nxt) == 0 and back > 0:
            return True
    return False


def _exact_area(oval: Oval) -> Fraction:
    return sum((p0[0] * p1[1] - p1[0] * p0[1] for p0, p1 in _exact_edges(oval)), Fraction(0)) / 2


def exact_validation_message(ovals) -> str | None:
    """Message validation must raise, or None: each oval checked in full before the next, pairs last.

    Vertices lie well inside the unit ball or well outside it, so an exact
    test of the squared norm against 1 decides as the tolerant float test does.
    """
    seen = set()
    for o in ovals:
        if o.id in seen:
            return f"duplicate oval id {o.id}"
        seen.add(o.id)
        if len(o.vertices) < 3:
            return f"oval {o.id} has {len(o.vertices)} vertices, need at least 3"
        if not all(math.isfinite(c) for c in o.vertices.ravel().tolist()):
            return f"oval {o.id} has non-finite vertex coordinates"
        if any(Fraction(x) ** 2 + Fraction(y) ** 2 > 1 for x, y in o.vertices.tolist()):
            return f"oval {o.id} has vertices outside the unit ball"
        if _exact_self_fault(o):
            return f"oval {o.id} has self-intersecting edges"
        if (area := _exact_area(o)) <= 0:
            return f"domain of oval {o.id} has non-positive area {float(area)}"
    pair = exact_first_touching_pair(ovals)
    return None if pair is None else f"boundaries of ovals {ovals[pair[0]].id} and {ovals[pair[1]].id} intersect"


# --- strategies -------------------------------------------------------------


@st.composite
def loose_configs(draw):
    """2..6 convex dyadic polygons dropped anywhere: touching, crossing, nested or apart."""
    count = draw(st.integers(2, 6))
    ids = draw(st.permutations(range(1, count + 1)))
    ovals = []
    for oval_id in ids:
        keep = sorted(draw(st.sets(st.integers(0, 7), min_size=3)))
        cx, cy = draw(st.integers(-8, 8)) / 16, draw(st.integers(-8, 8)) / 16
        r = draw(st.integers(1, 4)) / 16
        roll = draw(st.integers(0, len(keep) - 1))
        ovals.append(_polygon([OCTAGON[k] for k in keep], cx, cy, r, roll, oval_id))
    return ovals


# sixteen dyadic directions in counterclockwise order
RAYS = ((1, 0), (1, 0.5), (1, 1), (0.5, 1), (0, 1), (-0.5, 1), (-1, 1), (-1, 0.5),
        (-1, 0), (-1, -0.5), (-1, -1), (-0.5, -1), (0, -1), (0.5, -1), (1, -1), (1, -0.5))


@st.composite
def wild_ovals(draw, oval_id) -> Oval:
    """A star-shaped dyadic polygon, possibly reordered, reversed, spiked or with a repeated vertex.

    Or cut to 0, 1 or 2 vertices, or with one coordinate not finite or far outside the unit ball.
    """
    rays = sorted(draw(st.sets(st.integers(0, 15), min_size=3, max_size=10)))
    cx, cy = draw(st.integers(-8, 8)) / 16, draw(st.integers(-8, 8)) / 16
    verts = [(cx + RAYS[k][0] * r / 32, cy + RAYS[k][1] * r / 32)
             for k, r in zip(rays, draw(st.lists(st.integers(1, 4), min_size=len(rays), max_size=len(rays))))]
    edit = draw(st.sampled_from(("star", "star", "shuffle", "clockwise", "spike", "repeat", "cut", "bad")))
    if edit == "shuffle":
        verts = draw(st.permutations(verts))
    elif edit == "clockwise":
        verts = verts[::-1]
    elif edit == "spike":
        # walk part or all of the way back along the edge just traversed
        i = draw(st.integers(0, len(verts) - 1))
        (x0, y0), (x1, y1) = verts[i - 1], verts[i]
        back = draw(st.sampled_from((0.25, 0.5, 1.0)))
        verts.insert(i + 1, (x1 + back * (x0 - x1), y1 + back * (y0 - y1)))
    elif edit == "repeat":
        verts.insert(draw(st.integers(0, len(verts))), verts[draw(st.integers(0, len(verts) - 1))])
    elif edit == "cut":
        verts = verts[: draw(st.integers(0, 2))]
    elif edit == "bad":
        i, axis = draw(st.integers(0, len(verts) - 1)), draw(st.integers(0, 1))
        bad = draw(st.sampled_from((math.nan, math.inf, -math.inf, 1.5, -2.0, 1e300, -1e300)))
        verts[i] = (bad, verts[i][1]) if axis == 0 else (verts[i][0], bad)
    return Oval(id=oval_id, vertices=np.array(verts).reshape(-1, 2))


@st.composite
def wild_configs(draw):
    """1..5 wild ovals, sometimes with an id repeated at a later place."""
    count = draw(st.integers(1, 5))
    ids = list(draw(st.permutations(range(1, count + 1))))
    if count > 1 and draw(st.integers(0, 3)) == 0:
        later = draw(st.integers(1, count - 1))
        ids[later] = ids[draw(st.integers(0, later - 1))]
    return [draw(wild_ovals(oval_id)) for oval_id in ids]


@st.composite
def nested_configs(draw):
    """Valid configurations built as a tree, returned with each oval's parent id.

    An oval drawn in a cell of half-size h has half-size h/2, so it stays
    clear of its neighbours; the square of half-size r/4 is strictly inside
    every shape of half-size r, and its four quarters are the child cells.
    Concentric shapes share vertex y-levels, so rays run through vertices.
    """
    ovals, parents = [], {}

    def fill(cx, cy, h, parent, depth):
        if depth == 0 or not draw(st.booleans()):
            return
        shape = draw(st.sampled_from((OCTAGON, SQUARE, DIAMOND)))
        oval_id = len(ovals) + 1
        ovals.append(_polygon(shape, cx, cy, h / 2, draw(st.integers(0, len(shape) - 1)), oval_id))
        parents[oval_id] = parent
        q = h / 16
        for dx, dy in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
            fill(cx + dx * q, cy + dy * q, q, oval_id, depth - 1)

    for dx, dy in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        fill(dx / 4, dy / 4, 1 / 4, None, 2)
    if not ovals:
        ovals.append(_polygon(OCTAGON, 0.0, 0.0, 0.25, 0, 1))
        parents[1] = None
    order = draw(st.permutations(range(len(ovals))))
    return [ovals[k] for k in order], parents


# --- properties ---------------------------------------------------------------


@PROPERTY
@given(loose_configs())
def test_validation_matches_exact_oracle(ovals):
    pair = exact_first_touching_pair(ovals)
    if pair is None:
        assert validate_configuration(ovals).N == len(ovals)
        return
    i, j = pair
    with pytest.raises(ValidationError) as exc:
        validate_configuration(ovals)
    assert str(exc.value) == f"boundaries of ovals {ovals[i].id} and {ovals[j].id} intersect"


@PROPERTY
@given(wild_configs())
def test_validation_messages_match_exact_oracle(ovals):
    expected = exact_validation_message(ovals)
    if expected is None:
        assert validate_configuration(ovals).N == len(ovals)
        return
    with pytest.raises(ValidationError) as exc:
        validate_configuration(ovals)
    assert str(exc.value) == expected


@PROPERTY
@given(nested_configs())
def test_forest_depth_counts_containing_ovals(case):
    ovals, parents = case
    ids = [o.id for o in ovals]
    parent, depth = build_nesting_forest(validate_configuration(ovals))
    for k, o in enumerate(ovals):
        ancestors, up = 0, parents[o.id]
        while up is not None:
            ancestors, up = ancestors + 1, parents[up]
        assert depth[k] == 1 + ancestors
        assert (None if parent[k] < 0 else ids[parent[k]]) == parents[o.id]
        assert [ids[c] for c in np.flatnonzero(parent == k)] == [c.id for c in ovals if parents[c.id] == o.id]


@PROPERTY
@given(nested_configs())
def test_domain_areas_telescope(case):
    ovals, _ = case
    config = validate_configuration(ovals)
    parent, _ = build_nesting_forest(config)
    areas = sum(build_domains(config, parent).tolist())
    roots = sum(shoelace_area(o.vertices) for o, p in zip(ovals, parent.tolist()) if p < 0)
    assert areas == roots


@PROPERTY
@given(nested_configs(), st.lists(st.tuples(st.integers(-64, 64), st.integers(-64, 64)), max_size=20))
def test_points_in_domain_matches_ray_cast(case, drawn):
    # one ray cast over an oval's edges and its holes' is the outer polygon's even-odd rule without the holes'
    ovals, parents = case
    index = {o.id: k for k, o in enumerate(ovals)}
    parent = np.array([-1 if parents[o.id] is None else index[parents[o.id]] for o in ovals])
    verts = np.concatenate([o.vertices for o in ovals])
    centres = np.array([o.vertices.mean(axis=0) for o in ovals])
    # a dyadic lattice, random dyadic points, every vertex, and each centre's x at its own oval's vertex heights
    points = np.concatenate([
        np.stack(np.meshgrid(np.linspace(-1, 1, 17), np.linspace(-1, 1, 17)), axis=-1).reshape(-1, 2),
        np.array(drawn, dtype=float).reshape(-1, 2) / 64,
        verts,
        centres,
        *(np.column_stack([np.full(len(o.vertices), c[0]), o.vertices[:, 1]]) for o, c in zip(ovals, centres)),
    ])
    inside = [[ray_cast(o.vertices, q) for q in points] for o in ovals]
    config = validate_configuration(ovals)
    masks = [points_in_domain(config, parent, k, points) for k in range(len(ovals))]
    for k, mask in enumerate(masks):
        holes = np.flatnonzero(parent == k)
        expected = [inside[k][i] and not any(inside[h][i] for h in holes) for i in range(len(points))]
        assert mask.tolist() == expected
    # no point lies in two domains, boundary points included
    assert np.sum(masks, axis=0).max() <= 1
