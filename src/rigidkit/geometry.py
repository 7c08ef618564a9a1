"""Plane oval configurations, their nesting forest, and domain decomposition.

Ovals are simple closed polygons with counterclockwise vertex order, pairwise
disjoint boundaries, living in the closed unit disc. Every validated
configuration decomposes the plane into one compact domain per oval: the
region bounded by that oval outside and by its immediate children inside.
The minimal domain area mu drives all topological bounds downstream.

Polygons stand in for smooth ovals and may be sampled finely. Validation
takes ``Oval`` records, stacks every vertex once, oval after oval, into one
edge array, and the configuration keeps it with each oval's id and shoelace
area. That is the only oval layout from then on: the nesting forest is a
parent and a depth per oval, the domains are an area per oval, and point
location, boundary sampling and ``curves.crossing_count`` read the edge
array by oval index.
With bounded memory, one box-pair sweep over horizontal strips finds the
pairs of one segment set whose boxes overlap: the edge pairs that validation
tests, and, run over the curve's chords stacked before the edges, the
chord-edge pairs that the crossing count solves. One ray cast over the edge
array gives the forest. Lattices and boundary samples are held to
``errors.MAX_ENTRIES`` floats, as are ``poly``'s basis factors and values
and ``curves``' interpolation matrix and derivative table. Area
discretization error is the caller's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .errors import ValidationError

__all__ = [
    "Oval",
    "OvalConfiguration",
    "validate_configuration",
    "build_nesting_forest",
    "build_domains",
    "mu",
    "points_in_domain",
    "in_unit_ball",
    "sample_boundary",
    "lattice",
    "candidate_grid",
    "config_from_json_dict",
]

_PAIR_CHUNK = 1 << 14  # candidate box pairs per step of the box-pair sweep; bounds its memory


@dataclass(frozen=True)
class Oval:
    """Simple closed polygon, counterclockwise, implicitly closed: the input record of validation."""

    id: int
    vertices: np.ndarray  # (k, 2), k >= 3

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValidationError(f"oval {self.id}: vertices must be an (k, 2) array")
        object.__setattr__(self, "vertices", verts)


@dataclass(frozen=True)
class OvalConfiguration:
    """Validated oval collection: disjoint boundaries, each pair nested or apart.

    ``ids`` holds the oval ids in configuration order. The other fields
    stack every vertex once, oval after oval, as ``_stack`` builds them, and
    hold each oval's shoelace area: positive, since the order is
    counterclockwise.
    """

    ids: tuple[int, ...]
    vertices: np.ndarray = field(repr=False, compare=False)  # (E, 2)
    starts: np.ndarray = field(repr=False, compare=False)  # (N + 1,): oval k owns vertices starts[k]:starts[k + 1]
    succ: np.ndarray = field(repr=False, compare=False)  # edge e runs from vertex e to vertex succ[e]
    owner: np.ndarray = field(repr=False, compare=False)  # the oval of each vertex
    areas: tuple[float, ...] = field(repr=False)

    @property
    def N(self) -> int:
        return len(self.ids)


def _stack(ovals) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every vertex of ``ovals`` once, oval after oval: vertices, starts, successors and owners."""
    sizes = np.array([len(o.vertices) for o in ovals])
    starts = np.concatenate([[0], np.cumsum(sizes)])
    succ = np.arange(1, starts[-1] + 1)
    held = sizes > 0  # an oval without vertices has no last vertex
    succ[starts[1:][held] - 1] = starts[:-1][held]
    return np.concatenate([o.vertices for o in ovals]), starts, succ, np.repeat(np.arange(len(ovals)), sizes)


def in_unit_ball(points) -> np.ndarray:
    """Mask of the rows of ``points`` that lie in the closed unit ball, up to ``errors.BALL_TOL``.

    A row with a coordinate above twice the radius in size, or not finite,
    lies outside whatever the rounding; such a coordinate is not squared, so
    no value overflows.
    """
    pts = np.asarray(points, dtype=float)
    radius = 1.0 + errors.BALL_TOL
    small = np.abs(pts) <= 2.0 * radius
    return np.all(small, axis=-1) & (np.sqrt(np.sum(np.where(small, pts, 0.0) ** 2, axis=-1)) <= radius)


def _cross(o, a, b):
    return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
        a[..., 1] - o[..., 1]
    ) * (b[..., 0] - o[..., 0])


def _segments_intersect(p0, p1, q0, q1) -> np.ndarray:
    """Elementwise over broadcast (..., 2) endpoints: [p0, p1] touches or crosses [q0, q1].

    Inclusive predicate: shared endpoints, collinear overlap, and proper
    crossings all count. Strict boundary disjointness rejects them all, so no
    distinction is needed.
    """
    d1, d2 = _cross(q0, q1, p0), _cross(q0, q1, p1)
    d3, d4 = _cross(p0, p1, q0), _cross(p0, p1, q1)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)

    def on_segment(a0, a1, b, d):
        # collinear point b on segment [a0, a1]
        return (
            (d == 0)
            & (b[..., 0] >= np.minimum(a0[..., 0], a1[..., 0]))
            & (b[..., 0] <= np.maximum(a0[..., 0], a1[..., 0]))
            & (b[..., 1] >= np.minimum(a0[..., 1], a1[..., 1]))
            & (b[..., 1] <= np.maximum(a0[..., 1], a1[..., 1]))
        )

    touch = (
        on_segment(q0, q1, p0, d1)
        | on_segment(q0, q1, p1, d2)
        | on_segment(p0, p1, q0, d3)
        | on_segment(p0, p1, q1, d4)
    )
    return proper | touch


def _windows(begin, count):
    """(k, j) index pairs, j running over ``begin[k] .. begin[k] + count[k] - 1``, in steps.

    A step holds at most ``_PAIR_CHUNK`` pairs, more only when one window
    alone is longer; the constant is read when the step runs.
    """
    ends = np.cumsum(count)
    first = ends - count  # index of each window's first entry in the run of all windows
    start = 0
    while start < len(count):
        stop = max(int(np.searchsorted(ends, first[start] + _PAIR_CHUNK, side="right")), start + 1)
        k = np.repeat(np.arange(start, stop), count[start:stop])
        yield k, begin[k] + first[start] + np.arange(len(k)) - first[k]
        start = stop


def _box_pairs(p0, p1):
    """Index pairs (a, b) of segments p0-p1 whose bounding boxes overlap, each pair once, in steps.

    Sort-and-sweep (Shamos-Hoey 1976) on both axes: horizontal strips as tall
    as the mean box, or taller when there would be more strips than boxes,
    cut the plane, and each box enters every strip it meets. Within a strip a
    box's window holds the boxes after it in min x order whose min x lies in
    its own x range. A pair is kept in the strip that holds the larger min y
    of the two, where both boxes lie, if the boxes overlap in y. Either index
    of a pair may be the smaller. Steps follow ``_windows``.
    """
    if not len(p0):
        return
    lo, hi = np.minimum(p0, p1), np.maximum(p0, p1)
    y0 = lo[:, 1].min()
    tall = max(float(np.sum(hi[:, 1] - lo[:, 1])), float(hi[:, 1].max() - y0)) / len(lo) or 1.0
    # each x by its rank among all box ends, so that (strip, x) keys are integers that compare exactly
    xs = np.concatenate([lo[:, 0], hi[:, 0]])
    by_x = np.argsort(xs, kind="stable")
    rank = np.empty_like(by_x)
    rank[by_x] = np.searchsorted(xs[by_x], xs[by_x])  # how many x ends are smaller
    # entries by (strip, min x): box, whether the box starts in that strip, and both keys
    s0 = ((lo[:, 1] - y0) / tall).astype(np.int64)
    count = ((hi[:, 1] - y0) / tall).astype(np.int64) - s0 + 1
    box = np.repeat(np.arange(len(lo)), count)
    up = np.arange(len(box)) - np.repeat(np.cumsum(count) - count, count)  # strips above the box's first
    key = (np.repeat(s0, count) + up) * len(rank) + rank[box]
    order = np.argsort(key, kind="stable")
    box, first, key = box[order], up[order] == 0, key[order]
    # entry k with the later entries whose key is at most k's (strip, max x) key
    begin = np.arange(1, len(box) + 1)
    for k, j in _windows(begin, np.searchsorted(key, key + rank[len(lo) + box] - rank[box], side="right") - begin):
        a, b = box[k], box[j]
        keep = (first[k] | first[j]) & (lo[a, 1] <= hi[b, 1]) & (lo[b, 1] <= hi[a, 1])
        yield a[keep], b[keep]


def _first_touching(p0, succ, owner, count: int) -> tuple[int | None, tuple[int, int] | None]:
    """First of ``count`` stacked ovals whose own edges touch, and the first touching index pair i < j.

    Edges whose bounding boxes overlap come from the box-pair sweep and go
    through the predicate. Cyclic neighbours on one oval share an endpoint by
    construction and are skipped. None where nothing touches.
    """
    p1 = p0[succ]
    crossed, best = count, count * count
    for a, b in _box_pairs(p0, p1):
        keep = (succ[a] != b) & (succ[b] != a)
        a, b = a[keep], b[keep]
        hit = _segments_intersect(p0[a], p1[a], p0[b], p1[b])
        i, j = owner[a[hit]], owner[b[hit]]
        crossed = int(np.min(i[i == j], initial=crossed))
        best = int(np.min(np.minimum(i, j) * count + np.maximum(i, j), where=i != j, initial=best))
    return (None if crossed == count else crossed), (None if best == count * count else divmod(best, count))


def _first_fault(ovals, verts, starts, succ, owner) -> tuple[int, str | None]:
    """The first oval that fails a check needing no edge pairs, and that check's message; (N, None) if none.

    The checks run on every vertex at once, in their order: id, vertex
    count, finiteness, unit ball, then zero-length edges and fold-back
    spikes (consecutive edges collinear and overlapping). An oval's first
    failing check is the least check number among its own and its vertices'.
    """
    inside = in_unit_ball(verts)  # false for non-finite rows too
    v = np.where(inside[:, None], verts, 0.0)  # an oval with a vertex outside has failed already
    mid, nxt = v[succ], v[succ[succ]]  # each edge's end vertex, where it turns into the next edge
    folded = (_cross(mid, v, nxt) == 0) & (np.einsum("ij,ij->i", v - mid, nxt - mid) > 0)
    by_vertex = np.full(len(verts), 5)
    by_vertex[np.all(v == mid, axis=1) | folded] = 4
    by_vertex[~inside] = 3
    by_vertex[~np.all(np.isfinite(verts), axis=1)] = 2
    first = {}
    check = np.where([first.setdefault(o.id, k) != k for k, o in enumerate(ovals)], 0, 5)
    check[(check == 5) & (np.diff(starts) < 3)] = 1
    np.minimum.at(check, owner, by_vertex)
    failed = np.flatnonzero(check < 5)
    if not failed.size:
        return len(ovals), None
    k = int(failed[0])
    o = ovals[k]
    return k, (
        f"duplicate oval id {o.id}",
        f"oval {o.id} has {len(o.vertices)} vertices, need at least 3",
        f"oval {o.id} has non-finite vertex coordinates",
        f"oval {o.id} has vertices outside the unit ball",
        f"oval {o.id} has self-intersecting edges",
    )[check[k]]


def validate_configuration(ovals) -> OvalConfiguration:
    """Check every configuration invariant and return the validated bundle.

    Each oval is checked in full before the next: id, vertex count, finiteness,
    unit ball, zero-length edges and fold-back spikes, touching edges, area.
    The cheap checks run on the stacked vertices at once. One sweep finds the
    touching edges, of one oval or two, among the ovals before the first
    that fails a cheaper check; a touching pair comes last. A configuration
    without ovals has no domains and is rejected.
    """
    ovals = tuple(ovals)
    if not ovals:
        raise ValidationError("configuration has no domains")
    verts, starts, succ, owner = _stack(ovals)
    passed, fault = _first_fault(ovals, verts, starts, succ, owner)
    end = starts[passed]
    crossed, pair = _first_touching(verts[:end], succ[:end], owner[:end], passed) if passed else (None, None)
    # one sum over each oval's own terms, so each area equals that polygon's alone bit for bit
    x, y = verts[:end, 0], verts[:end, 1]
    terms = x * y[succ[:end]] - x[succ[:end]] * y
    bounds = starts[: passed + 1].tolist()
    areas = tuple(0.5 * float(terms[i:j].sum()) for i, j in zip(bounds, bounds[1:]))
    for k, area in enumerate(areas):
        if k == crossed:
            raise ValidationError(f"oval {ovals[k].id} has self-intersecting edges")
        if area <= 0:
            raise ValidationError(f"domain of oval {ovals[k].id} has non-positive area {area}")
    if fault:
        raise ValidationError(fault)
    if pair:
        raise ValidationError(f"boundaries of ovals {ovals[pair[0]].id} and {ovals[pair[1]].id} intersect")
    return OvalConfiguration(tuple(o.id for o in ovals), verts, starts, succ, owner, areas)


def _ray_crossings(p0, p1, points):
    """Index pairs (e, r), in steps, where edge p0[e]-p1[e] crosses the horizontal ray from points[r] to +x.

    An edge counts when its ends lie on opposite sides of the ray's level,
    a vertex exactly on the level counting as below it; this half-open rule
    counts a ray through a vertex consistently, so no ray needs moving. With
    the points sorted by y, the rays an edge straddles are one run of them,
    found by bisection; steps follow ``_windows``.
    """
    order = np.argsort(points[:, 1], kind="stable")
    levels = points[order, 1]
    low = np.searchsorted(levels, np.minimum(p0[:, 1], p1[:, 1]))
    high = np.searchsorted(levels, np.maximum(p0[:, 1], p1[:, 1]))
    for e, j in _windows(low, high - low):
        r = order[j]
        (x1, y1), (x2, y2) = p0[e].T, p1[e].T
        crossing = x1 + (points[r, 1] - y1) * (x2 - x1) / (y2 - y1) > points[r, 0]
        yield e[crossing], r[crossing]


def build_nesting_forest(config: OvalConfiguration) -> tuple[np.ndarray, np.ndarray]:
    """Containment hierarchy as (parent, depth) arrays in configuration order.

    Depth is 1 + the number of strictly containing ovals. The parent of an
    oval is its deepest container, i.e. the smallest one; ties go to the
    first in configuration order, and a root's parent is -1. Validated
    boundaries are disjoint, so by Jordan separation an oval lies inside
    another exactly when its first vertex does. One ray cast from every
    first vertex over the stacked edges decides every pair: each oval's
    parity of crossings says which rays start inside it.
    """
    p0, n = config.vertices, config.N
    inside = np.zeros(n * n, dtype=bool)  # inside[p * n + o]: oval o lies inside oval p
    for e, r in _ray_crossings(p0, p0[config.succ], p0[config.starts[:-1]]):
        np.logical_xor.at(inside, config.owner[e] * n + r, True)
    inside = inside.reshape(n, n)
    np.fill_diagonal(inside, False)
    depth = 1 + inside.sum(axis=0)
    by_depth = np.argsort(-depth, kind="stable")
    parent = np.where(depth > 1, by_depth[np.argmax(inside[by_depth], axis=0)], -1)
    return parent, depth


def build_domains(config: OvalConfiguration, parent: np.ndarray) -> np.ndarray:
    """Area of each oval's domain, that oval outside and its direct children as holes.

    One area per oval, in configuration order; this identity is what makes
    the minimal-area quantity well defined for any nesting. Each area is the
    outer oval's shoelace area minus the sum of its holes', as validation
    stored them, the holes added in configuration order.
    """
    areas = np.asarray(config.areas)
    held = parent >= 0
    domains = areas - np.bincount(parent[held], weights=areas[held], minlength=config.N)
    bad = np.flatnonzero(domains <= 0)
    if bad.size:
        k = int(bad[0])
        raise ValidationError(f"domain of oval {config.ids[k]} has non-positive area {domains[k].item()}")
    return domains


def mu(areas) -> float:
    """Minimal domain area of the decomposition, from the areas ``build_domains`` returns."""
    areas = np.asarray(areas, dtype=float)
    if not areas.size:
        raise ValidationError("configuration has no domains")
    return float(areas.min())


def points_in_domain(config: OvalConfiguration, parent: np.ndarray, k: int, points) -> np.ndarray:
    """Mask of the (m, 2) points strictly inside oval k and outside each of its holes.

    One ray cast over the edges of oval k and of its direct children, with
    the rule of ``_ray_crossings``: the holes lie inside oval k and apart
    from each other, so an odd crossing count means inside oval k and in no
    hole. Points on a boundary get no meaningful answer.
    """
    pts = np.asarray(points, dtype=float)
    ring = parent == k
    ring[k] = True
    e = np.flatnonzero(ring[config.owner])
    inside = np.zeros(len(pts), dtype=bool)
    for _, r in _ray_crossings(config.vertices[e], config.vertices[config.succ[e]], pts):
        np.logical_xor.at(inside, r, True)
    return inside


def sample_boundary(config: OvalConfiguration, count: int) -> np.ndarray:
    """``count`` >= 1 points per oval, equally spaced by arc length, oval after oval.

    Each oval's arc length sums its own edges only, in order, so its samples
    do not depend on the other ovals. The (N * count, 2) result is held to
    ``errors.MAX_ENTRIES`` before any sample is taken.
    """
    if count < 1:
        raise ValidationError(f"boundary sample count must be >= 1, got {count}")
    errors.check_entries(config.N * count * 2, f"{config.N} ovals x {count} boundary samples")
    p0 = config.vertices
    step = p0[config.succ] - p0
    seg = np.hypot(*step.T)
    out = np.empty((config.N * count, 2))
    bounds = config.starts.tolist()
    for k, (i, j) in enumerate(zip(bounds, bounds[1:])):
        cum = np.concatenate([[0.0], np.cumsum(seg[i:j])])
        targets = np.arange(count) * cum[-1] / count
        e = i + np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, j - i - 1)  # each sample's edge
        frac = (targets - cum[e - i]) / seg[e]
        out[k * count : (k + 1) * count] = p0[e] + frac[:, None] * step[e]
    return out


def lattice(lo, hi, k: int) -> np.ndarray:
    """(k**n, n) lattice of k >= 2 points per axis over the box [lo, hi], first axis slowest.

    Its k**n * n entries are held to ``errors.MAX_ENTRIES`` before any is built.
    """
    if k < 2:
        raise ValidationError(f"a lattice needs at least 2 points per axis, got {k}")
    errors.check_entries(int(k) ** len(lo) * len(lo), f"a lattice of {k} points per axis in {len(lo)}D")
    axes = [np.linspace(a, b, k) for a, b in zip(lo, hi)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij", copy=False)], axis=1)


def candidate_grid(n: int, k: int) -> np.ndarray:
    """k-per-axis lattice over [-1,1]^n clipped to the Euclidean ball."""
    pts = lattice((-1.0,) * n, (1.0,) * n, k)
    pts = pts[in_unit_ball(pts)]
    if not len(pts):
        raise ValidationError(f"no point of the {k}-per-axis candidate grid lies in the unit ball")
    return pts


def config_from_json_dict(data: dict) -> OvalConfiguration:
    """Parse {"ovals": [{"id": ..., "vertices": [[x, y], ...]}]} and validate."""
    try:
        raw = data["ovals"]
    except (KeyError, TypeError):
        raise ValidationError("malformed configuration JSON: missing field 'ovals'")
    if not isinstance(raw, list):
        raise ValidationError("malformed configuration JSON: field 'ovals' must be a list")
    ovals = []
    for entry in raw:
        try:
            # 2.0 reads as 2, as exponents do; a NaN or an infinity is a malformed entry
            oval_id = errors.json_number(entry["id"], f"oval id must be an integer, got {entry['id']!r}", integral=True)
            ovals.append(Oval(id=oval_id, vertices=np.asarray(entry["vertices"], dtype=float)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed oval entry: {exc}") from exc
        if not errors.JSON_NUMBERS.issuperset(map(type, itertools.chain.from_iterable(entry["vertices"]))):
            raise ValidationError(f"oval {oval_id} has a non-numeric vertex coordinate")
    return validate_configuration(ovals)
