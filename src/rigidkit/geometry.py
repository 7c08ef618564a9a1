"""Plane oval configurations, their nesting forest, and domain decomposition.

Ovals are simple closed polygons with counterclockwise vertex order, pairwise
disjoint boundaries, living in the closed unit disc. Every validated
configuration decomposes the plane into one compact domain per oval: the
region bounded by that oval outside and by its immediate children inside.
The minimal domain area mu drives all topological bounds downstream.

Polygons stand in for smooth ovals and may be sampled finely: one box-pair
sweep with bounded memory finds the edge pairs that validation tests and the
chord-edge pairs that ``curves.crossing_count`` solves. The discretization
error of areas is the caller's modeling responsibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "Oval",
    "OvalConfiguration",
    "ForestNode",
    "NestingForest",
    "Domain",
    "validate_configuration",
    "build_nesting_forest",
    "build_domains",
    "mu",
    "points_in_polygon",
    "points_in_domain",
    "shoelace_area",
    "in_unit_ball",
    "sample_boundary",
    "lattice",
    "bounding_box",
    "config_from_json_dict",
]

_BALL_TOL = 1e-9
_PAIR_CHUNK = 1 << 14  # candidate box pairs per step of the box-pair sweep; bounds its memory
_MAX_LATTICE = 1 << 24  # points in one lattice, far above every grid in use; bounds its memory


@dataclass(frozen=True)
class Oval:
    """Simple closed polygon, counterclockwise, implicitly closed."""

    id: int
    vertices: np.ndarray  # (k, 2), k >= 3

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValidationError(f"oval {self.id}: vertices must be an (k, 2) array")
        object.__setattr__(self, "vertices", verts)


@dataclass(frozen=True)
class OvalConfiguration:
    """Validated oval collection: disjoint boundaries, each pair nested or apart."""

    ovals: tuple[Oval, ...]

    @property
    def N(self) -> int:
        return len(self.ovals)


@dataclass
class ForestNode:
    oval_id: int
    depth: int
    parent: int | None = None
    children: list[int] = field(default_factory=list)


@dataclass
class NestingForest:
    """Containment hierarchy; depth 1 nodes are contained in no other oval."""

    config: OvalConfiguration
    nodes: dict[int, ForestNode]


@dataclass(frozen=True)
class Domain:
    """Region bounded by ``outer`` from outside and by ``holes`` from inside, with its area."""

    outer: Oval
    holes: tuple[Oval, ...]
    area: float


def shoelace_area(vertices: np.ndarray) -> float:
    """Signed area of a closed polygon; positive for counterclockwise order."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def in_unit_ball(points) -> np.ndarray:
    """Mask of the rows of ``points`` that lie in the closed unit ball, up to ``_BALL_TOL``."""
    pts = np.asarray(points, dtype=float)
    return np.sqrt(np.sum(pts**2, axis=-1)) <= 1.0 + _BALL_TOL


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


def _box_pairs(p0, p1, other=None):
    """Index pairs (a, b) of segments whose bounding boxes overlap, in steps.

    Alone, the segments p0-p1 pair among themselves, each pair once; with
    ``other = (q0, q1)``, segment a of p0-p1 pairs with segment b of q0-q1.
    Sort-and-sweep (Shamos-Hoey 1976): with the b boxes sorted by min x, the
    window of box a ends at the last b whose min x is at most a's max x. A
    step holds at most ``_PAIR_CHUNK`` window entries, more only when one
    window alone is longer; the constant is read when the step runs.
    """
    lo, hi = np.minimum(p0, p1), np.maximum(p0, p1)
    lo_b, hi_b = (lo, hi) if other is None else (np.minimum(*other), np.maximum(*other))
    order = np.argsort(lo_b[:, 0], kind="stable")
    if other is None:  # windows start right after a itself
        seq, begin = order, np.arange(1, len(order) + 1)
    else:  # windows start at the first b whose running max of max x reaches a's min x
        seq, begin = np.arange(len(lo)), np.searchsorted(np.maximum.accumulate(hi_b[order, 0]), lo[:, 0])
    count = np.searchsorted(lo_b[order, 0], hi[seq, 0], side="right") - begin
    ends = np.cumsum(count)
    first = ends - count  # index of each window's first entry in the run of all windows
    start = 0
    while start < len(count):
        stop = max(int(np.searchsorted(ends, first[start] + _PAIR_CHUNK, side="right")), start + 1)
        k = np.repeat(np.arange(start, stop), count[start:stop])
        a, b = seq[k], order[begin[k] + first[start] + np.arange(len(k)) - first[k]]
        keep = (lo[a, 1] <= hi_b[b, 1]) & (lo_b[b, 1] <= hi[a, 1])
        if other is not None:  # only a bipartite window holds b boxes that end left of a
            keep &= lo[a, 0] <= hi_b[b, 0]
        yield a[keep], b[keep]
        start = stop


def _first_touching(ovals) -> tuple[int | None, tuple[int, int] | None]:
    """First oval whose own edges touch, and the first touching index pair i < j.

    Edges whose bounding boxes overlap come from the box-pair sweep and go
    through the predicate. Cyclic neighbours on one oval share an endpoint by
    construction and are skipped. None where nothing touches.
    """
    sizes = np.array([len(o.vertices) for o in ovals])
    n, tails = len(ovals), np.cumsum(sizes)
    owner = np.repeat(np.arange(n), sizes)
    succ = np.arange(1, tails[-1] + 1)  # edge e runs from vertex e to vertex succ[e]
    succ[tails - 1] = tails - sizes
    p0 = np.concatenate([o.vertices for o in ovals])
    p1 = p0[succ]
    crossed, best = n, n * n
    for a, b in _box_pairs(p0, p1):
        keep = (succ[a] != b) & (succ[b] != a)
        a, b = a[keep], b[keep]
        hit = _segments_intersect(p0[a], p1[a], p0[b], p1[b])
        i, j = owner[a[hit]], owner[b[hit]]
        crossed = int(np.min(i[i == j], initial=crossed))
        best = int(np.min(np.minimum(i, j) * n + np.maximum(i, j), where=i != j, initial=best))
    return (None if crossed == n else crossed), (None if best == n * n else divmod(best, n))


def _oval_fault(oval: Oval) -> str | None:
    """Message of the first failed per-oval check that needs no edge pairs, or None."""
    verts = oval.vertices
    if len(verts) < 3:
        return f"oval {oval.id} has {len(verts)} vertices, need at least 3"
    if not np.all(np.isfinite(verts)):
        return f"oval {oval.id} has non-finite vertex coordinates"
    if not np.all(in_unit_ball(verts)):
        return f"oval {oval.id} has vertices outside the unit ball"
    prev, nxt = np.roll(verts, 1, axis=0), np.roll(verts, -1, axis=0)
    # zero-length edges and fold-back spikes (consecutive edges collinear and overlapping)
    folded = (_cross(verts, prev, nxt) == 0) & (np.einsum("ij,ij->i", prev - verts, nxt - verts) > 0)
    if np.any(np.all(verts == nxt, axis=1) | folded):
        return f"oval {oval.id} has self-intersecting edges"
    return None


def validate_configuration(ovals) -> OvalConfiguration:
    """Check every configuration invariant and return the validated bundle.

    Each oval is checked in full before the next: id, vertex count, finiteness,
    unit ball, zero-length edges and fold-back spikes, touching edges, area.
    One sweep finds the touching edges, of one oval or two, among the ovals
    before the first that fails a cheaper check; a touching pair comes last.
    A configuration without ovals has no domains and is rejected.
    """
    ovals = tuple(ovals)
    if not ovals:
        raise ValidationError("configuration has no domains")
    seen_ids, passed, fault = set(), ovals, None
    for k, o in enumerate(ovals):
        if fault := (f"duplicate oval id {o.id}" if o.id in seen_ids else _oval_fault(o)):
            passed = ovals[:k]
            break
        seen_ids.add(o.id)
    crossed, pair = _first_touching(passed) if passed else (None, None)
    for k, o in enumerate(passed):
        if k == crossed:
            raise ValidationError(f"oval {o.id} has self-intersecting edges")
        if (area := shoelace_area(o.vertices)) <= 0:
            raise ValidationError(f"domain of oval {o.id} has non-positive area {area}")
    if fault:
        raise ValidationError(fault)
    if pair:
        raise ValidationError(f"boundaries of ovals {ovals[pair[0]].id} and {ovals[pair[1]].id} intersect")
    return OvalConfiguration(ovals)


def points_in_polygon(vertices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Even-odd ray crossing with a deterministic horizontal ray, one flag per point.

    An edge counts when its ends lie on opposite sides of the ray's level,
    a vertex exactly on the level counting as below it; this half-open rule
    counts a ray through a vertex consistently, so no ray needs moving.
    Points on a boundary get no meaningful answer; validated configurations
    keep query points off them.
    """
    verts = np.asarray(vertices, dtype=float)
    pts = np.asarray(points, dtype=float)
    x1, y1 = verts[:, 0][None, :], verts[:, 1][None, :]
    x2 = np.roll(verts[:, 0], -1)[None, :]
    y2 = np.roll(verts[:, 1], -1)[None, :]
    RY = pts[:, 1][:, None]
    straddle = (y1 > RY) != (y2 > RY)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = x1 + (RY - y1) * (x2 - x1) / (y2 - y1)
    crossing = straddle & (xi > pts[:, 0][:, None])
    return np.sum(crossing, axis=1) % 2 == 1


def build_nesting_forest(config: OvalConfiguration) -> NestingForest:
    """Containment hierarchy: depth = 1 + number of strictly containing ovals.

    The parent of an oval is its deepest container, i.e. the smallest one; ties
    go to the first in configuration order. One batched ray cast per oval over
    every oval's representative vertex gives the whole containment matrix:
    validated boundaries are disjoint, so by Jordan separation an oval lies
    inside another exactly when its first vertex does.
    """
    ovals = config.ovals
    reps = np.array([o.vertices[0] for o in ovals])
    # inside[p, o]: oval o lies inside oval p
    inside = np.array([points_in_polygon(p.vertices, reps) for p in ovals]).reshape(len(ovals), len(ovals))
    np.fill_diagonal(inside, False)
    depth = 1 + inside.sum(axis=0)
    nodes = {o.id: ForestNode(oval_id=o.id, depth=int(depth[k])) for k, o in enumerate(ovals)}
    for k, o in enumerate(ovals):
        cands = np.flatnonzero(inside[:, k])
        if cands.size:
            parent = ovals[cands[np.argmax(depth[cands])]].id
            nodes[o.id].parent = parent
            nodes[parent].children.append(o.id)
    return NestingForest(config=config, nodes=nodes)


def build_domains(forest: NestingForest) -> list[Domain]:
    """One domain per oval: that oval outside, its direct children as holes.

    The returned list length always equals the oval count; this identity is
    what makes the minimal-area quantity well defined for any nesting. Each
    area, the outer oval's shoelace area minus its holes', is computed once, here.
    """
    by_id = {o.id: o for o in forest.config.ovals}
    domains = []
    for o in forest.config.ovals:
        holes = tuple(by_id[c] for c in forest.nodes[o.id].children)
        area = shoelace_area(o.vertices) - sum(shoelace_area(h.vertices) for h in holes)
        if area <= 0:
            raise ValidationError(f"domain of oval {o.id} has non-positive area {area}")
        domains.append(Domain(outer=o, holes=holes, area=area))
    return domains


def mu(domains) -> float:
    """Minimal domain area of the decomposition."""
    domains = list(domains)
    if not domains:
        raise ValidationError("configuration has no domains")
    return min(d.area for d in domains)


def points_in_domain(d: Domain, points: np.ndarray) -> np.ndarray:
    """Mask of the (m, 2) points strictly inside the outer oval and outside every hole."""
    inside = points_in_polygon(d.outer.vertices, points)
    for hole in d.holes:
        inside &= ~points_in_polygon(hole.vertices, points)
    return inside


def sample_boundary(oval: Oval, count: int) -> np.ndarray:
    """``count`` points equally spaced by arc length along the boundary; 1 <= count <= ``_MAX_LATTICE``."""
    if not 1 <= count <= _MAX_LATTICE:
        raise ValidationError(f"boundary sample count must be in 1..{_MAX_LATTICE}, got {count}")
    p0 = oval.vertices
    p1 = np.roll(p0, -1, axis=0)
    seg = np.hypot(*(p1 - p0).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    targets = np.arange(count) * total / count
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seg) - 1)
    frac = (targets - cum[idx]) / seg[idx]
    return p0[idx] + frac[:, None] * (p1[idx] - p0[idx])


def lattice(lo, hi, k: int) -> np.ndarray:
    """(k**n, n) lattice of k points per axis over the box [lo, hi], first axis slowest.

    More than ``_MAX_LATTICE`` = 2**24 points is a ``ValidationError``.
    """
    if int(k) ** len(lo) > _MAX_LATTICE:
        raise ValidationError(f"a lattice of {k} points per axis in {len(lo)}D exceeds {_MAX_LATTICE} points")
    axes = [np.linspace(a, b, k) for a, b in zip(lo, hi)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def bounding_box(ovals) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of the axis-aligned box around every vertex of ``ovals``."""
    if not ovals:
        raise ValidationError("no ovals to bound")
    verts = np.concatenate([o.vertices for o in ovals], axis=0)
    return verts.min(axis=0), verts.max(axis=0)


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
            oval_id = int(entry["id"])  # a NaN or an infinity is a malformed entry
            ovals.append(Oval(id=oval_id, vertices=np.asarray(entry["vertices"], dtype=float)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed oval entry: {exc}") from exc
        if oval_id != entry["id"]:  # 2.0 reads as 2, as exponents do
            raise ValidationError(f"oval id must be an integer, got {entry['id']!r}")
    return validate_configuration(ovals)
