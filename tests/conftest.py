import json
import math

import numpy as np
import pytest

from rigidkit.geometry import Oval, OvalConfiguration, validate_configuration
from rigidkit.poly import MultiPoly, monomials

CIRCLE_SIDES = 48

# filled by the acceptance module, echoed after the run so the per-criterion
# verdicts survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def shoelace_area(vertices) -> float:
    """Reference signed area of one closed polygon, positive for counterclockwise order.

    Validation stores each oval's area from the stacked vertices; this per-polygon
    form is the formula it must reproduce bit for bit.
    """
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def sample_oval(vertices, count: int) -> np.ndarray:
    """Reference for ``sample_boundary`` on one closed polygon: ``count`` points equally spaced by arc length.

    The sampler takes every oval of a configuration in one call from the
    stacked vertices; this per-polygon form is the formula it must reproduce
    bit for bit, oval after oval.
    """
    p0 = np.asarray(vertices, dtype=float)
    p1 = np.roll(p0, -1, axis=0)
    seg = np.hypot(*(p1 - p0).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.arange(count) * cum[-1] / count
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seg) - 1)
    frac = (targets - cum[idx]) / seg[idx]
    return p0[idx] + frac[:, None] * (p1[idx] - p0[idx])


def ray_cast(vertices, point) -> bool:
    """Reference for ``points_in_domain`` on one polygon: one point, pure Python, even-odd rule.

    An edge counts when its ends lie on opposite sides of the ray's level,
    a vertex exactly on the level counting as below it, the half-open rule
    that ``points_in_domain`` applies too.
    """
    px, py = (float(c) for c in point)
    verts = np.asarray(vertices, dtype=float).tolist()
    inside = False
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        if (y1 > py) != (y2 > py) and x1 + (py - y1) * (x2 - x1) / (y2 - y1) > px:
            inside = not inside
    return inside


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def square(side: float, oval_id: int, center=(0.0, 0.0)) -> Oval:
    h = side / 2.0
    cx, cy = center
    return Oval(
        id=oval_id,
        vertices=np.array(
            [[cx + h, cy + h], [cx - h, cy + h], [cx - h, cy - h], [cx + h, cy - h]]
        ),
    )


@pytest.fixture
def ball_annulus():
    """Concentric squares inside the unit disc: outer side sqrt(2), inner side 1.

    Domain areas are exactly {1, 1}, so mu = 1.
    """
    s = math.sqrt(2.0) / 2.0
    outer = Oval(id=1, vertices=np.array([[s, s], [-s, s], [-s, -s], [s, -s]]))
    inner = square(1.0, 2)
    return validate_configuration([outer, inner])


@pytest.fixture
def side1_annulus():
    """Concentric squares of side 1 and 0.5: domain areas 0.75 and 0.25."""
    return validate_configuration([square(1.0, 1), square(0.5, 2)])


def regular_polygon(center, radius: float, k: int, oval_id: int = 0) -> Oval:
    """Regular k-gon approximating the circle of the given center and radius."""
    theta = 2.0 * np.pi * np.arange(k) / k
    cx, cy = center
    verts = np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])
    return Oval(id=oval_id, vertices=verts)


def _fits_inside(center, radius, parent_center, parent_radius) -> bool:
    gap = parent_radius * math.cos(math.pi / CIRCLE_SIDES) - 0.02
    return math.hypot(center[0] - parent_center[0], center[1] - parent_center[1]) + radius < gap


def _clear_of(center, radius, placed) -> bool:
    return all(
        math.hypot(center[0] - c[0], center[1] - c[1]) > radius + r + 0.02 for c, r in placed
    )


def random_circle_config(rng: np.random.Generator, max_ovals: int = 20, max_depth: int = 4):
    """Random nested circle configuration as polygons, ids 1..N.

    Top-level circles are packed into the unit disc by rejection; each circle
    then recursively receives children strictly inside it, down to the depth
    cap. Total count is capped at max_ovals and is at least 1.
    """
    ovals = []
    next_id = [1]

    def spawn(parent_center, parent_radius, depth):
        if depth > max_depth or next_id[0] > max_ovals:
            return
        n_children = int(rng.integers(0, 4)) if depth > 1 else int(rng.integers(1, 5))
        placed = []
        for _ in range(n_children):
            if next_id[0] > max_ovals:
                return
            for _attempt in range(40):
                radius = float(rng.uniform(0.18, 0.42)) * parent_radius
                dist_hi = parent_radius - radius - 0.02
                if dist_hi <= 0:  # parent too small to hold another ring plus margin
                    continue
                ang = float(rng.uniform(0, 2 * math.pi))
                dist = float(rng.uniform(0, dist_hi))
                center = (
                    parent_center[0] + dist * math.cos(ang),
                    parent_center[1] + dist * math.sin(ang),
                )
                if not _fits_inside(center, radius, parent_center, parent_radius):
                    continue
                if not _clear_of(center, radius, placed):
                    continue
                ovals.append(regular_polygon(center, radius, CIRCLE_SIDES, next_id[0]))
                next_id[0] += 1
                placed.append((center, radius))
                spawn(center, radius, depth + 1)
                break

    spawn((0.0, 0.0), 1.0, 1)
    if not ovals:
        ovals.append(regular_polygon((0.0, 0.0), 0.5, CIRCLE_SIDES, 1))
    return validate_configuration(ovals)


def random_circle_config_exact(rng: np.random.Generator, count: int):
    """Exactly ``count`` circles: disjoint packing with occasional nesting."""
    placed = []  # (center, radius, depth, parent_idx)
    ovals = []
    while len(ovals) < count:
        nest = placed and rng.uniform() < 0.35
        done = False
        for _attempt in range(200):
            if nest:
                pi = int(rng.integers(0, len(placed)))
                pc, pr, pdepth, _ = placed[pi]
                radius = float(rng.uniform(0.25, 0.45)) * pr
                ang = float(rng.uniform(0, 2 * math.pi))
                dist = float(rng.uniform(0, max(pr - radius - 0.02, 0)))
                center = (pc[0] + dist * math.cos(ang), pc[1] + dist * math.sin(ang))
                if not _fits_inside(center, radius, pc, pr):
                    continue
                siblings = [
                    (c, r) for (c, r, d, par) in placed if par == pi
                ]
                if not _clear_of(center, radius, siblings):
                    continue
                placed.append((center, radius, pdepth + 1, pi))
            else:
                radius = float(rng.uniform(0.1, 0.3))
                ang = float(rng.uniform(0, 2 * math.pi))
                dist = float(rng.uniform(0, 0.97 - radius))
                center = (dist * math.cos(ang), dist * math.sin(ang))
                roots = [(c, r) for (c, r, d, par) in placed if par is None]
                if not _clear_of(center, radius, roots):
                    continue
                placed.append((center, radius, 1, None))
            ovals.append(regular_polygon(center, radius, CIRCLE_SIDES, len(ovals) + 1))
            done = True
            break
        if not done:
            nest = False  # packing got tight; fall back to smaller disjoint discs
            radius = 0.03
            for _attempt in range(500):
                ang = float(rng.uniform(0, 2 * math.pi))
                dist = float(rng.uniform(0, 0.95))
                center = (dist * math.cos(ang), dist * math.sin(ang))
                if _clear_of(center, radius, [(c, r) for (c, r, _, par) in placed if par is None]):
                    placed.append((center, radius, 1, None))
                    ovals.append(regular_polygon(center, radius, CIRCLE_SIDES, len(ovals) + 1))
                    break
            else:
                raise RuntimeError("could not pack the requested circle count")
    return validate_configuration(ovals)


def concentric_ring_config(radii, sides: int = CIRCLE_SIDES):
    """Concentric circles (as polygons) at the given radii, ids 1, 2, ..."""
    ovals = [regular_polygon((0.0, 0.0), r, sides, i + 1) for i, r in enumerate(radii)]
    return validate_configuration(ovals)


def vanishing_ring_poly(radii) -> MultiPoly:
    """Product of (x^2 + y^2 - r^2) over the radii; vanishes on every ring."""
    prod = MultiPoly.constant(2, 1.0)
    for r in radii:
        prod = prod * MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -(r * r)})
    return prod


def forcing_ladder(d: int, seed: int):
    """A random degree-d p and the (d-1)^2 + 1 ring ladder, where the pigeonhole forces something.

    The ladder is N = (d-1)^2 + 1 concentric 48-gons of radii 0.95(N-i)/N,
    one more domain than p has isolated critical points. The coefficients of
    p are standard normal draws over ``monomials(2, d)`` from
    ``default_rng(seed)``. Returns ``(p, config)``.
    """
    n = (d - 1) ** 2 + 1
    rng = np.random.default_rng(seed)
    p = MultiPoly(2, {exp: float(rng.normal()) for exp in monomials(2, d)})
    return p, concentric_ring_config([0.95 * (n - i) / n for i in range(n)])


def random_poly(n: int, d: int, rng: np.random.Generator, scale: float = 1.0) -> MultiPoly:
    """Dense random polynomial with iid uniform coefficients in [-scale, scale]."""
    return MultiPoly(n, {exp: float(rng.uniform(-scale, scale)) for exp in monomials(n, d)})


def same_poly(p: MultiPoly, q: MultiPoly) -> bool:
    """Whether p and q have the same variable count, exponent rows and coefficients."""
    return p.nvars == q.nvars and np.array_equal(p.exps, q.exps) and np.array_equal(p.coefs, q.coefs)


def forest_roots(config, parent) -> list[int]:
    """Ids of the ovals that no other oval contains, from the parent array of ``build_nesting_forest``."""
    return [i for i, p in zip(config.ids, parent.tolist()) if p < 0]


def oval_vertices(config) -> list[np.ndarray]:
    """Each oval's (k, 2) vertex rows, in configuration order, cut from the stacked vertices."""
    return np.split(config.vertices, config.starts[1:-1])


def write_config_json(config, path) -> str:
    """Write a validated configuration, or a list of ``Oval`` records, as configuration JSON."""
    if isinstance(config, OvalConfiguration):
        pairs = zip(config.ids, oval_vertices(config))
    else:
        pairs = ((o.id, o.vertices) for o in config)
    data = {"ovals": [{"id": i, "vertices": [[float(x), float(y)] for x, y in v]} for i, v in pairs]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)
