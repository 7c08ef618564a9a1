"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (echoed in the terminal summary via
conftest) so the verdicts are readable from one run.
"""

import contextlib
import json
import math
import time
from itertools import product

import numpy as np

import conftest
from conftest import (
    concentric_ring_config,
    forest_roots,
    oval_vertices,
    random_circle_config,
    random_circle_config_exact,
    random_poly,
    shoelace_area,
    square,
    vanishing_ring_poly,
    write_config_json,
)
from rigidkit.cli import main
from rigidkit.curves import composition_report
from rigidkit.fractal import box_dimension_estimate, rigidity_threshold_check
from rigidkit.geometry import build_domains, build_nesting_forest, mu, sample_boundary
from rigidkit.poly import MultiPoly, compose, eval_poly
from rigidkit.prooftrace import domain_pigeonhole_report, find_critical_points, perturb_linear
from rigidkit.remez import remez_estimate_lp
from rigidkit.rigidity import rigidity_1d_bound


class _Criterion:
    def __init__(self, num: int):
        self.num = num
        self.ok = False
        self.detail = ""


@contextlib.contextmanager
def _criterion(num: int):
    crit = _Criterion(num)
    try:
        yield crit
    except BaseException as exc:
        crit.ok = False
        crit.detail = crit.detail or f"raised {exc!r}"
        _emit(crit)
        raise
    _emit(crit)
    assert crit.ok, f"criterion {num}: {crit.detail}"


def _emit(crit: _Criterion) -> None:
    line = f"{'PASS' if crit.ok else 'FAIL'} criterion {crit.num}: {crit.detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


CHEB_HALF_TO_FULL = {1: 3.0, 2: 17.0, 3: 99.0, 4: 577.0, 5: 3363.0}


def test_criterion_1_lp_estimator_recovers_chebyshev_growth():
    # Z = [-1, 0] sampled uniformly, extension to all of [-1, 1]: the extremal
    # polynomial is Chebyshev, so the estimate must track T_d(3).
    with _criterion(1) as crit:
        zsamples = np.linspace(-1.0, 0.0, 512).reshape(-1, 1)
        candidates = np.linspace(-1.0, 1.0, 1024).reshape(-1, 1)
        start = time.perf_counter()
        values = {}
        for d, target in CHEB_HALF_TO_FULL.items():
            est = remez_estimate_lp(zsamples, d, candidates)
            values[d] = est.value
        elapsed = time.perf_counter() - start
        errs = {d: abs(values[d] - t) / t for d, t in CHEB_HALF_TO_FULL.items()}
        crit.ok = all(e <= 0.05 for e in errs.values()) and elapsed < 30.0
        crit.detail = (
            "degrees 1..5 estimate T_d(3) within "
            f"{max(errs.values()):.2%} (limit 5%) in {elapsed:.2f}s"
        )


def test_criterion_2_decomposition_counts_and_areas():
    with _criterion(2) as crit:
        rng = np.random.default_rng(20260819)
        bad = []
        for trial in range(200):
            config = random_circle_config(rng)
            parent, _ = build_nesting_forest(config)
            areas = build_domains(config, parent)
            if len(areas) != config.N:
                bad.append((trial, "count"))
                continue
            total = sum(areas.tolist())
            by_id = dict(zip(config.ids, oval_vertices(config)))
            root_total = sum(shoelace_area(by_id[rid]) for rid in forest_roots(config, parent))
            if abs(total - root_total) > 1e-9 * max(1.0, abs(root_total)):
                bad.append((trial, "area"))
        crit.ok = not bad
        crit.detail = (
            "200/200 random configurations: domain count equals oval count and "
            "domain areas sum to the root areas (rel 1e-9)"
            if crit.ok
            else f"failed trials: {bad[:5]}"
        )


def test_criterion_3_topological_remez_inequality_on_samples():
    with _criterion(3) as crit:
        rng = np.random.default_rng(31)
        axis = np.linspace(-1.0, 1.0, 64)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        ball = np.stack([gx.ravel(), gy.ravel()], axis=1)
        ball = ball[np.hypot(ball[:, 0], ball[:, 1]) <= 1.0 + 1e-12]
        worst = 0.0
        violations = 0
        for d in (2, 3):
            needed = (d - 1) ** 2 + 1
            for _ in range(100):
                config = random_circle_config_exact(rng, needed)
                mu_val = mu(build_domains(config, build_nesting_forest(config)[0]))
                p = random_poly(2, d, rng)
                ball_max = float(np.max(np.abs(eval_poly(p, [ball[:, 0], ball[:, 1]]))))
                bpts = sample_boundary(config, 256)
                oval_max = float(np.max(np.abs(eval_poly(p, [bpts[:, 0], bpts[:, 1]]))))
                ratio = ball_max / oval_max
                bound = (8.0 / mu_val) ** d + 1e-6
                worst = max(worst, ratio / bound)
                if ratio > bound:
                    violations += 1
        crit.ok = violations == 0
        crit.detail = (
            f"200 trials (d=2,3 with (d-1)^2+1 ovals): sampled sup ratio within "
            f"(8/mu)^d, worst ratio/bound {worst:.3g}"
            if crit.ok
            else f"{violations} trials exceeded the bound"
        )


def test_criterion_4_divided_difference_bound_sound_and_floored():
    with _criterion(4) as crit:
        rng = np.random.default_rng(41)
        ts = np.linspace(-1.0, 1.0, 4001)
        bad = 0
        for d in range(1, 5):
            fact = math.factorial(d + 1)
            floor = fact / 2.0 ** (d + 1)
            for _ in range(200):
                while True:
                    nodes = np.sort(rng.uniform(-1.0, 1.0, d + 1))
                    if d == 0 or np.min(np.diff(nodes)) > 1e-3:
                        break
                lead = float(rng.uniform(0.5, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
                coeffs = lead * np.poly(nodes)
                fvals = np.polyval(coeffs, ts)
                m = float(np.max(np.abs(fvals)))
                i0 = int(np.argmax(np.abs(fvals)))
                z0 = float(ts[i0])
                bound = rigidity_1d_bound(list(nodes), z0, d)
                exact = fact * abs(lead) / m
                if not (bound <= exact + 1e-9 and bound >= floor - 1e-12):
                    bad += 1
        crit.ok = bad == 0
        crit.detail = (
            "800 normalized vanishing polynomials (d=1..4): bound never exceeds "
            "the exact top derivative and never drops under (d+1)!/2^(d+1)"
            if crit.ok
            else f"{bad} trials violated an inequality"
        )


def test_criterion_5_symbolic_composition_matches_numeric():
    with _criterion(5) as crit:
        rng = np.random.default_rng(53)
        ts = np.linspace(-1.0, 1.0, 100)
        bad = []
        degenerate = 0
        for trial in range(100):
            deg_f = int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            f = random_poly(2, deg_f, rng)
            wx = random_poly(1, s, rng, scale=0.15)
            wy = random_poly(1, s, rng, scale=0.15)
            g = compose(f, (wx, wy))
            direct = eval_poly(f, [eval_poly(wx, [ts]), eval_poly(wy, [ts])])
            gvals = eval_poly(g, [ts])
            err = np.max(np.abs(gvals - direct) / np.maximum(1.0, np.abs(direct)))
            if err > 1e-9:
                bad.append((trial, "mismatch", float(err)))
                continue
            if g.degree > s * deg_f:
                bad.append((trial, "degree"))
                continue
            report = composition_report(f, (wx, wy), s, max(1, g.degree - 1), 128)
            if report["all_degenerate"]:
                degenerate += 1
                if report["c_hat"] is not None:
                    bad.append((trial, "degenerate with c_hat"))
            elif report["c_hat"] is None or report["c_hat"] <= 0.0:
                bad.append((trial, "nonpositive c_hat"))
        crit.ok = not bad
        crit.detail = (
            f"100 random (f, omega) pairs: symbolic composition matches numeric "
            f"(rel 1e-9), degree bounded by s*deg(f), c_hat positive "
            f"({degenerate} degenerate trials exempt)"
            if crit.ok
            else f"failures: {bad[:5]}"
        )


def test_criterion_6_box_dimension_estimates():
    with _criterion(6) as crit:
        scales = [2.0**-k for k in range(3, 7)]
        mids = (np.arange(256) + 0.5) / 256.0
        px, py = np.meshgrid(mids, mids, indexing="ij")
        plane = np.stack([px.ravel(), py.ravel()], axis=1)
        plane_slope = box_dimension_estimate(plane, scales)["slope"]

        seg_x = (np.arange(4096) + 0.5) / 4096.0
        segment = np.stack([seg_x, np.full_like(seg_x, 0.3)], axis=1)
        seg_slope = box_dimension_estimate(segment, scales)["slope"]

        rng = np.random.default_rng(61)
        pts = rng.uniform(-0.9, 0.9, size=(50, 2))
        diffs = pts[:, None, :] - pts[None, :, :]
        dist = np.max(np.abs(diffs), axis=2)
        gap = float(np.min(dist[np.triu_indices(50, k=1)]))
        cloud_slope = box_dimension_estimate(pts, [gap / 4.0, gap / 8.0, gap / 16.0])["slope"]

        exact = (
            rigidity_threshold_check(1.9, 2, 1)["threshold"] == 1.5
            and rigidity_threshold_check(1.85, 2, 9)["threshold"] == 2.0 - 1.0 / 10.0
            and rigidity_threshold_check(0.5, 1, 0)["threshold"] == 0.0
            and rigidity_threshold_check(1.9, 2, 1)["exceeded"] is True
            and rigidity_threshold_check(1.85, 2, 9)["exceeded"] is False
            and rigidity_threshold_check(0.5, 1, 0)["exceeded"] is True
            and rigidity_threshold_check(1.5, 2, 1)["exceeded"] is False
        )
        crit.ok = (
            abs(plane_slope - 2.0) <= 0.1
            and abs(seg_slope - 1.0) <= 0.1
            and abs(cloud_slope) <= 0.1
            and exact
        )
        crit.detail = (
            f"slopes: plane {plane_slope:.4f} (target 2), segment {seg_slope:.4f} "
            f"(target 1), finite cloud {cloud_slope:.4f} (target 0); threshold "
            f"arithmetic exact: {exact}"
        )


def test_criterion_7_critical_points_and_pigeonhole():
    with _criterion(7) as crit:
        # (x^2-1)^2 + (y^2-1)^2 has exactly the 3x3 grid of critical points
        nine = MultiPoly(2, {(4, 0): 1.0, (2, 0): -2.0, (0, 4): 1.0, (0, 2): -2.0, (0, 0): 2.0})
        cps = find_critical_points(nine, ((-1.5, -1.5), (1.5, 1.5)), 24)
        expected = sorted(product((-1.0, 0.0, 1.0), repeat=2))
        got = sorted(map(tuple, cps.representatives))
        nine_ok = cps.n_clusters == 9 and all(
            math.hypot(g[0] - e[0], g[1] - e[1]) <= 1e-6 for g, e in zip(got, expected)
        )

        rng = np.random.default_rng(71)
        max_excess = 0
        for _ in range(500):
            d = int(rng.integers(2, 6))
            q = perturb_linear(random_poly(2, d, rng), 1e-6)
            found = find_critical_points(q, ((-1.3, -1.3), (1.3, 1.3)), 12)
            max_excess = max(max_excess, found.n_clusters - (q.degree - 1) ** 2)
        count_ok = max_excess <= 0

        flagged_total = 0
        pigeonhole_ok = True
        for radii in ((0.95, 0.55), (0.95, 0.65, 0.35)):
            report = domain_pigeonhole_report(vanishing_ring_poly(radii), concentric_ring_config(radii), newton_grid=48)
            flagged = [e for e in report["domains"] if e["flagged"]]
            flagged_total += len(flagged)
            pigeonhole_ok = pigeonhole_ok and all(e["has_critical_point"] for e in flagged)
            pigeonhole_ok = pigeonhole_ok and report["confinement_violations"] == []
        pigeonhole_ok = pigeonhole_ok and flagged_total >= 5

        crit.ok = nine_ok and count_ok and pigeonhole_ok
        crit.detail = (
            f"nine-point fixture located within 1e-6: {nine_ok}; 500 perturbed "
            f"trials within the (d-1)^2 cluster bound: {count_ok}; every flagged "
            f"domain ({flagged_total} across ring fixtures) holds a critical "
            f"point: {pigeonhole_ok}"
        )


def test_criterion_8_cli_reports_deterministic(tmp_path):
    with _criterion(8) as crit:
        s = math.sqrt(2.0) / 2.0
        annulus = tmp_path / "annulus.json"
        write_config_json([square(2.0 * s, 1), square(1.0, 2)], annulus)

        halfline = tmp_path / "halfline.csv"
        halfline.write_text("\n".join(f"{t:.12f}" for t in np.linspace(-1.0, 0.0, 512)))

        fxy = tmp_path / "fxy.json"
        fxy.write_text(
            json.dumps(
                {"nvars": 2, "terms": [{"exp": [2, 0], "coef": 1.0}, {"exp": [0, 2], "coef": 1.0}]}
            )
        )

        pts3 = tmp_path / "pts3.csv"
        pts3.write_text("-0.3,0.2\n0.0,-0.1\n0.3,0.2\n")

        mids = (np.arange(32) + 0.5) / 32.0
        gxs, gys = np.meshgrid(mids, mids, indexing="ij")
        grid_csv = tmp_path / "grid.csv"
        grid_csv.write_text(
            "\n".join(f"{x:.10f},{y:.10f}" for x, y in zip(gxs.ravel(), gys.ravel()))
        )

        rings = tmp_path / "rings.json"
        write_config_json(concentric_ring_config((0.95, 0.55)), rings)
        ringpoly = tmp_path / "ringpoly.json"
        ringpoly.write_text(json.dumps(vanishing_ring_poly((0.95, 0.55)).to_json_dict()))

        commands = {
            "decompose": ["decompose", "--config", str(annulus)],
            "remez-lp": ["remez-lp", "--degree", "2", "--z", str(halfline), "--grid", "256"],
            "bounds": ["bounds", "--config", str(annulus), "--degree", "2"],
            "rigidity": [
                "rigidity", "--config", str(annulus), "--degree", "1",
                "--grid", "16", "--samples-per-oval", "32",
            ],
            "rigidity-1d": ["rigidity-1d", "--zeros=-0.8,-0.2,0.5", "--z0", "0.9", "--degree", "2"],
            "curve-check": [
                "curve-check", "--f", str(fxy), "--points", str(pts3),
                "--s", "2", "--degree", "3", "--tgrid", "128", "--config", str(annulus),
            ],
            "boxdim": [
                "boxdim", "--points", str(grid_csv),
                "--scales", "0.25,0.125,0.0625", "--degree", "1",
            ],
            "verify-proof": [
                "verify-proof", "--poly", str(ringpoly), "--config", str(rings), "--grid", "24",
            ],
        }

        unstable = []
        for name, argv in commands.items():
            bodies = []
            out = tmp_path / f"{name}.json"
            for _run in range(2):
                code = main(argv + ["--out", str(out)])
                if code != 0:
                    unstable.append((name, f"exit {code}"))
                    break
                body = json.loads(out.read_text())
                body["manifest"].pop("timestamp")
                bodies.append(body)
            if len(bodies) == 2 and bodies[0] != bodies[1]:
                unstable.append((name, "bodies differ"))
        crit.ok = not unstable
        crit.detail = (
            "all 8 subcommands produce identical report bodies across repeat "
            "runs (timestamp aside)"
            if crit.ok
            else f"unstable: {unstable}"
        )
