"""Command-line entry point: JSON reports over the library operations.

Every report embeds a run manifest (subcommand, resolved parameters, sha256
digests of input files, tool version, timestamp); bodies are deterministic
for identical inputs, so reports are reproducible modulo the timestamp.
Exit codes: 0 success, 2 validation error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import SolverError, ValidationError
from .fractal import PointCloud, box_dimension_estimate, rigidity_threshold_check
from .geometry import (
    build_domains,
    build_nesting_forest,
    config_from_json_dict,
    in_unit_ball,
    lattice,
    mu,
    sample_boundary,
)
from .poly import MultiPoly
from .remez import inverse_remez, remez_estimate_lp
from .rigidity import FORMULAS, ovals_required, remez_bound_topological, rigidity_1d_bound, rigidity_report
from .curves import composition_report, crossing_count, fit_curve
from .prooftrace import domain_pigeonhole_report
from .svg import render_svg

__all__ = ["main"]


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read input file {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    raw = _read_bytes(path)
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


def _load_points_csv(path: str) -> np.ndarray:
    rows = []
    width = None
    try:
        text = _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"malformed point in {path}: {exc}") from exc
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValidationError(f"malformed point in {path} line {ln}: {exc}") from exc
        if not all(math.isfinite(v) for v in row):
            raise ValidationError(f"non-finite coordinate in {path} line {ln}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"inconsistent column count in {path} line {ln}")
        rows.append(row)
    if not rows:
        raise ValidationError(f"no points in {path}")
    return np.array(rows, dtype=float)


def _candidate_grid(n: int, k: int) -> np.ndarray:
    """k-per-axis lattice over [-1,1]^n clipped to the Euclidean ball."""
    if k < 2:
        raise ValidationError(f"candidate grid must be >= 2 points per axis, got {k}")
    pts = lattice((-1.0,) * n, (1.0,) * n, k)
    pts = pts[in_unit_ball(pts)]
    if not len(pts):
        raise ValidationError(f"no point of the {k}-per-axis candidate grid lies in the unit ball")
    return pts


def _manifest(args: argparse.Namespace) -> dict:
    """Run manifest; ``args.inputs`` names the options that hold input file paths."""
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func",) and (v is None or isinstance(v, (str, int, float, bool)))
    }
    paths = [path for path in (getattr(args, k) for k in args.inputs) if path]
    digests = {path: "sha256:" + hashlib.sha256(_read_bytes(path)).hexdigest() for path in paths}
    return {
        "subcommand": args.subcommand,
        "parameters": params,
        "inputs": digests,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write output file {out}: {exc}") from exc


# --- subcommands ---------------------------------------------------------


def _cmd_decompose(args) -> dict:
    config = config_from_json_dict(_load_json(args.config))
    forest = build_nesting_forest(config)
    domains = build_domains(forest)
    report = {
        "forest": {
            str(node.oval_id): {
                "depth": node.depth,
                "parent": node.parent,
                "children": sorted(node.children),
            }
            for node in forest.nodes.values()
        },
        "domains": [
            {
                "outer": dom.outer.id,
                "holes": sorted(h.id for h in dom.holes),
                "area": dom.area,
                "formula": "shoelace(outer) - sum of shoelace(holes)",
            }
            for dom in domains
        ],
        "mu": mu(domains),
        "mu_formula": "min over domains of area(W_j)",
    }
    if args.svg:
        _emit(render_svg(domains), args.svg)
        report["svg"] = args.svg
    return report


def _boundary_samples(config, per_oval: int) -> np.ndarray:
    return np.concatenate([sample_boundary(o, per_oval) for o in config.ovals], axis=0)


def _estimate_fields(est) -> dict:
    """The estimate entries that ``remez-lp`` and ``rigidity`` both report."""
    return {
        "infinite": est.is_infinite,
        "value": None if est.is_infinite else est.value,
        "inverse": inverse_remez(est),
        "diagnostics": est.diagnostics,
    }


def _cmd_remez_lp(args) -> dict:
    if args.z.endswith(".json"):
        zsamples = _boundary_samples(config_from_json_dict(_load_json(args.z)), args.samples_per_oval)
    else:
        zsamples = _load_points_csv(args.z)
    n = zsamples.shape[1]
    candidates = _candidate_grid(n, args.grid)
    est = remez_estimate_lp(zsamples, args.degree, candidates)
    return {
        "degree": args.degree,
        "n": n,
        **_estimate_fields(est),
        "witness_poly": est.witness_poly.to_json_dict(),
        "witness_point": None if est.witness_point is None else [float(v) for v in est.witness_point],
        "formula": "min K with sup_B |P| <= K sup_Z |P| (LP on sampled constraints)",
    }


def _cmd_bounds(args) -> dict:
    config = config_from_json_dict(_load_json(args.config))
    mu_val = mu(build_domains(build_nesting_forest(config)))
    count = config.N
    required = ovals_required(args.degree)
    remez_val = remez_bound_topological(mu_val, args.degree)
    rep = rigidity_report(args.degree, mu_value=mu_val, oval_count=count)
    return {
        "degree": args.degree,
        "n": 2,  # the topological bounds are planar
        "mu": mu_val,
        "oval_count": count,
        "remez_topological": {
            "value": remez_val,
            "formula": "(4n/mu)^d",
            "hypothesis_ok": count >= required,
            "ovals_required": required,
        },
        "rigidity": rep,
    }


def _cmd_rigidity(args) -> dict:
    config = config_from_json_dict(_load_json(args.config))
    mu_val = mu(build_domains(build_nesting_forest(config)))
    count = config.N
    zsamples = _boundary_samples(config, args.samples_per_oval)
    est = remez_estimate_lp(zsamples, args.degree, _candidate_grid(2, args.grid))
    estimate = _estimate_fields(est)
    rep = rigidity_report(args.degree, mu_value=mu_val, oval_count=count, inv_remez=estimate["inverse"])
    return {
        "degree": args.degree,
        "mu": mu_val,
        "oval_count": count,
        "remez_estimate": estimate,
        "rigidity": rep,
    }


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc
    if not vals:
        raise ValidationError(f"empty {what}")
    return vals


def _cmd_rigidity_1d(args) -> dict:
    zeros = sorted(_parse_floats(args.zeros, "zeros list"))
    bound = rigidity_1d_bound(zeros, args.z0, args.degree)
    floor = math.factorial(args.degree + 1) / 2 ** (args.degree + 1)
    return {
        "degree": args.degree,
        "zeros": zeros,
        "z0": args.z0,
        "fz0": 1.0,
        "bound": bound,
        "formula": FORMULAS["one_dimensional"],
        "universal_floor": floor,
        "universal_floor_formula": "(d+1)!/2^(d+1)",
    }


def _cmd_curve_check(args) -> dict:
    f = MultiPoly.from_json_dict(_load_json(args.f))
    points = _load_points_csv(args.points)
    curve = fit_curve(points, args.s)
    comp = composition_report(f, curve, args.degree, args.tgrid)
    crossings = None
    if args.config:
        crossings = crossing_count(curve, config_from_json_dict(_load_json(args.config)))
    return {
        "curve": {
            "s": curve.s,
            "components": [c.to_json_dict() for c in curve.components],
            "max_image_norm": curve.max_image_norm(),
        },
        "composition": comp,
        "composition_formula": (
            "sum_{k=ceil((d+1)/s)}^{d+1} |f^(k)(omega(t))| >= c * |g^(d+1)(t)|"
        ),
        "crossings": crossings,
    }


def _cmd_boxdim(args) -> dict:
    points = _load_points_csv(args.points)
    cloud = PointCloud(points)
    scales = _parse_floats(args.scales, "scales list")
    fit = box_dimension_estimate(cloud, scales)
    threshold = rigidity_threshold_check(fit["slope"], cloud.dim, args.degree)
    return {
        "fit": fit,
        "slope_formula": "least-squares slope of log N(eps) vs log(1/eps)",
        "threshold": threshold,
        "threshold_formula": "beta > n - 1/(d+1)",
    }


def _cmd_verify_proof(args) -> dict:
    p = MultiPoly.from_json_dict(_load_json(args.poly))
    config = config_from_json_dict(_load_json(args.config))
    report = domain_pigeonhole_report(p, config, args.grid)
    return {
        "bezout_formula": "at most (d-1)^2 isolated critical points",
        **report,
    }


# --- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidkit",
        description="Nested-oval zero sets: decomposition, Remez-type bounds, rigidity estimates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)

    def command(name: str, func, summary: str, inputs: tuple[str, ...]) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, parents=[out], help=summary)
        cmd.set_defaults(func=func, inputs=inputs)
        return cmd

    d = command("decompose", _cmd_decompose, "validate a configuration and emit forest/domains/mu", ("config",))
    d.add_argument("--config", required=True, help="configuration JSON")
    d.add_argument("--svg", default=None, help="also write an SVG rendering here")

    r = command("remez-lp", _cmd_remez_lp, "LP lower estimate of the Remez constant of sampled Z", ("z",))
    r.add_argument("--degree", type=int, required=True)
    r.add_argument("--z", required=True, help="points CSV (x or x,y rows) or configuration JSON")
    r.add_argument("--grid", type=int, default=64, help="candidate grid points per axis")
    r.add_argument("--samples-per-oval", type=int, default=256)

    b = command("bounds", _cmd_bounds, "closed-form planar Remez and rigidity bounds from mu", ("config",))
    b.add_argument("--config", required=True)
    b.add_argument("--degree", type=int, required=True)

    g = command("rigidity", _cmd_rigidity, "full pipeline: geometry, LP estimate, rigidity report", ("config",))
    g.add_argument("--config", required=True)
    g.add_argument("--degree", type=int, required=True)
    g.add_argument("--grid", type=int, default=64)
    g.add_argument("--samples-per-oval", type=int, default=256)

    r1 = command("rigidity-1d", _cmd_rigidity_1d, "divided-difference lower bound on [-1, 1] for |f(z0)| = 1", ())
    r1.add_argument("--zeros", required=True, help="comma-separated zeros, d+1 of them")
    r1.add_argument("--z0", type=float, required=True, help="witness point in [-1, 1], where |f| = 1")
    r1.add_argument("--degree", type=int, required=True)

    c = command(
        "curve-check", _cmd_curve_check, "fit a test curve and probe the composition inequality", ("f", "points", "config")
    )
    c.add_argument("--f", required=True, help="polynomial JSON")
    c.add_argument("--points", required=True, help="points CSV to interpolate")
    c.add_argument("--s", type=int, required=True, help="curve degree")
    c.add_argument("--degree", type=int, required=True, help="derivative order d")
    c.add_argument("--tgrid", type=int, default=512)
    c.add_argument("--config", default=None, help="optional configuration for crossing count")

    x = command("boxdim", _cmd_boxdim, "box-counting dimension estimate and threshold verdict", ("points",))
    x.add_argument("--points", required=True, help="points CSV")
    x.add_argument("--scales", required=True, help="comma-separated decreasing scales")
    x.add_argument("--degree", type=int, required=True)

    v = command(
        "verify-proof", _cmd_verify_proof, "critical-point count and domain pigeonhole evidence", ("poly", "config")
    )
    v.add_argument("--poly", required=True, help="polynomial JSON")
    v.add_argument("--config", required=True)
    v.add_argument("--grid", type=int, default=64, help="Newton seed grid per axis")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
        report["manifest"] = _manifest(args)
        try:
            text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise SolverError(f"report has a non-finite number: {exc}") from exc
        _emit(text + "\n", args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
