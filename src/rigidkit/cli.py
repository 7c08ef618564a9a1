"""Command-line entry point: JSON reports over the library operations.

Every report embeds a run manifest (subcommand, resolved parameters, sha256
digests of input files, tool version, timestamp); bodies are deterministic
for identical inputs, so reports are reproducible modulo the timestamp. Each
input file is read once, and its digest is of the bytes that read gave the
subcommand, so a piped input such as ``--config <(cat c.json)`` is digested too.
Exit codes: 0 success, 2 validation error, 3 solver failure (a RuntimeWarning,
such as a numpy overflow, counts as one).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib
import json
import math
import sys
import warnings

from . import __version__
from .errors import SolverError, ValidationError

__all__ = ["main"]

# The library names the subcommands call, by home module. A subcommand calls
# ``_cli.<name>``, looked up at call time, so a wrapper patched onto
# ``rigidkit.cli.<name>`` is the one called, and ``__getattr__`` imports only
# the modules a subcommand uses (numpy only when one of them needs it).
_NAMES = {
    "geometry": ("build_domains", "build_nesting_forest", "candidate_grid", "config_from_json_dict", "mu",
                 "sample_boundary"),
    "poly": ("MultiPoly",),
    "remez": ("remez_estimate_lp",),
    "rigidity": ("FORMULAS", "remez_bound_topological", "rigidity_1d_bound", "rigidity_1d_floor", "rigidity_report"),
    "curves": ("composition_report", "crossing_count", "fit_curve", "image_norm"),
    "prooftrace": ("domain_pigeonhole_report",),
    "fractal": ("box_dimension_estimate", "rigidity_threshold_check"),
    "svg": ("render_svg",),
}


def __getattr__(name: str):
    """``rigidkit.cli.<name>`` for a name in ``_NAMES``: import its home module and return it, caching nothing."""
    for home, names in _NAMES.items():
        if name in names:
            return getattr(importlib.import_module(f".{home}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_cli = sys.modules[__name__]

# path -> sha256 digest of the bytes each input read returned; ``main`` empties it before each run
_digests: dict[str, str] = {}


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read input file {path}: {exc}") from exc
    _digests[path] = "sha256:" + hashlib.sha256(raw).hexdigest()
    return raw


def _read_json(path: str, raw: bytes | None = None) -> dict:
    """The JSON in ``path``; ``raw`` is its bytes when the caller has read them already."""
    raw = _read_bytes(path) if raw is None else raw
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


def _read_points_csv(path: str, raw: bytes | None = None) -> np.ndarray:
    import numpy as np
    rows = []
    width = None
    try:
        text = (_read_bytes(path) if raw is None else raw).decode("utf-8-sig")
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


def _manifest(args: argparse.Namespace) -> dict:
    """Run manifest; its inputs are the digests of the bytes each input file gave the subcommand, one read each."""
    params = {k: v for k, v in sorted(vars(args).items()) if v is None or isinstance(v, (str, int, float, bool))}
    return {
        "subcommand": args.subcommand,
        "parameters": params,
        "inputs": dict(_digests),
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
    config = _cli.config_from_json_dict(_read_json(args.config))
    parent, depth = _cli.build_nesting_forest(config)
    areas = _cli.build_domains(config, parent)
    ids = config.ids
    holes = [[] for _ in ids]
    for k, p in enumerate(parent.tolist()):
        if p >= 0:
            holes[p].append(ids[k])
    report = {
        "forest": {
            str(i): {"depth": d, "parent": None if p < 0 else ids[p], "children": sorted(h)}
            for i, d, p, h in zip(ids, depth.tolist(), parent.tolist(), holes)
        },
        "domains": [
            {"outer": i, "holes": sorted(h), "area": a, "formula": "shoelace(outer) - sum of shoelace(holes)"}
            for i, h, a in zip(ids, holes, areas.tolist())
        ],
        "mu": _cli.mu(areas),
        "mu_formula": "min over domains of area(W_j)",
    }
    if args.svg:
        _emit(_cli.render_svg(config, parent, areas), args.svg)
        report["svg"] = args.svg
    return report


def _estimate_fields(est) -> dict:
    """The estimate entries that ``remez-lp`` and ``rigidity`` both report."""
    return {
        "infinite": est.is_infinite,
        "value": None if est.is_infinite else est.value,
        "inverse": 1.0 / est.value,
        "diagnostics": est.diagnostics,
    }


def _cmd_remez_lp(args) -> dict:
    raw = _read_bytes(args.z)
    # a configuration by its bytes, whatever the file's name: no CSV row starts with "{"
    if raw.removeprefix(b"\xef\xbb\xbf").lstrip().startswith(b"{"):
        zsamples = _cli.sample_boundary(_cli.config_from_json_dict(_read_json(args.z, raw)), args.samples_per_oval)
    else:
        zsamples = _read_points_csv(args.z, raw)
    n = zsamples.shape[1]
    candidates = _cli.candidate_grid(n, args.grid)
    est = _cli.remez_estimate_lp(zsamples, args.degree, candidates)
    return {
        "degree": args.degree,
        "n": n,
        **_estimate_fields(est),
        "witness_poly": est.witness_poly.to_json_dict(),
        "witness_point": None if est.witness_point is None else [float(v) for v in est.witness_point],
        "formula": "min K with sup_B |P| <= K sup_Z |P| (LP on sampled constraints)",
    }


def _cmd_bounds(args) -> dict:
    config = _cli.config_from_json_dict(_read_json(args.config))
    mu_val = _cli.mu(_cli.build_domains(config, _cli.build_nesting_forest(config)[0]))
    count = config.N
    return {
        "degree": args.degree,
        "n": 2,  # the topological bounds are planar
        "mu": mu_val,
        "oval_count": count,
        "remez_topological": _cli.remez_bound_topological(mu_val, args.degree, count),
        "rigidity": _cli.rigidity_report(args.degree, mu_value=mu_val, oval_count=count),
    }


def _cmd_rigidity(args) -> dict:
    config = _cli.config_from_json_dict(_read_json(args.config))
    mu_val = _cli.mu(_cli.build_domains(config, _cli.build_nesting_forest(config)[0]))
    count = config.N
    zsamples = _cli.sample_boundary(config, args.samples_per_oval)
    est = _cli.remez_estimate_lp(zsamples, args.degree, _cli.candidate_grid(2, args.grid))
    estimate = _estimate_fields(est)
    rep = _cli.rigidity_report(args.degree, mu_value=mu_val, oval_count=count, inv_remez=estimate["inverse"])
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
    bound = _cli.rigidity_1d_bound(zeros, args.z0, args.degree)
    return {
        "degree": args.degree,
        "zeros": zeros,
        "z0": args.z0,
        "fz0": 1.0,
        "bound": bound,
        "formula": _cli.FORMULAS["one_dimensional"],
        "universal_floor": _cli.rigidity_1d_floor(args.degree),
        "universal_floor_formula": _cli.FORMULAS["one_dimensional_floor"],
    }


def _cmd_curve_check(args) -> dict:
    f = _cli.MultiPoly.from_json_dict(_read_json(args.f))
    points = _read_points_csv(args.points)
    curve = _cli.fit_curve(points, args.s)
    comp = _cli.composition_report(f, curve, args.s, args.degree, args.tgrid)
    crossings = None
    if args.config:
        crossings = _cli.crossing_count(curve, _cli.config_from_json_dict(_read_json(args.config)))
    return {
        "curve": {
            "s": args.s,
            "components": [c.to_json_dict() for c in curve],
            "max_image_norm": _cli.image_norm(curve),
        },
        "composition": comp,
        "composition_formula": (
            "sum_{k=ceil((d+1)/s)}^{d+1} |f^(k)(omega(t))| >= c * |g^(d+1)(t)|"
        ),
        "crossings": crossings,
    }


def _cmd_boxdim(args) -> dict:
    points = _read_points_csv(args.points)
    fit = _cli.box_dimension_estimate(points, _parse_floats(args.scales, "scales list"))
    threshold = _cli.rigidity_threshold_check(fit["slope"], points.shape[1], args.degree)
    return {
        "fit": fit,
        "slope_formula": "least-squares slope of log N(eps) vs log(1/eps)",
        "threshold": threshold,
        "threshold_formula": "beta > n - 1/(d+1)",
    }


def _cmd_verify_proof(args) -> dict:
    p = _cli.MultiPoly.from_json_dict(_read_json(args.poly))
    config = _cli.config_from_json_dict(_read_json(args.config))
    return _cli.domain_pigeonhole_report(p, config, args.grid)


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

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, parents=[out], help=summary)
        cmd.set_defaults(func=func)
        return cmd

    d = command("decompose", _cmd_decompose, "validate a configuration and emit forest/domains/mu")
    d.add_argument("--config", required=True, help="configuration JSON")
    d.add_argument("--svg", default=None, help="also write an SVG rendering here")

    r = command("remez-lp", _cmd_remez_lp, "LP lower estimate of the Remez constant of sampled Z")
    r.add_argument("--degree", type=int, required=True)
    r.add_argument("--z", required=True, help="points CSV (x or x,y rows) or configuration JSON")
    r.add_argument("--grid", type=int, default=64, help="candidate grid points per axis")
    r.add_argument("--samples-per-oval", type=int, default=256)

    b = command("bounds", _cmd_bounds, "closed-form planar Remez and rigidity bounds from mu")
    b.add_argument("--config", required=True)
    b.add_argument("--degree", type=int, required=True)

    g = command("rigidity", _cmd_rigidity, "full pipeline: geometry, LP estimate, rigidity report")
    g.add_argument("--config", required=True)
    g.add_argument("--degree", type=int, required=True)
    g.add_argument("--grid", type=int, default=64)
    g.add_argument("--samples-per-oval", type=int, default=256)

    r1 = command("rigidity-1d", _cmd_rigidity_1d, "divided-difference lower bound on [-1, 1] for |f(z0)| = 1")
    r1.add_argument("--zeros", required=True, help="comma-separated zeros, d+1 of them")
    r1.add_argument("--z0", type=float, required=True, help="witness point in [-1, 1], where |f| = 1")
    r1.add_argument("--degree", type=int, required=True)

    c = command("curve-check", _cmd_curve_check, "fit a test curve and probe the composition inequality")
    c.add_argument("--f", required=True, help="polynomial JSON")
    c.add_argument("--points", required=True, help="points CSV to interpolate")
    c.add_argument("--s", type=int, required=True, help="curve degree")
    c.add_argument("--degree", type=int, required=True, help="derivative order d")
    c.add_argument("--tgrid", type=int, default=512)
    c.add_argument("--config", default=None, help="optional configuration for crossing count")

    x = command("boxdim", _cmd_boxdim, "box-counting dimension estimate and threshold verdict")
    x.add_argument("--points", required=True, help="points CSV")
    x.add_argument("--scales", required=True, help="comma-separated decreasing scales")
    x.add_argument("--degree", type=int, required=True)

    v = command("verify-proof", _cmd_verify_proof, "critical-point count and domain pigeonhole evidence")
    v.add_argument("--poly", required=True, help="polynomial JSON")
    v.add_argument("--config", required=True)
    v.add_argument("--grid", type=int, default=64, help="Newton seed grid per axis")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _digests.clear()
    try:
        with warnings.catch_warnings():  # an overflow or invalid operation inside numpy is a solver error
            warnings.simplefilter("error", RuntimeWarning)
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
    except (SolverError, RuntimeWarning) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
