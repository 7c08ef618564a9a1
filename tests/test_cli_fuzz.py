"""Fuzzed CLI runs: every subcommand ends in exit 0, 2 or 3, never in a traceback.

``cli.main`` runs in-process on generated input files. Each file starts
valid (nested or separate rings, a planar polynomial, points in the unit
disc), and each option in range. Half the cases stay clean, so the
numerical stages run; the other half put exactly one fault into one input
file or option, so that the fault reaches the stage that reads it with
nothing else wrong: NaN, infinite, huge or tiny coordinates or
coefficients, wrong shapes, empty inputs, duplicate or non-integer ids,
negative or zero options, or a file replaced by malformed, deeply nested or
undecodable bytes. Exits 2 and 3 print exactly one stderr line and nothing
on stdout, and a warning that escapes ``main`` counts as a stderr line.
Inputs that once failed run first as explicit examples. Hypothesis is
derandomized, so every run draws the same examples.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from rigidkit.cli import main  # noqa: E402

FUZZ = settings(max_examples=40, deadline=None, database=None, derandomize=True)

SPECIAL = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 1.0 + 1e-9, 2.0, -0.0]
WRONG = [None, "x", [], {}, 2.5, [[0.1, 0.2]]]


def fault(draw, bad: bool, faults: list[str]) -> str:
    """One of ``faults`` where the case's fault goes, else ``"none"``."""
    return draw(st.sampled_from(faults)) if bad else "none"


def number(draw, bad: bool) -> float:
    return draw(st.sampled_from(SPECIAL) if bad else st.floats(-1.0, 1.0))


def option(draw, bad: bool, lo: int, hi: int, *wrong: int) -> str:
    """An integer option as argv text: one of ``wrong`` where the case's fault goes, else in [lo, hi]."""
    return str(draw(st.sampled_from(wrong) if bad else st.integers(lo, hi)))


def token(value: float) -> str:
    return repr(value) if math.isfinite(value) else str(value)


def polygon(centre, radius: float, sides: int) -> list:
    cx, cy = centre
    return [[cx + radius * math.cos(2 * math.pi * j / sides), cy + radius * math.sin(2 * math.pi * j / sides)]
            for j in range(sides)]


def config_doc(draw, bad: bool) -> dict:
    """Nested or separate regular polygons, with one fault in one oval entry if ``bad``."""
    n = draw(st.integers(1, 4))
    sides = draw(st.sampled_from([8, 4, 16, 3]))
    if draw(st.booleans()):
        ovals = [polygon((0.0, 0.05), 0.9 * (n - i) / n, sides) for i in range(n)]
    else:
        ovals = [polygon(c, 0.3, sides) for c in [(-0.4, -0.4), (0.4, -0.4), (-0.4, 0.4), (0.4, 0.4)][:n]]
    doc = {"ovals": [{"id": k + 1, "vertices": v} for k, v in enumerate(ovals)]}
    entry = doc["ovals"][draw(st.integers(0, n - 1))]
    verts = entry["vertices"]
    kind = fault(draw, bad, ["duplicate id", "id", "vertex", "shape", "vertices", "clockwise", "missing", "scale",
                             "shift"])
    if kind == "duplicate id":
        entry["id"] = doc["ovals"][0]["id"]
    elif kind == "id":
        entry["id"] = draw(st.sampled_from([2.5, "1", None, math.nan, math.inf, True, 10**30, -1]))
    elif kind == "vertex":
        verts[draw(st.integers(0, sides - 1))] = draw(st.permutations([number(draw, True), number(draw, False)]))
    elif kind == "shape":
        verts[draw(st.integers(0, sides - 1))] = draw(st.sampled_from([[0.1], [0.1, 0.2, 0.3], "x", None, [[0.1]]]))
    elif kind == "vertices":
        entry["vertices"] = draw(st.sampled_from(WRONG + [[[0.1, 0.1], [0.2, 0.1]]]))
    elif kind == "clockwise":
        verts.reverse()
    elif kind == "missing":
        del entry[draw(st.sampled_from(["id", "vertices"]))]
    elif kind == "scale":
        factor = draw(st.sampled_from([1.2, 1e300, 0.0, 1e-300, 1e-9]))
        entry["vertices"] = [[x * factor, y * factor] for x, y in verts]
    elif kind == "shift":
        entry["vertices"] = [[x + 0.1, y] for x, y in verts]
    return doc


def poly_doc(draw, bad: bool) -> dict:
    """A planar polynomial of degree up to 8, with one fault if ``bad``."""
    terms = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.floats(-2.0, 2.0)), min_size=1, max_size=6,
                          unique_by=lambda term: term[:2]))
    doc = {"nvars": 2, "terms": [{"exp": [a, b], "coef": c} for a, b, c in terms]}
    term = doc["terms"][0]
    kind = fault(draw, bad, ["nvars", "exp", "coef", "scale", "duplicate", "terms", "missing"])
    if kind == "nvars":
        doc["nvars"] = draw(st.sampled_from([1, 3, 0, -1, "2", 2.5, None, 10**6]))
    elif kind == "exp":
        term["exp"] = draw(st.sampled_from([[-1, 0], [2.5, 0], ["a", 0], [None, 0], [math.nan, 0], [10**20, 0],
                                            [1e300, 0], [1], [1, 1, 1], 3]))
    elif kind == "coef":
        term["coef"] = draw(st.sampled_from(SPECIAL + ["c", None]))
    elif kind == "scale":
        factor = draw(st.sampled_from([1e155, 1e300, 1e-300]))
        for entry in doc["terms"]:
            entry["coef"] *= factor
    elif kind == "duplicate":
        doc["terms"].append(dict(term))
    elif kind == "terms":
        doc["terms"] = draw(st.sampled_from(WRONG))
    elif kind == "missing":
        del doc[draw(st.sampled_from(["nvars", "terms"]))]
    return doc


def json_file(draw, bad: bool, doc) -> bytes:
    """JSON bytes of ``doc``; if ``bad``, with a fault in the document or as malformed, nested or undecodable bytes."""
    kind = fault(draw, bad, ["document", "malformed", "nested", "bytes"])
    if kind == "malformed":
        return draw(st.sampled_from([b"", b"{", b"{nope", b'{"ovals": [', b"null", b"[]", b"3", b'{"ovals": [\xff]}',
                                     b"\xef\xbb\xbf{}"]))
    if kind == "nested":
        depth = 10 ** draw(st.integers(1, 5))
        return b'{"ovals": ' + b"[" * depth + b"]" * depth + b"}"
    if kind == "bytes":
        return draw(st.binary(max_size=12))
    return json.dumps(doc(draw, kind == "document")).encode()


def points_csv(draw, bad: bool, max_rows: int, widths=(2, 1, 3)) -> bytes:
    """Rows of points in the unit disc, ``widths`` columns wide, with one fault if ``bad``."""
    kind = fault(draw, bad, ["special", "line", "empty", "undecodable", "width"])
    width = draw(st.sampled_from([w for w in (1, 2, 3, 4) if w not in widths] if kind == "width" else widths))
    rows = draw(st.lists(st.lists(st.floats(-0.7, 0.7), min_size=width, max_size=width), min_size=1, max_size=max_rows))
    lines = [",".join(token(v) for v in row) for row in rows]
    if kind == "special":
        lines[0] = ",".join([token(draw(st.sampled_from(SPECIAL)))] * width)
    elif kind == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# note", "", "abc", "0.1,", "0.1,0.2,0.3"])))
    elif kind == "empty":
        lines = []
    return b"0.1,0.2\n\xff\x00\n" if kind == "undecodable" else "\n".join(lines).encode()


def numbers(draw, bad: bool, count: int) -> str:
    """``count`` distinct comma-separated numbers in [-1, 1]; if ``bad``, one special number or a malformed list."""
    kind = fault(draw, bad, ["special", "malformed"])
    if kind == "malformed":
        return draw(st.sampled_from(["", ",", "a,b", "0.5,,0.25"]))
    vals = draw(st.lists(st.floats(-1.0, 1.0), min_size=count, max_size=count, unique=True))
    if kind == "special" and vals:
        vals[draw(st.integers(0, count - 1))] = number(draw, True)
    return ",".join(map(token, vals))


def decompose(draw, pick):
    opts = {"--config": "{config}", **({"--svg": "{svg}"} if draw(st.booleans()) else {})}
    return opts, {"config": json_file(draw, pick("config") == "config", config_doc)}


def remez_lp(draw, pick):
    z = draw(st.sampled_from(["config", "points"]))
    bad = pick(z, "degree", "grid", "samples")
    data = json_file(draw, bad == z, config_doc) if z == "config" else points_csv(draw, bad == z, 40, widths=(1, 2))
    opts = {"--degree": option(draw, bad == "degree", 0, 4, -1), "--z": f"{{{z}}}",
            "--grid": option(draw, bad == "grid", 3, 10, 2, 1, 0, -1),
            "--samples-per-oval": option(draw, bad == "samples", 3, 16, 0, -1)}
    return opts, {z: data}


def bounds(draw, pick):
    bad = pick("config", "degree")
    return {"--config": "{config}", "--degree": option(draw, bad == "degree", 0, 18, -1, 19, 200)}, {
        "config": json_file(draw, bad == "config", config_doc)
    }


def rigidity(draw, pick):
    bad = pick("config", "degree", "grid", "samples")
    opts = {"--config": "{config}", "--degree": option(draw, bad == "degree", 1, 3, 0, -1),
            "--grid": option(draw, bad == "grid", 3, 8, 2, -1),
            "--samples-per-oval": option(draw, bad == "samples", 3, 12, 0, -1)}
    return opts, {"config": json_file(draw, bad == "config", config_doc)}


def rigidity_1d(draw, pick):
    d = draw(st.integers(0, 5))
    bad = pick("zeros", "count", "z0", "degree")
    count = d + (draw(st.sampled_from([0, 2])) if bad == "count" else 1)
    opts = {"--zeros": numbers(draw, bad == "zeros", count), "--z0": token(number(draw, bad == "z0")),
            "--degree": option(draw, bad == "degree", d, d, -1, 19)}
    return opts, {}


def curve_check(draw, pick):
    s = draw(st.integers(1, 4))
    config = draw(st.booleans())
    bad = pick("poly", "points", "s", "degree", "tgrid", *(["config"] if config else []))
    opts = {"--f": "{poly}", "--points": "{points}", "--s": option(draw, bad == "s", s, s, 0, -1),
            "--degree": option(draw, bad == "degree", 0, 5, -1, 10**6),
            "--tgrid": option(draw, bad == "tgrid", 2, 16, 1, 0, -1)}
    files = {"poly": json_file(draw, bad == "poly", poly_doc),
             "points": points_csv(draw, bad == "points", s + 1, widths=(2,))}
    if config:
        opts["--config"], files["config"] = "{config}", json_file(draw, bad == "config", config_doc)
    return opts, files


def boxdim(draw, pick):
    bad = pick("points", "scales", "degree")
    scales = sorted(draw(st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=5, unique=True)), reverse=True)
    if bad == "scales":
        scales = draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(SPECIAL)), max_size=4))
    opts = {"--points": "{points}", "--scales": ",".join(map(token, scales)),
            "--degree": option(draw, bad == "degree", 0, 4, -1)}
    return opts, {"points": points_csv(draw, bad == "points", 40)}


def verify_proof(draw, pick):
    bad = pick("poly", "config", "grid")
    opts = {"--poly": "{poly}", "--config": "{config}", "--grid": option(draw, bad == "grid", 2, 8, 1, 0, -1)}
    files = {"poly": json_file(draw, bad == "poly", poly_doc), "config": json_file(draw, bad == "config", config_doc)}
    return opts, files


SUBCOMMANDS = {
    "decompose": decompose, "remez-lp": remez_lp, "bounds": bounds, "rigidity": rigidity,
    "rigidity-1d": rigidity_1d, "curve-check": curve_check, "boxdim": boxdim, "verify-proof": verify_proof,
}


# inputs whose numpy overflow warnings once escaped: Newton's Hessian determinant on a quartic with
# coefficients 1e300 (exit 0 with the warnings), and the image norm of a curve through (1e300, 0) (exit 2)
ANNULUS = json.dumps({"ovals": [{"id": k + 1, "vertices": polygon((0.0, 0.0), r, 4)} for k, r in enumerate([0.9, 0.5])]})
HUGE_QUARTIC = json.dumps({"nvars": 2, "terms": [{"exp": [4, 0], "coef": 1e300}, {"exp": [0, 4], "coef": 1e300},
                                                 {"exp": [1, 1], "coef": -1e300}]})
EXAMPLES = {
    "verify-proof": [({"--poly": "{poly}", "--config": "{config}", "--grid": "8"},
                      {"poly": HUGE_QUARTIC.encode(), "config": ANNULUS.encode()})],
    "curve-check": [({"--f": "{poly}", "--points": "{points}", "--s": "2", "--degree": "2"},
                     {"poly": b'{"nvars": 2, "terms": [{"exp": [2, 0], "coef": 1.0}]}', "points": b"1e300,0\n0,0\n"}),
                    # a derivative table built up to d+1 rather than deg f once kept this run from finishing
                    ({"--f": "{poly}", "--points": "{points}", "--s": "2", "--degree": str(10**6)},
                     {"poly": b'{"nvars": 2, "terms": [{"exp": [2, 0], "coef": 1.0}]}', "points": b"0.1,0\n0,0\n"})],
}


@st.composite
def cases(draw, build):
    """(options, files) from ``build(draw, pick)``, clean in about half the draws.

    ``pick(*sites)`` names the one input file or option of the case that gets
    its fault, or None in a clean case.
    """
    clean = draw(st.booleans())
    return build(draw, lambda *sites: None if clean else draw(st.sampled_from(sites)))


def run(argv):
    """Exit code, stdout and stderr of ``main(argv)``, with each warning it lets out as one more stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    return code, out.getvalue(), err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


@pytest.mark.parametrize("subcommand", list(SUBCOMMANDS))
def test_every_run_ends_in_a_documented_exit(subcommand):
    def check(case):
        options, files = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"svg": str(Path(tmp) / "out.svg")}
            for name, data in files.items():
                paths[name] = str(Path(tmp) / f"{name}.{'csv' if name == 'points' else 'json'}")
                Path(paths[name]).write_bytes(data)
            argv = [subcommand] + [f"{flag}={value.format(**paths)}" for flag, value in options.items()]
            code, out, err = run(argv)
        assert code in (0, 2, 3), (argv, code)
        if code:
            assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err, (argv, err)
        else:
            assert err == "" and "manifest" in json.loads(out), argv

    for case in EXAMPLES.get(subcommand, []):
        check = example(case)(check)
    FUZZ(given(cases(SUBCOMMANDS[subcommand]))(check))()
