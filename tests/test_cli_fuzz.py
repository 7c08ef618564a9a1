"""Fuzzed CLI runs: every subcommand ends in exit 0, 2 or 3, never in a traceback.

``cli.main`` runs in-process on generated input files. Each file starts
valid (nested or separate rings, a planar polynomial, points in the unit
disc). Half the cases stay clean, with option values in range, so the
numerical stages run; in the other half each file and option may get one
fault: NaN, infinite or 1e300 coordinates, wrong shapes, empty inputs,
duplicate or non-integer ids, negative or zero options, or a file replaced
by malformed, deeply nested or undecodable bytes. Exits 2 and 3 print
exactly one stderr line and nothing on stdout. Hypothesis is derandomized,
so every run draws the same examples.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rigidkit.cli import main  # noqa: E402

FUZZ = settings(max_examples=40, deadline=None, database=None, derandomize=True)

SPECIAL = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 1.0 + 1e-9, 2.0, -0.0]
WRONG = [None, "x", [], {}, 2.5, [[0.1, 0.2]]]


def fault(draw, clean: bool, faults: list[str]) -> str:
    """``"none"`` in a clean case, else ``"none"`` or one of ``faults``."""
    return "none" if clean else draw(st.sampled_from(["none"] + faults))


def number(draw, clean: bool) -> float:
    return draw(st.floats(-1.0, 1.0) if clean else st.one_of(st.floats(-1.0, 1.0), st.sampled_from(SPECIAL)))


def option(draw, clean: bool, lo: int, hi: int, *bad: int) -> str:
    """An integer option as argv text, in [lo, hi] or, outside a clean case, possibly one of ``bad``."""
    return str(draw(st.integers(lo, hi) if clean else st.one_of(st.integers(lo, hi), st.sampled_from(bad))))


def token(value: float) -> str:
    return repr(value) if math.isfinite(value) else str(value)


def polygon(centre, radius: float, sides: int) -> list:
    cx, cy = centre
    return [[cx + radius * math.cos(2 * math.pi * j / sides), cy + radius * math.sin(2 * math.pi * j / sides)]
            for j in range(sides)]


def config_doc(draw, clean: bool) -> dict:
    """Nested or separate regular polygons, then at most one fault in one oval entry."""
    n = draw(st.integers(1, 4))
    sides = draw(st.sampled_from([8, 4, 16, 3]))
    if draw(st.booleans()):
        ovals = [polygon((0.0, 0.05), 0.9 * (n - i) / n, sides) for i in range(n)]
    else:
        ovals = [polygon(c, 0.3, sides) for c in [(-0.4, -0.4), (0.4, -0.4), (-0.4, 0.4), (0.4, 0.4)][:n]]
    doc = {"ovals": [{"id": k + 1, "vertices": v} for k, v in enumerate(ovals)]}
    entry = doc["ovals"][draw(st.integers(0, n - 1))]
    verts = entry["vertices"]
    kind = fault(draw, clean, ["duplicate id", "id", "vertex", "shape", "vertices", "clockwise", "missing", "scale",
                               "shift"])
    if kind == "duplicate id":
        entry["id"] = doc["ovals"][0]["id"]
    elif kind == "id":
        entry["id"] = draw(st.sampled_from([2.5, "1", None, math.nan, math.inf, True, 10**30, -1]))
    elif kind == "vertex":
        verts[draw(st.integers(0, sides - 1))] = [number(draw, False), number(draw, False)]
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


def poly_doc(draw, clean: bool) -> dict:
    """A planar polynomial of degree up to 8, then at most one fault."""
    terms = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.floats(-2.0, 2.0)), min_size=1, max_size=6,
                          unique_by=lambda term: term[:2]))
    doc = {"nvars": 2, "terms": [{"exp": [a, b], "coef": c} for a, b, c in terms]}
    term = doc["terms"][0]
    kind = fault(draw, clean, ["nvars", "exp", "coef", "duplicate", "terms", "missing"])
    if kind == "nvars":
        doc["nvars"] = draw(st.sampled_from([1, 3, 0, -1, "2", 2.5, None, 10**6]))
    elif kind == "exp":
        term["exp"] = draw(st.sampled_from([[-1, 0], [2.5, 0], ["a", 0], [None, 0], [math.nan, 0], [10**20, 0],
                                            [1e300, 0], [1], [1, 1, 1], 3]))
    elif kind == "coef":
        term["coef"] = draw(st.sampled_from(SPECIAL + ["c", None]))
    elif kind == "duplicate":
        doc["terms"].append(dict(term))
    elif kind == "terms":
        doc["terms"] = draw(st.sampled_from(WRONG))
    elif kind == "missing":
        del doc[draw(st.sampled_from(["nvars", "terms"]))]
    return doc


def json_file(draw, clean: bool, doc) -> bytes:
    """JSON bytes of ``doc(draw, clean)``, or malformed, deeply nested, empty or undecodable bytes."""
    kind = fault(draw, clean, ["malformed", "nested", "bytes"])
    if kind == "malformed":
        return draw(st.sampled_from([b"", b"{", b"{nope", b'{"ovals": [', b"null", b"[]", b"3", b'{"ovals": [\xff]}',
                                     b"\xef\xbb\xbf{}"]))
    if kind == "nested":
        depth = 10 ** draw(st.integers(1, 5))
        return b'{"ovals": ' + b"[" * depth + b"]" * depth + b"}"
    if kind == "bytes":
        return draw(st.binary(max_size=12))
    return json.dumps(doc(draw, clean)).encode()


def points_csv(draw, clean: bool, max_rows: int, widths=(2, 1, 3)) -> bytes:
    """Rows of points in the unit disc, then at most one fault."""
    width = draw(st.sampled_from(widths))
    rows = draw(st.lists(st.lists(st.floats(-0.7, 0.7), min_size=width, max_size=width), min_size=1, max_size=max_rows))
    lines = [",".join(token(v) for v in row) for row in rows]
    kind = fault(draw, clean, ["special", "line", "empty", "undecodable"])
    if kind == "special":
        lines[0] = ",".join([token(draw(st.sampled_from(SPECIAL)))] * width)
    elif kind == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# note", "", "abc", "0.1,", "0.1,0.2,0.3"])))
    elif kind == "empty":
        lines = []
    return b"0.1,0.2\n\xff\x00\n" if kind == "undecodable" else "\n".join(lines).encode()


def numbers(draw, clean: bool, count: int) -> str:
    """``count`` comma-separated numbers or, outside a clean case, possibly a malformed list."""
    if fault(draw, clean, ["malformed"]) == "malformed":
        return draw(st.sampled_from(["", ",", "a,b", "0.5,,0.25"]))
    if clean:  # distinct, as zeros must be
        return ",".join(map(token, draw(st.lists(st.floats(-1.0, 1.0), min_size=count, max_size=count, unique=True))))
    return ",".join(token(number(draw, clean)) for _ in range(count))


def decompose(draw, clean):
    opts = {"--config": "{config}", **({"--svg": "{svg}"} if draw(st.booleans()) else {})}
    return opts, {"config": json_file(draw, clean, config_doc)}


def remez_lp(draw, clean):
    z = draw(st.sampled_from(["config", "points"]))
    data = json_file(draw, clean, config_doc) if z == "config" else points_csv(draw, clean, 40, widths=(1, 2))
    opts = {"--degree": option(draw, clean, 0, 4, -1), "--z": f"{{{z}}}", "--grid": option(draw, clean, 3, 10, 2, 1, 0, -1),
            "--samples-per-oval": option(draw, clean, 3, 16, 0, -1)}
    return opts, {z: data}


def bounds(draw, clean):
    return {"--config": "{config}", "--degree": option(draw, clean, 0, 18, -1, 19, 200)}, {
        "config": json_file(draw, clean, config_doc)
    }


def rigidity(draw, clean):
    opts = {"--config": "{config}", "--degree": option(draw, clean, 1, 3, 0, -1),
            "--grid": option(draw, clean, 3, 8, 2, -1), "--samples-per-oval": option(draw, clean, 3, 12, 0, -1)}
    return opts, {"config": json_file(draw, clean, config_doc)}


def rigidity_1d(draw, clean):
    d = draw(st.integers(0, 5))
    count = d + 1 if clean else d + draw(st.sampled_from([1, 0, 2]))
    opts = {"--zeros": numbers(draw, clean, count), "--z0": token(number(draw, clean)),
            "--degree": option(draw, clean, d, d, -1, 19)}
    return opts, {}


def curve_check(draw, clean):
    s = draw(st.integers(1, 4))
    opts = {"--f": "{poly}", "--points": "{points}", "--s": option(draw, clean, s, s, 0, -1),
            "--degree": option(draw, clean, 0, 5, -1), "--tgrid": option(draw, clean, 2, 16, 1, 0, -1)}
    files = {"poly": json_file(draw, clean, poly_doc), "points": points_csv(draw, clean, s + 1, widths=(2,) if clean else (2, 1, 3))}
    if draw(st.booleans()):
        opts["--config"], files["config"] = "{config}", json_file(draw, clean, config_doc)
    return opts, files


def boxdim(draw, clean):
    scales = sorted(draw(st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=5, unique=True)), reverse=True)
    if fault(draw, clean, ["scales"]) == "scales":
        scales = draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(SPECIAL)), max_size=4))
    opts = {"--points": "{points}", "--scales": ",".join(map(token, scales)), "--degree": option(draw, clean, 0, 4, -1)}
    return opts, {"points": points_csv(draw, clean, 40)}


def verify_proof(draw, clean):
    opts = {"--poly": "{poly}", "--config": "{config}", "--grid": option(draw, clean, 2, 8, 1, 0, -1)}
    return opts, {"poly": json_file(draw, clean, poly_doc), "config": json_file(draw, clean, config_doc)}


SUBCOMMANDS = {
    "decompose": decompose, "remez-lp": remez_lp, "bounds": bounds, "rigidity": rigidity,
    "rigidity-1d": rigidity_1d, "curve-check": curve_check, "boxdim": boxdim, "verify-proof": verify_proof,
}


@st.composite
def cases(draw, build):
    """(options, files) from ``build(draw, clean)``, clean in about half the draws."""
    return build(draw, draw(st.booleans()))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("subcommand", list(SUBCOMMANDS))
def test_every_run_ends_in_a_documented_exit(subcommand):
    @FUZZ
    @given(cases(SUBCOMMANDS[subcommand]))
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

    check()
