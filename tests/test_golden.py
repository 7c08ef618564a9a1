"""Recorded report bodies of all eight subcommands, compared byte for byte.

Inputs are built once per module from the conftest helpers; the manifest
(paths, digests, timestamp) is stripped and the rest must match
``tests/golden/<case>.json`` exactly, so any change to a reported float
shows up here. The SVG that ``decompose --svg`` writes for the scattered
case must match ``tests/golden/decompose-scattered.svg`` byte for byte.
After a deliberate change, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and say in CHANGES.md why the
bodies moved.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    concentric_ring_config,
    random_circle_config_exact,
    square,
    vanishing_ring_poly,
    write_config_json,
)
from rigidkit.cli import main
from rigidkit.poly import MultiPoly

GOLDEN = Path(__file__).parent / "golden"
# dyadic radii keep every coefficient of the ring product exact
RINGS = (0.25, 0.5, 0.75)
LADDER = tuple(0.95 * (30 - i) / 30 for i in range(30))
CASES = (
    "curve-check-annulus",
    "curve-check-rings",
    "verify-proof-annulus",
    "verify-proof-rings",
    "decompose-ladder",
    "decompose-scattered",
    "bounds-ladder",
    "bounds-scattered",
    "remez-lp-halfline",
    "remez-lp-annulus",
    "remez-lp-collinear",
    "rigidity-annulus",
    "rigidity-1d-line",
    "boxdim-circle",
)


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def write_inputs(workdir: Path) -> dict[str, list[str]]:
    """Write every case's input files under ``workdir``; return each case's argv."""
    annulus = write_config_json([square(math.sqrt(2.0), 1), square(1.0, 2)], workdir / "annulus.json")
    rings = write_config_json(concentric_ring_config(RINGS), workdir / "rings.json")
    # 30 concentric 48-gons, and 40 circles that mix disjoint groups with nesting
    ladder = write_config_json(concentric_ring_config(LADDER), workdir / "ladder.json")
    scattered = write_config_json(
        random_circle_config_exact(np.random.default_rng(5), 40), workdir / "scattered.json"
    )
    fxy = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
    fxy_path = _write(workdir / "fxy.json", json.dumps(fxy.to_json_dict()))
    ring_path = _write(workdir / "rings-poly.json", json.dumps(vanishing_ring_poly(RINGS).to_json_dict()))
    pts3 = _write(workdir / "pts3.csv", "-0.3,0.2\n0.0,-0.1\n0.3,0.2\n")
    pts4 = _write(workdir / "pts4.csv", "-0.4,0.1\n-0.1,-0.2\n0.2,0.15\n0.45,-0.05\n")
    halfline = _write(workdir / "halfline.csv", "\n".join(f"{t:.12f}" for t in np.linspace(-1.0, 0.0, 64)))
    # three points on the line y = x: a degree-1 polynomial vanishes on all of them
    collinear = _write(workdir / "collinear.csv", "-0.5,-0.5\n0.0,0.0\n0.5,0.5\n")
    theta = np.linspace(0.0, 2.0 * np.pi, 700, endpoint=False)
    circle = _write(
        workdir / "circle.csv",
        "\n".join(f"{0.6 * np.cos(t):.12f},{0.6 * np.sin(t):.12f}" for t in theta),
    )
    return {
        "curve-check-annulus": [
            "curve-check", "--f", fxy_path, "--points", pts3, "--s", "2", "--degree", "1",
            "--tgrid", "64", "--config", annulus,
        ],
        "curve-check-rings": [
            "curve-check", "--f", ring_path, "--points", pts4, "--s", "3", "--degree", "4",
            "--tgrid", "64", "--config", rings,
        ],
        "verify-proof-annulus": [
            "verify-proof", "--poly", fxy_path, "--config", annulus, "--grid", "32",
        ],
        "verify-proof-rings": ["verify-proof", "--poly", ring_path, "--config", rings, "--grid", "24"],
        "decompose-ladder": ["decompose", "--config", ladder],
        "decompose-scattered": ["decompose", "--config", scattered],
        "bounds-ladder": ["bounds", "--config", ladder, "--degree", "6"],
        "bounds-scattered": ["bounds", "--config", scattered, "--degree", "10"],
        "remez-lp-halfline": ["remez-lp", "--degree", "2", "--z", halfline, "--grid", "64"],
        "remez-lp-annulus": [
            "remez-lp", "--degree", "2", "--z", annulus, "--grid", "16", "--samples-per-oval", "32",
        ],
        "remez-lp-collinear": ["remez-lp", "--degree", "1", "--z", collinear, "--grid", "8"],
        "rigidity-annulus": [
            "rigidity", "--config", annulus, "--degree", "2", "--grid", "16", "--samples-per-oval", "32",
        ],
        "rigidity-1d-line": ["rigidity-1d", "--zeros=-0.7,-0.3,0.1,0.6", "--z0", "0.85", "--degree", "3"],
        "boxdim-circle": [
            "boxdim", "--points", circle, "--scales", "0.3,0.15,0.075,0.0375", "--degree", "2",
        ],
    }


def _body(argv: list[str], out: Path) -> str:
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    del report["manifest"]
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _svg(argv: list[str], workdir: Path) -> bytes:
    """The bytes of the ``--svg`` rendering of a decompose run."""
    assert main(argv + ["--svg", str(workdir / "out.svg"), "--out", str(workdir / "out.json")]) == 0
    return (workdir / "out.svg").read_bytes()


@pytest.fixture(scope="module")
def golden_argv(tmp_path_factory) -> dict[str, list[str]]:
    return write_inputs(tmp_path_factory.mktemp("golden-inputs"))


@pytest.mark.parametrize("case", CASES)
def test_report_body_matches_golden(case, golden_argv, tmp_path):
    assert _body(golden_argv[case], tmp_path / "out.json") == (GOLDEN / f"{case}.json").read_text()


def test_svg_matches_golden(golden_argv, tmp_path):
    assert _svg(golden_argv["decompose-scattered"], tmp_path) == (GOLDEN / "decompose-scattered.svg").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        argvs = write_inputs(Path(tmp))
        for case in CASES:
            (GOLDEN / f"{case}.json").write_text(_body(argvs[case], Path(tmp) / "out.json"))
            print(f"recorded {case}", file=sys.stderr)
        (GOLDEN / "decompose-scattered.svg").write_bytes(_svg(argvs["decompose-scattered"], Path(tmp)))
