"""Source hygiene: honest ``__all__`` lists in ``rigidkit``, no dead imports there, in the tests or in the bench,
no function in ``rigidkit`` that no subcommand calls, no CLI option that no subcommand run sets, and report bodies
made of plain JSON types."""

import argparse
import ast
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import concentric_ring_config, vanishing_ring_poly
from rigidkit.cli import build_parser, main
from rigidkit.curves import ParamCurve, composition_report
from rigidkit.fractal import PointCloud, box_dimension_estimate
from rigidkit.poly import MultiPoly
from rigidkit.prooftrace import bezout_check, domain_pigeonhole_report
from rigidkit.rigidity import rigidity_report
from test_golden import CASES, write_inputs

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rigidkit"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


def module_name(path: Path) -> str:
    return "rigidkit" if path.stem == "__init__" else f"rigidkit.{path.stem}"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never reads and does not list in ``__all__``.

    Scopes are not told apart: a name read anywhere in the module counts as
    used by every import that binds it.
    """
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_finder_sees_dead_and_live_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import pi, tau\nfrom .errors import E\n"
        "__all__ = ['E']\n"
        "def f() -> np.ndarray:\n    return pi\n"
    )
    assert unused_imports(source) == ["os (line 2)", "tau (line 4)"]


@pytest.mark.parametrize(
    "path",
    MODULES + TESTS + BENCH,
    ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS] + [f"bench/{p.name}" for p in BENCH],
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_all_names_resolve(path):
    module = importlib.import_module(module_name(path))
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def defined_functions() -> list[tuple[Path, int, str]]:
    """(path, first line, name) of every def in ``rigidkit``, nested ones too.

    The first line is that of the first decorator when there is one, as in
    the function's code object.
    """
    out = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out.append((path, first, node.name))
    return out


def subcommand_runs(tmp_path: Path) -> list[list[str]]:
    """The golden invocations, plus a decompose that renders SVG and a
    verify-proof whose Newton search keeps no seed (a linear polynomial has
    a singular Hessian everywhere), each writing its report to a file."""
    argvs = write_inputs(tmp_path)
    runs = [argvs[case] for case in CASES]
    annulus = str(tmp_path / "annulus.json")
    linear = tmp_path / "linear.json"
    linear.write_text(json.dumps({"nvars": 2, "terms": [{"exp": [1, 0], "coef": 1.0}]}))
    runs.append(["decompose", "--config", annulus, "--svg", str(tmp_path / "annulus.svg")])
    runs.append(["verify-proof", "--poly", str(linear), "--config", annulus, "--grid", "2"])
    return [argv + ["--out", str(tmp_path / "out.json")] for argv in runs]


def test_every_function_is_reached_by_a_subcommand(tmp_path):
    runs = subcommand_runs(tmp_path)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    called = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in seen}
    missing = [f"{path.name}:{line} {name}" for path, line, name in defined_functions() if (path, line) not in called]
    assert missing == []


def test_every_option_is_set_by_a_subcommand_run(tmp_path):
    # an option that no run sets holds one value in use, so it is a constant
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        f"{name} {flag}"
        for name, cmd in subparsers.choices.items()
        for action in cmd._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    passed = {f"{argv[0]} {arg.split('=')[0]}" for argv in subcommand_runs(tmp_path) for arg in argv[1:]}
    assert sorted(options - passed) == []


def non_json_leaves(body, where="body") -> list[str]:
    """Paths to the values of ``body`` that are not exactly dict, list, str, int, float, bool or None."""
    if type(body) is dict:
        return [bad for k, v in body.items() for bad in non_json_leaves(v, f"{where}[{k!r}]")]
    if type(body) is list:
        return [bad for i, v in enumerate(body) for bad in non_json_leaves(v, f"{where}[{i}]")]
    return [] if type(body) in (str, int, float, bool, type(None)) else [f"{where}: {type(body).__name__}"]


def test_non_json_leaf_finder_sees_numpy_values():
    assert non_json_leaves({"a": [1, 2.0, None], "b": {"c": "x", "d": True}}) == []
    assert non_json_leaves({"a": [np.float64(1.0)], "b": np.arange(2)}) == ["body['a'][0]: float64", "body['b']: ndarray"]


def test_report_bodies_hold_plain_json_types():
    quadric = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
    parabola = ParamCurve((MultiPoly(1, {(1,): 1.0}), MultiPoly(1, {(2,): 1.0})), 2)
    mids = (np.arange(32) + 0.5) / 32.0
    grid = np.stack([g.ravel() for g in np.meshgrid(mids, mids, indexing="ij")], axis=1)
    radii = (0.95, 0.55)
    bodies = {
        "bezout_check": bezout_check(9, 2),
        "domain_pigeonhole_report": domain_pigeonhole_report(
            vanishing_ring_poly(radii), concentric_ring_config(radii), newton_grid=16
        ),
        "composition_report": composition_report(quadric, parabola, 3, 16),
        "box_dimension_estimate": box_dimension_estimate(PointCloud(grid), [0.25, 0.125, 0.0625]),
        "rigidity_report": rigidity_report(2, mu_value=1.0, oval_count=5, inv_remez=0.1),
    }
    assert {name: non_json_leaves(body) for name, body in bodies.items()} == {name: [] for name in bodies}
