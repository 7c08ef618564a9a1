"""Source hygiene: honest ``__all__`` lists in ``rigidkit``, no dead imports there, in the tests or in the bench,
and no function in ``rigidkit`` that no subcommand calls."""

import ast
import importlib
import json
import sys
from pathlib import Path

import pytest

from rigidkit.cli import main
from test_golden import CASES, _argv

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


def test_every_function_is_reached_by_a_subcommand(tmp_path):
    # the golden invocations, plus a decompose that renders SVG and a
    # verify-proof whose Newton search keeps no seed (a linear polynomial has
    # a singular Hessian everywhere)
    runs = [_argv(case, tmp_path) for case in CASES]
    annulus = str(tmp_path / "annulus.json")
    linear = tmp_path / "linear.json"
    linear.write_text(json.dumps({"nvars": 2, "terms": [{"exp": [1, 0], "coef": 1.0}]}))
    runs.append(["decompose", "--config", annulus, "--svg", str(tmp_path / "annulus.svg")])
    runs.append(["verify-proof", "--poly", str(linear), "--config", annulus, "--grid", "2"])
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv + ["--out", str(tmp_path / "out.json")]) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    called = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in seen}
    missing = [f"{path.name}:{line} {name}" for path, line, name in defined_functions() if (path, line) not in called]
    assert missing == []
