"""Source hygiene: honest ``__all__`` lists in ``rigidkit``, no dead imports there, in the tests or in the bench."""

import ast
import importlib
from pathlib import Path

import pytest

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
