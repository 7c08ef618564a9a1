"""The benchmark's per-layer trace patches module bindings by name.

``bench/tracing.py`` skips a binding it cannot find and only notes it, so a
refactor that moves or renames one would silently zero a traced layer.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

spec = importlib.util.spec_from_file_location("rigidkit_bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracing  # dataclasses look their module up here
spec.loader.exec_module(tracing)
BINDINGS = sorted({(module_name, attr) for module_name, attr, _ in tracing.TARGETS + (tracing.ROOT,)})


@pytest.mark.parametrize("module_name, attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_traced_binding_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
