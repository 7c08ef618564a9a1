"""The benchmark's per-layer trace patches module bindings by name.

``bench/tracing.py`` skips a binding it cannot find and only notes it, so a
refactor that moves or renames one would silently zero a traced layer.
A ``rigidkit.cli`` binding must also be the object its subcommand calls at
call time, or patching it records nothing.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import rigidkit.cli as cli
from test_golden import write_inputs

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

spec = importlib.util.spec_from_file_location("rigidkit_bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracing  # dataclasses look their module up here
spec.loader.exec_module(tracing)
BINDINGS = sorted({(module_name, attr) for module_name, attr, _ in tracing.TARGETS + (tracing.ROOT,)})


@pytest.mark.parametrize("module_name, attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_traced_binding_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


CLI_BINDINGS = sorted(attr for module_name, attr, _ in tracing.TARGETS if module_name == "rigidkit.cli")

# golden cases, with any extra arguments, whose subcommand calls each traced ``rigidkit.cli`` binding
REACHED_BY = {
    "build_nesting_forest": [("decompose-scattered",), ("bounds-scattered",), ("rigidity-annulus",)],
    "build_domains": [("decompose-scattered",), ("bounds-scattered",), ("rigidity-annulus",)],
    "mu": [("decompose-scattered",), ("bounds-scattered",), ("rigidity-annulus",)],
    "sample_boundary": [("remez-lp-annulus",), ("rigidity-annulus",)],
    "render_svg": [("decompose-scattered", "--svg", "{tmp}/out.svg")],
    "remez_estimate_lp": [("remez-lp-halfline",), ("rigidity-annulus",)],
    "domain_pigeonhole_report": [("verify-proof-annulus",)],
    "fit_curve": [("curve-check-annulus",)],
    "composition_report": [("curve-check-annulus",)],
    "crossing_count": [("curve-check-annulus",)],
    "box_dimension_estimate": [("boxdim-circle",)],
    "rigidity_report": [("bounds-scattered",), ("rigidity-annulus",)],
    "rigidity_1d_bound": [("rigidity-1d-line",)],
}
RUNS = [(attr, run) for attr, runs in REACHED_BY.items() for run in runs]


@pytest.fixture(scope="module")
def golden_argv(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden-inputs"))


def test_every_traced_cli_binding_has_a_run():
    assert sorted(REACHED_BY) == CLI_BINDINGS


@pytest.mark.parametrize("attr, run", RUNS, ids=[f"{attr}-{run[0]}" for attr, run in RUNS])
def test_traced_cli_binding_is_the_one_called(attr, run, golden_argv, monkeypatch, tmp_path):
    calls = []
    real = getattr(cli, attr)

    def recording(*args, **kwargs):
        calls.append(attr)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, attr, recording)
    case, *extra = run
    argv = golden_argv[case] + [arg.format(tmp=tmp_path) for arg in extra] + ["--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    assert calls


# the bench's layer counters for one golden case each, as its inputs and golden body state them: the scattered
# circles are 40 ovals (780 pairs, 31 of them with overlapping boxes); the annulus is 2 nested 4-gons and the
# remez-lp-annulus golden's diagnostics hold the LP counts; the rings are 3 nested 48-gons, and the
# verify-proof-rings golden holds 576 seeds, 555 converged and 5 clusters after 5 calls of eval_poly
COUNTERS = {
    "decompose-scattered": {
        "geometry.ovals": 40, "geometry.oval_pairs": 780, "geometry.edge_pairs": 71424, "geometry.skipped_pairs": 749,
    },
    "remez-lp-annulus": {
        "geometry.ovals": 2, "geometry.oval_pairs": 1, "geometry.edge_pairs": 16,
        "remez.lp_solved": 10, "remez.lp_pruned": 162, "remez.lp_iterations": 32, "remez.candidates": 172,
    },
    "verify-proof-rings": {
        "geometry.ovals": 3, "geometry.oval_pairs": 3, "geometry.edge_pairs": 3 * 48 * 48,
        "prooftrace.seeds": 576, "prooftrace.converged": 555, "prooftrace.clusters": 5, "poly.eval_calls": 5,
    },
}


@pytest.mark.parametrize("case", sorted(COUNTERS))
def test_bench_counters_read_the_traced_payloads(case, golden_argv, tmp_path):
    # the counters read Oval.vertices, the LP estimate's diagnostics and the critical points' diagnostics
    # and n_clusters: a record folded away under them zeroes a counter or raises here
    names = set(vars(cli))
    tracer = tracing.Tracer(job=case)
    tracer.install()
    try:
        assert cli.main(golden_argv[case] + ["--out", str(tmp_path / "out.json")]) == 0
    finally:
        tracer.uninstall()
        for name in set(vars(cli)) - names:  # uninstall leaves the lazily resolved names bound on the module
            delattr(cli, name)
    assert tracer.missing == []
    assert tracing.counters(tracer.spans) == COUNTERS[case]
