"""In-process spans around the rigidkit functions the CLI dispatches to.

The benchmark's traced run calls ``rigidkit.cli.main`` in-process and
replaces the module bindings listed in ``TARGETS`` with wrappers that
record one span per call: name, start, end, parent span and job id. Spans
stay in memory until the run ends. A layer's self time is the duration of
its spans minus the part their direct children cover, so the self times
of all layers add up to the time spent in ``cli.dispatch``.

Bindings are patched where they are looked up (``rigidkit.cli.mu``, not
``rigidkit.geometry.mu``), because that is the name the calling code
resolves at call time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute, span name); the span name's prefix is the layer
TARGETS = (
    ("rigidkit.geometry", "validate_configuration", "geometry.validate"),
    ("rigidkit.cli", "build_nesting_forest", "geometry.forest"),
    ("rigidkit.prooftrace", "build_nesting_forest", "geometry.forest"),
    ("rigidkit.cli", "build_domains", "geometry.domains"),
    ("rigidkit.prooftrace", "build_domains", "geometry.domains"),
    ("rigidkit.cli", "mu", "geometry.domains"),
    ("rigidkit.cli", "sample_boundary", "geometry.sample"),
    ("rigidkit.prooftrace", "sample_boundary", "geometry.sample"),
    ("rigidkit.cli", "render_svg", "svg.render"),
    ("rigidkit.cli", "remez_estimate_lp", "remez.lp"),
    ("rigidkit.cli", "domain_pigeonhole_report", "prooftrace.pigeonhole"),
    ("rigidkit.prooftrace", "find_critical_points", "prooftrace.newton"),
    ("rigidkit.prooftrace", "eval_poly", "poly.eval"),
    ("rigidkit.curves", "eval_poly", "poly.eval"),
    ("rigidkit.curves", "compose", "poly.compose"),
    ("rigidkit.cli", "fit_curve", "curves.fit"),
    ("rigidkit.cli", "composition_report", "curves.composition"),
    ("rigidkit.cli", "crossing_count", "curves.crossing"),
    ("rigidkit.cli", "box_dimension_estimate", "fractal.boxdim"),
    ("rigidkit.cli", "rigidity_report", "rigidity.report"),
    ("rigidkit.cli", "rigidity_1d_bound", "rigidity.report"),
)
ROOT = ("rigidkit.cli", "main", "cli.dispatch")

# spans whose arguments or result feed the layer counters
_KEEP_ARGS = {"geometry.validate"}
_KEEP_RESULT = {"remez.lp", "prooftrace.newton"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    payload: object = None


@dataclass
class Tracer:
    """Span recorder; ``install`` patches the targets, ``uninstall`` restores them."""

    spans: list[Span] = field(default_factory=list)
    job: str = ""
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.job)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name in _KEEP_ARGS:
                span.payload = args
            elif name in _KEEP_RESULT:
                span.payload = result
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS + (ROOT,):
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "job": s.job}) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name not covered by that span's direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s, c in zip(spans, covered):
        out[s.name] += (s.end - s.start) - c
    return dict(out)


def _overlap(a, b) -> bool:
    (ax0, ay0), (ax1, ay1) = a
    (bx0, by0), (bx1, by1) = b
    return not (ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0)


def counters(spans: list[Span]) -> dict[str, float]:
    """Work counts read from recorded arguments and results.

    Geometry counts come from the ovals handed to validation: the oval
    count, the edge pairs the bounding-box prefilter lets through
    (sum of k_i * k_j over box-overlapping oval pairs) and the share of
    oval pairs it skips.
    """
    c: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.name == "poly.eval":
            c["poly.eval_calls"] += 1
        elif s.name == "geometry.validate" and s.payload:
            ovals = list(s.payload[0])
            boxes = [(o.vertices.min(axis=0), o.vertices.max(axis=0)) for o in ovals]
            c["geometry.ovals"] += len(ovals)
            for i in range(len(ovals)):
                for j in range(i + 1, len(ovals)):
                    c["geometry.oval_pairs"] += 1
                    if _overlap(boxes[i], boxes[j]):
                        c["geometry.edge_pairs"] += len(ovals[i].vertices) * len(ovals[j].vertices)
                    else:
                        c["geometry.skipped_pairs"] += 1
        elif s.name == "remez.lp" and s.payload is not None:
            diag = s.payload.diagnostics
            c["remez.lp_solved"] += diag.get("lp_solved", 0)
            c["remez.lp_pruned"] += diag.get("pruned", 0)
            c["remez.lp_iterations"] += diag.get("lp_iterations", 0)
            c["remez.candidates"] += diag.get("n_candidates", 0)
        elif s.name == "prooftrace.newton" and s.payload is not None:
            c["prooftrace.seeds"] += s.payload.diagnostics.get("seeds", 0)
            c["prooftrace.converged"] += s.payload.diagnostics.get("converged", 0)
            c["prooftrace.clusters"] += s.payload.n_clusters
    return dict(c)
