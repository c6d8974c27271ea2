"""Spans around calls into conespan's public functions, recorded from outside
the package, and the per-layer metrics derived from them.

While a ``Tracer`` is installed, every module-level reference to a traced
function inside ``conespan`` (including ``from .x import f`` bindings and
calls between functions of one module) goes through a wrapper that records a
span: name, start, end, parent span and instance id.  Spans stay in memory
until the run writes them out.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from conespan.verify import SUITES

TRACED = {
    "pointgen": ("gen_points",),
    "build": ("build_yao", "build_yao_yao", "build_oy", "build_ty"),
    "analysis": ("stretch_factor", "degree_stats", "is_connected", "subgraph_check"),
    "paths": ("harvest_descent_configs", "ty_descent_path", "descent_length_bound", "oy_greedy_path"),
    "verify": tuple("check_" + suite for suite in SUITES),
}
FAMILY_SHORT = {"yao": "yao", "yao_yao": "yy", "overlapping_yao": "oy", "trapezoidal_yao": "ty"}
STRETCH = tuple(f"analysis.stretch_factor.{f}" for f in ("oy", "ty", "yy"))
BUILDERS = tuple(f"build.{f}" for f in TRACED["build"])
PATHS = tuple(f"paths.{f}" for f in TRACED["paths"])
CHECKS = tuple(f"verify.{f}" for f in TRACED["verify"])
# Per-call inclusive time of each traced function (stretch split by family).
CALL_SPANS = (
    ("pointgen.gen_points", *BUILDERS, *STRETCH)
    + tuple(f"analysis.{f}" for f in TRACED["analysis"][1:])
    + PATHS
    + CHECKS
)
# Spans whose self time is summed within each operation; "op" is the part of
# the operation no traced call covers.
SELF_SPANS = {
    "build": (*BUILDERS, "op"),
    "stretch": (*STRETCH, "analysis.degree_stats", "op"),
    "path": (*PATHS, "op"),
    "verify": (
        "pointgen.gen_points",
        *BUILDERS,
        *STRETCH,
        "analysis.degree_stats",
        "analysis.is_connected",
        "analysis.subgraph_check",
        *PATHS,
        *CHECKS,
        "op",
    ),
}
COUNTS = {
    "build.yao.edges": ("count", "lower"),
    "build.yy.edges": ("count", "lower"),
    "build.oy.edges": ("count", "lower"),
    "build.ty.edges": ("count", "lower"),
    "build.yy.kept_ratio": ("ratio", "higher"),
    "build.oy.distinct_ratio": ("ratio", "higher"),
    "build.ty.critical_hit_ratio": ("ratio", "higher"),
    "paths.harvest.configs": ("count", "lower"),
    "paths.harvest.used_ratio": ("ratio", "higher"),
    "paths.descent.steps": ("count", "lower"),
    "paths.descent.direct_ty_ratio": ("ratio", "higher"),
    "paths.oy_greedy.hops": ("count", "lower"),
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    spec = {f"{name}.s": ("s", "lower") for name in CALL_SPANS}
    spec["build.yy_reverse.s"] = ("s", "lower")
    spec["analysis.stretch_factor.peak_mb"] = ("MB", "lower")
    spec.update(COUNTS)
    spec["verify.checks_failed"] = ("count", "lower")
    for op, names in SELF_SPANS.items():
        spec.update({f"self.{op}.{name}.s": ("s", "lower") for name in names})
    spec["trace.overhead_s"] = ("s", "lower")
    spec["trace.overhead_ratio"] = ("ratio", "lower")
    return spec


class Tracer:
    """In-memory span recorder; ``instance`` tags the spans opened under it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.instance: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "instance": self.instance,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if name == "analysis.stretch_factor":
                label += "." + FAMILY_SHORT[args[0].family.value]
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Route every reference to a traced function through a span wrapper."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "conespan"]
        patched = []
        for layer, names in TRACED.items():
            home = sys.modules[f"conespan.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(orig, f"{layer}.{fname}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, orig))
        try:
            yield
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer timing metrics: per-call medians of inclusive time, and per
    operation the median over instances of summed self time by span name."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    root = {}
    calls = defaultdict(list)
    self_calls = defaultdict(list)
    self_sums = defaultdict(float)
    instances = set()
    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - child_time[s["id"]]
        root[s["id"]] = s["name"] if s["parent"] is None else root[s["parent"]]
        name = "op" if s["parent"] is None else s["name"]
        calls[s["name"]].append(dur)
        self_calls[s["name"]].append(own)
        self_sums[(s["instance"], root[s["id"]], name)] += own
        instances.add(s["instance"])
    out = {f"{name}.s": _median(calls[name]) for name in CALL_SPANS}
    out["build.yy_reverse.s"] = _median(self_calls["build.build_yao_yao"])
    for op, names in SELF_SPANS.items():
        for name in names:
            per_instance = [self_sums[(i, "op." + op, name)] for i in sorted(instances)]
            out[f"self.{op}.{name}.s"] = _median(per_instance)
    return out
