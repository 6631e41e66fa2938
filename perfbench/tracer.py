"""Spans around the public functions of each faberforms layer.

``Tracer.install`` replaces every listed function with a wrapper that
records a span (name, parent span, start, end, points) in memory. A
function is replaced at every place that holds it: its own module, each
module that bound it by ``from .x import f``, the class that owns a
method, and the check catalog. ``summarize`` turns the spans into
per-layer calls, points, inclusive time and self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np


def _broadcast_size(a, b) -> int:
    return np.broadcast(np.asarray(a), np.asarray(b)).size


# (module, attribute path, span name, points). points is None or counts
# the points of one call from its bound arguments, defaults included, so
# a node count the program defaults is read from the program.
LAYERS = (
    ("theta", "log_derivative2", "theta.log_derivative2", lambda a: np.size(a["v"])),
    ("theta", "log_derivative", "theta.log_derivative", lambda a: np.size(a["v"])),
    ("theta", "log_abs", "theta.log_abs", lambda a: np.size(a["v"])),
    ("surface", "schiffer_kernel", "surface.schiffer_kernel",
     lambda a: _broadcast_size(a["w"], a["z"])),
    ("surface", "green", "surface.green", None),
    ("surface", "period", "surface.period", None),
    ("surface", "OneForm.__call__", "surface.OneForm.call", lambda a: np.size(a["w"])),
    ("surface", "SurfaceSpec.cycle_base", "surface.cycle_base", None),
    ("conformal", "CapFamily.distance_to_caps", "conformal.distance_to_caps", None),
    ("conformal", "winding_number", "conformal.winding_number", None),
    # z-points times contour nodes
    ("schiffer", "schiffer_contour", "schiffer.schiffer_contour",
     lambda a: np.size(a["z"]) * a["n"]),
    ("schiffer", "apply_schiffer", "schiffer.apply_schiffer", None),
    ("faber", "principal_part", "faber.principal_part", None),
    ("series", "boundary_coefficients", "series.boundary_coefficients", None),
    ("series", "cycle_coefficients", "series.cycle_coefficients", None),
    ("series", "ExteriorPairing.data", "series.ExteriorPairing.data", None),
    ("series", "ExteriorPairing.inner", "series.ExteriorPairing.inner", None),
    ("series", "project_faber", "series.project_faber", None),
    ("series", "uniform_error", "series.uniform_error", None),
    ("series", "invariance_check", "series.invariance_check", None),
    ("numerics", "least_squares", "numerics.least_squares", None),
    ("config", "parse_config", "config.parse_config", None),
    ("runner", "run_experiment", "runner.run_experiment", None),
)

PACKAGE = "faberforms"


def check_span_name(check: str) -> str:
    return "checks." + check.replace(" ", "-")


def span_names() -> list:
    """Every span name ``install`` creates, in the same order."""
    checks = importlib.import_module(f"{PACKAGE}.checks")
    return [layer[2] for layer in LAYERS] + [check_span_name(c) for c in checks.CHECKS]


def _bound(fn, count):
    signature = inspect.signature(fn)

    def points(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(count(bound.arguments))

    return points


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []   # [name index, parent span or -1, start, end, points]
        self._stack: list = []

    def wrap(self, name: str, fn, points=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0,
                    points(*args, **kwargs) if points else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every layer function at every import site; returns self."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, path, name, points in LAYERS:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, points and _bound(original, points))
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        checks = importlib.import_module(f"{PACKAGE}.checks")
        for check, (fn, anchor) in list(checks.CHECKS.items()):
            checks.CHECKS[check] = (self.wrap(check_span_name(check), fn), anchor)
        return self

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def summarize(names, spans) -> dict:
    """Per span name: calls, points, s (inclusive, outermost calls only, so
    recursion is not counted twice) and self_s (minus child spans)."""
    child_time = [0.0] * len(spans)
    for name_id, parent, start, end, _pts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name_id, parent, start, end, pts) in enumerate(spans):
        name = names[name_id]
        row = out.setdefault(name, {"calls": 0, "points": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["points"] += pts
        row["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and names[spans[p][0]] != name:
            p = spans[p][1]
        if p < 0:
            row["s"] += end - start
    return out


def time_within(names, spans, name: str, ancestor: str) -> float:
    """Inclusive time of outermost ``name`` spans that run inside an
    ``ancestor`` span."""
    total = 0.0
    for name_id, parent, start, end, _pts in spans:
        if names[name_id] != name:
            continue
        p, inside = parent, False
        while p >= 0:
            pname = names[spans[p][0]]
            if pname == name:
                inside = False
                break
            inside = inside or pname == ancestor
            p = spans[p][1]
        if inside:
            total += end - start
    return total


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["names"], data["spans"]
