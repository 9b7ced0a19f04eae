"""In-memory spans for the traced run, recorded around calls into each layer.

Spans are opened from the benchmark only: around each task's public call,
around ``ConformalPair.invert``/``invert_many``, and around the ``psi``,
``dpsi`` and ``TestFunction.grad_abs`` callables.  The last three are
leaves called thousands of times per task, so they are kept as one
aggregate per (parent span, name) with call, point and nanosecond
totals; parent links and self times stay exact.  Nothing is written
until ``dump``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np

from brennanlab.catalog import ConformalPair

#: layer (package module) of every span name
LAYER_OF = {
    "psi": "catalog", "dpsi": "catalog", "invert": "catalog", "invert_many": "catalog",
    "grad_abs": "operators",
    "brennan": "functionals", "inverse": "functionals", "kpq": "functionals",
    "area": "functionals", "critical": "functionals", "p_distortion": "functionals",
    "isometry": "operators", "equivalence": "operators", "duality": "operators",
    "ratio": "operators",
}
SPAN_FIELDS = ("id", "parent", "task", "name", "start_ns", "end_ns", "points")
LEAF_FIELDS = ("parent", "task", "name", "calls", "points", "ns")
#: the inner disc of every graded rule has radius 1 - EPS_START = 1/2
CORE_RADIUS = 0.5


class Tracer:
    """Span recorder for one traced run.

    ``task_counts[task_id]`` holds, for tasks opened with ``quadrature``,
    the number of disc integrals seen (``map`` integrals evaluate ``dpsi``,
    ``free`` ones only ``grad_abs``) and the quadrature points evaluated.
    An integral is recognised by its first integrand call, which covers
    the inner disc ``|w| < 1/2`` and no other ring does.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list] = {}
        self.task_counts: dict[int, dict] = {}
        self._stack = [0]
        self._task: int | None = None
        self._counts: dict | None = None
        self._last_w = None
        self._pending_free = False
        self._pair_class = _traced_pair_class(self)

    @contextmanager
    def span(self, name: str, points: int = 0):
        rec = [len(self.spans) + 1, self._stack[-1], self._task, name,
               time.perf_counter_ns(), 0, points]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def task(self, task_id: int, kind: str, quadrature: bool):
        self._task = task_id
        self._counts = {"map": 0, "free": 0, "points": 0} if quadrature else None
        self._last_w = None
        self._pending_free = False
        try:
            with self.span(kind) as rec:
                yield rec
        finally:
            if self._counts is not None:
                self.task_counts[task_id] = self._counts
            self._task = self._counts = self._last_w = None

    def leaf(self, name: str, fn):
        clock = time.perf_counter_ns

        def traced(w):
            t0 = clock()
            out = fn(w)
            dt = clock() - t0
            key = (self._stack[-1], name)
            rec = self.leaves.get(key)
            if rec is None:
                self.leaves[key] = [1, np.size(w), dt, self._task]
            else:
                rec[0] += 1
                rec[1] += np.size(w)
                rec[2] += dt
            if self._counts is not None:
                self._observe(name, w)
            return out

        return traced

    def _observe(self, name: str, w) -> None:
        counts = self._counts
        if w is self._last_w:
            # the pullback integrand calls grad_abs, then dpsi, on one array
            if name == "dpsi" and self._pending_free:
                counts["free"] -= 1
                counts["map"] += 1
                self._pending_free = False
            return
        self._last_w = w
        self._pending_free = False
        counts["points"] += np.size(w)
        if np.ndim(w) == 2 and float(np.max(np.abs(w))) < CORE_RADIUS:
            if name == "dpsi":
                counts["map"] += 1
            else:
                counts["free"] += 1
                self._pending_free = True

    def pair(self, pair: ConformalPair) -> ConformalPair:
        values = {f.name: getattr(pair, f.name) for f in fields(pair)}
        values["psi"] = self.leaf("psi", pair.psi)
        values["dpsi"] = self.leaf("dpsi", pair.dpsi)
        return self._pair_class(**values)

    def test_function(self, f):
        return replace(f, grad_abs=self.leaf("grad_abs", f.grad_abs))

    def dump(self, path, header: dict) -> None:
        leaves = [[parent, rec[3], name, rec[0], int(rec[1]), rec[2]]
                  for (parent, name), rec in self.leaves.items()]
        payload = dict(header, layers=LAYER_OF, span_fields=SPAN_FIELDS,
                       spans=self.spans, leaf_fields=LEAF_FIELDS, leaves=leaves)
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _traced_pair_class(tracer: Tracer):
    class TracedPair(ConformalPair):
        def invert(self, z, *args, **kwargs):
            with tracer.span("invert", 1):
                return super().invert(z, *args, **kwargs)

        def invert_many(self, z, *args, **kwargs):
            with tracer.span("invert_many", int(np.size(z))):
                return super().invert_many(z, *args, **kwargs)

    return TracedPair


def layer_times(tracer: Tracer) -> dict:
    """Per-span duration and the part of it covered by catalog children, in ns.

    Returns ``{span_id: (name, task, duration, catalog_children, grad_children)}``
    for every non-leaf span; children are direct children only.
    """
    out = {}
    for sid, parent, task, name, t0, t1, _ in tracer.spans:
        out[sid] = [name, task, t1 - t0, 0, 0]
    for sid, parent, task, name, t0, t1, _ in tracer.spans:
        if parent:
            out[parent][3] += t1 - t0
    for (parent, name), rec in tracer.leaves.items():
        if parent:
            out[parent][4 if name == "grad_abs" else 3] += rec[2]
    return out


def catalog_metrics(tracer: Tracer) -> dict:
    leaf = {"psi": [0, 0, 0], "dpsi": [0, 0, 0]}
    newton_psi_points = 0
    invert_many_ids = {s[0] for s in tracer.spans if s[3] == "invert_many"}
    for (parent, name), (calls, points, ns, _) in tracer.leaves.items():
        if name in leaf:
            acc = leaf[name]
            acc[0] += calls
            acc[1] += points
            acc[2] += ns
            if name == "psi" and parent in invert_many_ids:
                newton_psi_points += points
    many = [s for s in tracer.spans if s[3] == "invert_many"]
    single = [s for s in tracer.spans if s[3] == "invert"]
    many_points = sum(s[6] for s in many)
    return {
        "catalog.dpsi_ms": leaf["dpsi"][2] / 1e6,
        "catalog.dpsi_calls": leaf["dpsi"][0],
        "catalog.dpsi_points": int(leaf["dpsi"][1]),
        "catalog.psi_ms": leaf["psi"][2] / 1e6,
        "catalog.psi_points": int(leaf["psi"][1]),
        "catalog.invert_many_ms": sum(s[5] - s[4] for s in many) / 1e6,
        "catalog.invert_many_points": many_points,
        "catalog.newton_psi_evals_per_point":
            newton_psi_points / many_points if many_points else 0.0,
        "catalog.invert_ms": sum(s[5] - s[4] for s in single) / 1e6,
        "catalog.invert_calls": len(single),
    }
