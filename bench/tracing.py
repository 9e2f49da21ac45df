"""Span tracer for the benchmark's traced run.

A `Tracer` wraps every public function of each wcosym layer module, and
`install` puts each wrapper in every wcosym module namespace that binds
the function.  Both bindings matter: `verify` does `from .operators import
build_wco`, so patching `operators` alone misses the calls made by the
suites, and patching `verify` alone misses `conjugation_matrix` calling
`build_wco` inside `operators`.  Functions reached only through a
container (the suite functions held by `verify.SUITES`) stay unwrapped, so
their time is self time of the caller, `verify.run_suite`.

Each call records one span: id, parent id, name, start, end and self time
(its duration minus the time its child spans cover).  Spans stay in
memory; `write` stores them once the measurement is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

LAYERS = ("series", "mobius", "families", "operators", "verify", "cli")

# (span id, parent id or -1, name index, start, end, self time)
Span = Tuple[int, int, int, float, float, float]


class Tracer:
    """Wrappers for the public functions of the already imported wcosym
    layers; `install` and `uninstall` swap them in and out."""

    def __init__(self):
        self.names: List[str] = []
        self.spans: List[Span] = []
        self._stack: List[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._patches: List[tuple] = []  # (namespace, attribute, original)
        self._wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"wcosym.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))

    def install(self) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "wcosym" and not name.startswith("wcosym."):
                continue
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((namespace, attr, obj))
                    namespace[attr] = hit[1]

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            namespace[attr] = original
        self._patches.clear()

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans.append((span_id, parent, index, frame[1], end, duration - frame[2]))

        return traced

    def write(self, path) -> None:
        """One JSON line naming the spans' fields, then one line per span."""
        with open(path, "w") as out:
            out.write(json.dumps({"fields": ["id", "parent", "name", "start", "end", "self_s"]}) + "\n")
            for span_id, parent, index, start, end, self_s in self.spans:
                out.write(json.dumps([span_id, parent, self.names[index], start, end, self_s]) + "\n")


def summarize(names: List[str], spans: List[Span]) -> Dict[str, dict]:
    """Per function: calls, busy time (outermost spans of that name only),
    self time and the list of span durations."""
    name_of = {s[0]: s[2] for s in spans}
    parent_of = {s[0]: s[1] for s in spans}
    stats: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
    for span_id, parent, index, start, end, self_s in spans:
        entry = stats[names[index]]
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["durations"].append(end - start)
        outer = parent
        while outer != -1 and name_of.get(outer) != index:
            outer = parent_of.get(outer, -1)
        if outer == -1:
            entry["busy_s"] += end - start
    return stats


def layer_self(stats: Dict[str, dict]) -> Dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS}
    for name, entry in stats.items():
        totals[name.split(".", 1)[0]] += entry["self_s"]
    return totals
