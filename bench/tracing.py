"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` rebinds each listed function, in every ``mobilemem``
module namespace that holds it, to a wrapper that records one span: name,
start, end, parent span and operation id. Spans stay in memory; at the end
``write`` saves them and ``summary`` reduces them to the per-layer metrics.
A span's self time is its duration minus the time its child spans cover,
wrapper bookkeeping of the children included, so tracing cost lands on no
layer.

Recursive functions are timed only at their outermost call: a wrapper that
finds a span of its own name open calls straight through.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function, span name, counts). Each count maps a name to a
# function of (args, result); ``summary`` sums it over the spans, from the
# arguments and results kept with them, so no count is taken while timing.
_CHOICES = {"returned": lambda a, r: len(r)}


def _membranes(config) -> int:
    return sum(1 for _ in config.skin.walk())


LAYERS = [
    ("core", "canonicalize", "core.canonicalize", {"key_bytes": lambda a, r: len(r)}),
    ("engine", "find_instances", "engine.find_instances", {"instances": lambda a, r: len(r)}),
    ("engine", "maximal_choices", "engine.choices", _CHOICES),
    ("engine", "step_choices", "engine.choices", _CHOICES),
    ("engine", "step", "engine.step", {
        "fired": lambda a, r: len(a[1]),
        "membranes_in": lambda a, r: _membranes(a[0]),
        "consumed": lambda a, r: r.stats.consumed,
        "produced": lambda a, r: r.stats.produced,
        "expired": lambda a, r: r.stats.expired,
    }),
    ("engine", "successors", "engine.successors", {"distinct": lambda a, r: len(r)}),
    ("untimed", "u_find_instances", "untimed.u_find_instances", {"instances": lambda a, r: len(r)}),
    ("untimed", "u_maximal_choices", "untimed.u_maximal_choices", _CHOICES),
    ("untimed", "u_apply", "untimed.u_apply", {}),
    ("untimed", "u_canonicalize", "untimed.u_canonicalize", {}),
    ("untimed", "u_successors", "untimed.u_successors", {"distinct": lambda a, r: len(r)}),
    ("compiler", "eliminate_timers", "compiler.eliminate_timers", {"rules_out": lambda a, r: len(r[1])}),
    ("compiler", "project", "compiler.project", {}),
    ("compiler", "counter_soundness_violations", "compiler.counter_soundness_violations", {}),
    ("compiler", "embed_infinite", "compiler.embed_infinite", {}),
    ("explore", "explore_membranes", "explore.explore_membranes", {
        "nodes": lambda a, r: len(r.nodes), "edges": lambda a, r: len(r.edges)}),
    ("explore", "explore_untimed", "explore.explore_untimed", {
        "nodes": lambda a, r: len(r.nodes), "edges": lambda a, r: len(r.edges)}),
    ("explore", "explore_ambients", "explore.explore_ambients", {
        "nodes": lambda a, r: len(r.nodes), "edges": lambda a, r: len(r.edges)}),
    ("explore", "check_embedding", "explore.check", {}),
    ("explore", "check_timer_elimination", "explore.check", {}),
    ("explore", "check_translation", "explore.check", {}),
    ("ambient", "redexes", "ambient.redexes", {}),
    ("ambient", "reduce_step", "ambient.reduce_step", {}),
    ("ambient", "canonical_key", "ambient.canonical_key", {}),
    ("translate", "translate", "translate.translate", {}),
    ("translate", "check_correspondence_PQ", "translate.check_correspondence_PQ", {}),
    ("translate", "some_preimage", "translate.some_preimage", {}),
    ("translate", "check_preimage_reordering", "translate.check_preimage_reordering", {}),
    ("sysfile", "parse_system", "sysfile.parse_system", {}),
    ("sysfile", "render_system", "sysfile.render_system", {}),
]

# Successor functions stepping each choice with this child span: their
# ``distinct_ratio`` is distinct successors over choices stepped.
_STEPPED_BY = {"engine.successors": "engine.step", "untimed.u_successors": "untimed.u_apply"}


def metric_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in LAYERS order."""
    out: dict[str, str] = {}
    for _mod, _fn, name, counts in LAYERS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        for count in counts:
            if count == "distinct":
                out[f"{name}.distinct_ratio"] = "ratio"
            else:
                out[f"{name}.{count}"] = "count"
    return list(out.items())


class Tracer:
    def __init__(self):
        # span: [name, start, end, outer start, outer end, parent, op, args, result]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._saved: list[tuple] = []
        self.op = 0

    def _wrap(self, name: str, fn, keep: bool):
        spans, stack, open_names, clock = self.spans, self._stack, self._open, time.perf_counter

        def traced(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            outer = clock()
            span = [name, 0.0, 0.0, outer, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            open_names.add(name)
            try:
                span[1] = clock()
                result = fn(*args, **kwargs)
            finally:
                span[2] = span[4] = clock()
                stack.pop()
                open_names.discard(name)
            if keep:
                span[7], span[8] = args, result
            span[4] = clock()
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function wherever a mobilemem module holds it."""
        for mod_name, fn_name, span_name, counts in LAYERS:
            original = getattr(importlib.import_module(f"mobilemem.{mod_name}"), fn_name)
            wrapper = self._wrap(span_name, original, bool(counts))
            for name, module in list(sys.modules.items()):
                if name != "mobilemem" and not name.startswith("mobilemem."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every function ``install`` rebound."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """One JSON line per span: name, start and end in seconds since the
        first span, parent span index (-1 for none) and operation id."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, _o1, _o2, parent, op, _a, _r in self.spans:
                f.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                    "parent": parent, "op": op}) + "\n")

    def summary(self) -> dict[str, float]:
        """Per-layer metrics summed over all spans recorded so far."""
        counts_of = {name: counts for _m, _f, name, counts in LAYERS}
        out: dict[str, float] = {metric: 0 for metric, _unit in metric_names()}
        covered = [0.0] * len(self.spans)
        children: dict[tuple[int, str], int] = defaultdict(int)
        for span in self.spans:
            parent = span[5]
            if parent >= 0:
                covered[parent] += span[4] - span[3]
                children[(parent, span[0])] += 1
        stepped: dict[str, int] = defaultdict(int)
        for idx, span in enumerate(self.spans):
            name = span[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (span[2] - span[1]) - covered[idx]
            if span[7] is not None:  # None when the call raised
                for count, measure in counts_of[name].items():
                    out[f"{name}.{count}"] = out.get(f"{name}.{count}", 0) + measure(span[7], span[8])
            if name in _STEPPED_BY:
                stepped[name] += children[(idx, _STEPPED_BY[name])]
        for name in _STEPPED_BY:
            distinct = out.pop(f"{name}.distinct", 0)
            out[f"{name}.distinct_ratio"] = distinct / stepped[name] if stepped[name] else 0.0
        return out
