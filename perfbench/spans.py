"""Spans around every public function of the `framings` layers.

The tracer wraps each public module-level function at every name its
callers look up: `framings.links.exact_signature` as well as
`framings.exactmath.exact_signature`, because `links` imports it by name.
Nothing under `src/` changes; the wrappers live only in the process that
installs them.

A span is (name, start_ns, end_ns, parent index, operation id). Spans stay
in memory and are written out once, after the run. A span's self time is
its duration minus the durations of its direct children; a layer's self
time is the sum over the spans of its functions, so time spent in methods
and private helpers is charged to the public function that called them.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter_ns

LAYERS = ("exactmath", "links", "quotients", "defects", "bundles", "catalog", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.stack: list[int] = []
        self.op = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer."""
        modules = {layer: importlib.import_module(f"framings.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    setattr(module, attr, wrapped[id(value)])

    def summary(self, first_pass: int) -> dict:
        """Calls and self time per function, and call counts per operation
        for the operations numbered below first_pass."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        per_op: dict[int, Counter] = defaultdict(Counter)
        for k, (name, start, end, _, op) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[k]
            if op < first_pass:
                per_op[op][name] += 1
        return {"calls": dict(calls), "self_ns": dict(self_ns),
                "per_op": {op: dict(c) for op, c in per_op.items()}}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps([name, start, end, parent, op]) + "\n")
