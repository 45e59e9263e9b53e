"""Spans around the calls into dyner's public functions, made from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records a span, in the defining module and in every dyner
module that imported it by name, so calls between modules are seen too.
Nothing inside src/dyner changes.  Spans stay in memory until `write`.
Work done in child processes (CLI calls, pool workers) shows only as the
span of the call that started them.
"""

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

# model and logspace are too thin to time on their own; their cost shows
# inside analytic.
LAYERS = ("simulate", "components", "analytic", "stats", "cli", "svgplot")
SPAN_FIELDS = ("id", "name", "layer", "start", "end", "parent", "workload")


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans = []  # rows in SPAN_FIELDS order
        self.calls = Counter()
        self.workload = None
        self._stack = []
        self._restore = []
        self._origin = time.perf_counter()

    def _open(self, name: str, layer: str) -> list:
        row = [len(self.spans), name, layer, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.workload]
        self.spans.append(row)
        self._stack.append(row[0])
        return row

    def _close(self, row: list) -> None:
        row[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        row = self._open(name, layer)
        try:
            yield row
        finally:
            self._close(row)

    def _wrap(self, layer: str, name: str, fn):
        qualified = f"{layer}.{name}"
        open_, close, calls = self._open, self._close, self.calls

        @wraps(fn)
        def traced(*args, **kwargs):
            calls[qualified] += 1
            row = open_(qualified, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                close(row)

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"dyner.{layer}") for layer in LAYERS]
        package = [m for key, m in sys.modules.items()
                   if key == "dyner" or key.startswith("dyner.")]
        for layer, module in zip(LAYERS, modules):
            for name, fn in list(_public_functions(module)):
                traced = self._wrap(layer, name, fn)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, traced)
                            self._restore.append((holder, attr, fn))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._restore):
            setattr(holder, attr, fn)
        self._restore.clear()

    def durations(self, name: str) -> list:
        return [row[4] - row[3] for row in self.spans if row[1] == name]

    def self_seconds(self) -> dict:
        """Per layer: span time not covered by child spans."""
        covered = defaultdict(float)
        for row in self.spans:
            if row[5] is not None:
                covered[row[5]] += row[4] - row[3]
        total = dict.fromkeys(LAYERS, 0.0)
        for row in self.spans:
            total[row[2]] = total.get(row[2], 0.0) + (row[4] - row[3]) - covered[row[0]]
        return total

    def layer_calls(self) -> dict:
        total = dict.fromkeys(LAYERS, 0)
        for name, count in self.calls.items():
            total[name.split(".", 1)[0]] += count
        return total

    def write(self, path, meta: dict) -> None:
        origin = self._origin
        spans = [row[:3] + [row[3] - origin, row[4] - origin] + row[5:] for row in self.spans]
        doc = {"meta": meta, "fields": SPAN_FIELDS, "spans": spans, "calls": dict(self.calls)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
