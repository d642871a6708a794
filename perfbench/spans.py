"""In-memory span tracing of the library's public functions.

A :class:`Tracer` replaces every public function of the layer modules with a
timing wrapper, at every place inside the package where that function object
is bound (the defining module, the package ``__init__`` and every module that
imported it by name, such as ``spectral.singular_values`` or
``subdiff.hosvd``). Each call becomes a span ``(name, start, end, parent,
item)``; spans stay in memory until :meth:`Tracer.write` runs at the end.

This module imports nothing from numpy or the library at import time, so the
benchmark can time the library import on its own.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "tensorspectra"

# The layers the benchmark reports. ``verify`` is left out: its suites are
# the acceptance tests and their cost shows in the tier-1 wall time.
LAYERS = ("tensor", "linalg", "spectral", "odeco", "vonneumann", "subdiff",
          "serialize", "cli")

_MIB = float(1 << 20)


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module`` itself (not re-exported ones)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def package_modules() -> list:
    """Every loaded module of the package, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a sequence of ``(name, start, end, parent, item)`` with
    ``parent`` the index of the enclosing span or -1. Child intervals are
    clipped to the parent and merged before they are subtracted, so the
    result never counts one instant twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Wraps the library's public functions and records one span per call."""

    def __init__(self):
        self.spans: list = []
        self.item = -1
        self.svd_out_bytes = 0
        self.conjugate_evaluations = 0
        self.cli_errors = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def wrap(self) -> None:
        """Install a wrapper at every binding site of every layer function."""
        if self._patches:
            raise RuntimeError("tracer: wrappers already installed")
        modules = package_modules()
        observers = self._observers()
        wrappers: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, fn in public_functions(module).items():
                span = f"{layer}.{name}"
                wrappers[id(fn)] = self._wrapper(span, fn, observers.get(span))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def unwrap(self) -> None:
        """Restore every binding :meth:`wrap` replaced."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrapper(self, name: str, fn, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observers(self) -> dict:
        def svd_out(result):
            # computed from the returned array sizes, not measured
            self.svd_out_bytes += (
                result.u.nbytes + result.singular_values.nbytes + result.vt.nbytes
            )

        def evaluations(result):
            self.conjugate_evaluations += int(result.evaluations)

        def cli_exit(code):
            if code != 0:
                self.cli_errors += 1

        return {
            "linalg.svd": svd_out,
            "subdiff.estimate_tensor_conjugate": evaluations,
            "cli.run": cli_exit,
        }

    # -- harness-side spans -----------------------------------------------

    def root_span(self, name: str, fn):
        """Run ``fn()`` as the root span ``name`` of the next item."""
        self.item += 1
        item = self.item
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, item)

    # -- reporting --------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per function name: number of calls and summed self time."""
        rows: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = rows.setdefault(span[0], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
        return rows

    def extras(self) -> dict[str, float]:
        return {
            "linalg.svd.out_mb": self.svd_out_bytes / _MIB,
            "subdiff.estimate_tensor_conjugate.evaluations": self.conjugate_evaluations,
            "cli.run.errors": self.cli_errors,
        }

    def write(self, path, header: dict) -> None:
        """Write the spans and the per-function table as one JSON document."""
        names = sorted({span[0] for span in self.spans})
        index = {name: k for k, name in enumerate(names)}
        doc = dict(header)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "item"]
        doc["names"] = names
        doc["table"] = self.table()
        doc["extras"] = self.extras()
        doc["spans"] = [
            [index[name], start, end, parent, item]
            for name, start, end, parent, item in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
            handle.write("\n")
