"""Spans around the public functions of the pttunnel modules.

The package's modules import each other's functions by name, so a call from
``pttunnel.sweep`` to ``tunneling_time_result`` looks the name up in the
``pttunnel.sweep`` namespace.  Installing the tracer replaces every binding
of every public function, in every module listed, with a wrapper that
records a span; private helpers stay unwrapped and count as their caller's
self time.  Spans are kept in memory (up to ``span_cap``) and written out by
:meth:`Tracer.write`; the per-name totals cover every call.
"""

from __future__ import annotations

import importlib
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("model", "chebyshev", "timing", "transfer", "sweep", "cli")


class Tracer:
    def __init__(self, span_cap: int = 200_000) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.cells = 0  # lattice cells multiplied by lattice_matrix_direct
        self.spans: list[tuple[int, str, float, float, int] | None] = []
        self.span_cap = span_cap
        self.request = 0  # one id per outermost traced call and its children
        self._stack: list[list] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        calls, total, self_time = self.calls, self.total, self.self_time
        stack, spans = self._stack, self.spans
        count_cells = name == "transfer.lattice_matrix_direct"

        def traced(*args, **kwargs):
            frame = [0.0, len(spans)]  # child time, span index
            if stack:
                parent = stack[-1][1]
            else:
                parent = -1
                self.request += 1
            if len(spans) < self.span_cap:
                spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] < len(spans) and spans[frame[1]] is None:
                    spans[frame[1]] = (self.request, name, start, end, parent)
                if count_cells:
                    self.cells += args[2] if len(args) > 2 else kwargs["n_cells"]

        return traced

    def install(self) -> None:
        """Wrap every public pttunnel function wherever a layer binds it."""
        modules = [importlib.import_module(f"pttunnel.{m}") for m in LAYERS]
        wrappers: dict[object, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                origin = value.__module__ or ""
                if not origin.startswith("pttunnel."):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(
                        f"{origin.rsplit('.', 1)[1]}.{value.__name__}", value
                    )
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def layer_sum(self, table: dict[str, float], layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def write(self, path: str) -> None:
        """Write the kept spans as tab-separated request, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("request\tname\tstart_s\tend_s\tparent\n")
            for span in self.spans:
                if span is not None:
                    handle.write("%d\t%s\t%.9f\t%.9f\t%d\n" % span)
