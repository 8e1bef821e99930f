"""In-memory span recording for one traced repeat of a workload.

A span is (name, start, end, parent) with times from ``time.perf_counter``;
``parent`` is the index of the enclosing span, or -1. Spans are appended when
they open, so the list is in start order and a parent always precedes its
children. Nothing is written until the repeat ends.

Wrappers only time the call and read shapes of what it returned: they never
touch an argument or a random stream, so a traced run gives the same output
bytes as an untraced one (the benchmark checks this).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def span(self, name: str, fn, on_return=None):
        """``fn`` wrapped to record one span per call; ``on_return(result,
        *args, **kwargs)`` may add counts after the span has closed."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result, *args, **kwargs)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """``fn`` wrapped to count calls only (no span)."""
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_times(self) -> dict[str, float]:
        """``<span>_s``, ``<span>_self_s`` and ``<span>_calls`` per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        out: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            took = end - start
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + took
            out[f"{name}_self_s"] = out.get(f"{name}_self_s", 0.0) + took
            out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
            if parent >= 0:
                parent_name = self.spans[parent][0]
                out[f"{parent_name}_self_s"] -= took
        return out

    def step_times(self, loss: str, update: str) -> dict[str, list[float]]:
        """Per-step seconds grouped by the name of the span that ran the steps.

        A step runs from the start of a ``loss`` span to the end of the next
        ``update`` span under the same parent (one optimiser step of ``fit``).
        """
        opened: dict[int, float] = {}
        steps: dict[str, list[float]] = {}
        for name, start, end, parent in self.spans:
            if name == loss:
                opened[parent] = start
            elif name == update and parent in opened:
                steps.setdefault(self.spans[parent][0], []).append(end - opened.pop(parent))
        return steps

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")


@contextmanager
def patched(points):
    """Temporarily replace ``owner.attr`` with ``wrapper`` for each point."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in points]
    try:
        for owner, attr, wrapper in points:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
