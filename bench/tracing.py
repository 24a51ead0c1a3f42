"""Spans around the calls into crossn, recorded from the benchmark's own files.

``Tracer.wrap`` replaces a module or class attribute with a wrapper that
records a span per call.  Callers inside crossn look those attributes up at
call time (``symbolic.build_table``, ``verify.check_pythagorean``,
``MulTable.validate``, ...), so their calls are recorded too.  Spans are
kept in memory and written out by ``dump`` when the run ends.

A span is ``(id, name, start, end, parent, op, pass_no, note)``: ``parent``
is the id of the enclosing span (None for an op span), ``op`` the benchmark
op it belongs to and ``note`` an optional count taken from the call's
arguments or result.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.pass_no = 0
        self._stack: List[int] = []
        self._op: Optional[str] = None
        self._patches: List[tuple] = []

    @contextmanager
    def op(self, kind: str):
        """Root span for one benchmark op; layer spans nest under it."""
        self._op = kind
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, "op:" + kind, start, end, None, kind, self.pass_no, None)
            self._op = None

    def traced(self, fn: Callable, name, note: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call.

        ``name`` is a string or a function of the call's arguments; ``note``
        maps the call's result to a count stored on the span.
        """
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = len(self.spans)
            self.spans.append(None)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[span_id] = (span_id, span_name, start, end, parent, self._op, self.pass_no, None)
            if note is not None:
                self.spans[span_id] = self.spans[span_id][:7] + (note(result),)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name, note: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name, note))

    def wrap_factory(self, owner, attr: str, name: str) -> None:
        """Wrap the ``evaluate`` of every ProductUnderTest a factory returns."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))

        def factory(*args, **kwargs):
            product = original(*args, **kwargs)
            return dataclasses.replace(product, evaluate=self.traced(product.evaluate, name))

        setattr(owner, attr, factory)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "pass", "note")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class Spans:
    """Queries over recorded spans, for the per-layer metrics."""

    def __init__(self, spans: List[tuple]):
        self.spans = spans
        self.passes = sorted({s[6] for s in spans})
        self.children: Dict[int, List[tuple]] = defaultdict(list)
        for s in spans:
            if s[4] is not None:
                self.children[s[4]].append(s)

    def select(self, name: str, op_prefix: str = ""):
        return [
            s for s in self.spans
            if s[1] == name and (s[5] or "").startswith(op_prefix)
        ]

    def median_s(self, name: str, op_prefix: str = "") -> float:
        """Median duration of one call."""
        durations = [s[3] - s[2] for s in self.select(name, op_prefix)]
        return statistics.median(durations) if durations else 0.0

    def per_pass(self, spans, value: Callable[[tuple], float]) -> float:
        """Median over traced passes of a per-pass sum."""
        if not self.passes:
            return 0.0
        totals = dict.fromkeys(self.passes, 0.0)
        for s in spans:
            totals[s[6]] += value(s)
        return statistics.median(totals.values())

    def self_s(self, span, child_name: str) -> float:
        """Duration of ``span`` minus its direct ``child_name`` children."""
        inner = sum(c[3] - c[2] for c in self.children[span[0]] if c[1] == child_name)
        return span[3] - span[2] - inner
