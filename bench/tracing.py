"""Span recording from outside the program under test.

Every call the benchmark makes into a ``firebreak`` module goes through a
recorder's ``call``.  The untimed recorder only counts operations; the
tracing recorder also keeps one span per call (name, start, end, parent span,
pass id) in memory, to be written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Recorder:
    """Tracing off: counts the operations of a pass and calls straight through."""

    tracing = False

    def __init__(self):
        self.ops = 0

    def call(self, name, fn, *args, **kwargs):
        self.ops += 1
        return fn(*args, **kwargs)

    def begin_pass(self, pass_id):
        pass

    def end_pass(self):
        pass


class Tracer(Recorder):
    """Tracing on: one span per call, nested under the pass that made it."""

    tracing = True

    def __init__(self):
        super().__init__()
        self.spans = []      # [name, start, end, parent index, pass id, kind]
        self._stack = []
        self._pass_id = None

    def _open(self, name, kind):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._pass_id, kind])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        self.ops += 1
        index = self._open(name, "call")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def begin_pass(self, pass_id):
        self._pass_id = pass_id
        self._open("pass", "pass")

    def end_pass(self):
        self._close(self._stack[-1])

    def probe(self, name, fn, *args, **kwargs):
        """Extra call made only to decompose a layer: a root span, never part of a pass."""
        stack, self._stack = self._stack, []
        index = self._open(name, "probe")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)
            self._stack = stack

    def add_span(self, name, start, end, parent=None):
        """Record a span timed elsewhere (e.g. inside a child process)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([name, start, end, parent, self._pass_id, "call"])
        return len(self.spans) - 1

    # -- reports ---------------------------------------------------------------

    def self_times(self):
        """Per pass id: {span name: summed self time}; "pass" is time outside every call."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_pass = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, pass_id, _) in enumerate(self.spans):
            per_pass[pass_id][name] += (end - start) - child_time[i]
        return per_pass

    def write(self, path):
        names = ("name", "start", "end", "parent", "pass", "kind")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(names, span)) for span in self.spans], handle)
