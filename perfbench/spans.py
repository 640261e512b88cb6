"""In-memory span tracer for the benchmark's traced run.

A Tracer replaces chosen functions, at the module or class attribute they
are called through, with wrappers that record one span per call: name,
start, end, parent span and op id.  Spans stay in memory until the run
ends; `restore` puts the original functions back.  Self time is a span's
duration minus the time covered by its direct child spans.  The program
is single-threaded inside an op, so children nest strictly in their parent.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counters = defaultdict(float)
        self.op_id = -1
        self._stack = []
        self._patches = []

    def patch(self, owner, attr, name, on_return=None):
        """Wrap owner.attr in a span called `name`.

        on_return(tracer, args, result), when given, adds counts taken at
        the same boundary (for instance the users an association handled).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("index", "name", "start", "end", "parent", "op"))
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow((i, name, repr(start), repr(end), parent, op))
