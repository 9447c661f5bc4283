"""In-memory span tracer that wraps relukit functions from the outside.

A span is recorded at each layer boundary: name, start, end, the index of the
enclosing span and the id of the operation (query, training stage, repair
problem) it belongs to. Spans stay in memory until the run ends. Wrapping
replaces a function as its caller's module resolves it, so the package itself
is never edited; `install` and `restore` switch the wrappers on and off.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id, tag]
        self.op = None
        self.counts = defaultdict(int)
        self._stack = []
        self._wraps = []  # (owner, attribute, original, wrapper)

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, observe=None):
        """Record a span named `name` around every call of `owner.attr`.

        `observe(args, result, error)` may return a tag stored on the span
        (for example an LP outcome) and may bump `self.counts`.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    if observe is not None:
                        rec[5] = observe(args, None, exc)
                    raise
                if observe is not None:
                    rec[5] = observe(args, result, None)
                return result

        self._wraps.append((owner, attr, original, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._wraps:
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original, _ in reversed(self._wraps):
            setattr(owner, attr, original)

    def summary(self, keep):
        """Per span name: calls, inclusive seconds, self seconds and seconds
        per tag, over the spans for which `keep(span)` holds. Self time is a
        span's duration minus the time its direct children cover."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "tags": defaultdict(lambda: [0, 0.0])})
        for i, rec in enumerate(self.spans):
            if not keep(rec):
                continue
            name, start, end, _, _, tag = rec
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            if tag is not None:
                entry["tags"][tag][0] += 1
                entry["tags"][tag][1] += end - start
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "tag": tag})
                         + "\n")


class NullTracer:
    """Stand-in used by untraced runs: spans cost one no-op context."""
    op = None

    def span(self, name):
        return nullcontext()

    def install(self):
        pass

    def restore(self):
        pass
