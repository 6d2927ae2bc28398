"""In-memory spans around the calls the benchmark makes into hjbsolve.

Spans are recorded from outside the package: `Tracer.patch` swaps a
module-level name for a wrapper and puts it back afterwards, and
`Tracer.wrap` wraps a plain callable such as `ProblemSpec.dynamics`.
Each span is (id, name, start, end, parent id, counts).  `write` puts the
spans of one traced run in one file, after a header line naming the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Spans of one traced run, in the order they started."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        """`fn` recording one span per call; `count(args, result)` returns a
        dict of counts to store on the span."""

        def traced(*args, **kwargs):
            record = [len(self.spans), name, time.perf_counter(), None,
                      self._stack[-1] if self._stack else None, {}]
            self.spans.append(record)
            self._stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    record[5].update(count(args, result))
                return result
            except Exception as exc:
                record[5]["raised"] = type(exc).__name__
                raise
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def patch(self, targets):
        """Replace each (module, attribute, span name, count) for the block."""
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self):
        """Per span name: calls, summed duration in s, summed counts, and the
        number of calls that raised."""
        out = defaultdict(lambda: defaultdict(int))
        for _, name, start, end, _, counts in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["raised"] += 1 if "raised" in counts else 0
            for key, value in counts.items():
                if key != "raised":
                    agg[key] += value
        return out

    def self_time(self, name, child_names):
        """Summed duration of `name` spans minus their direct children named
        in `child_names`."""
        total = sum(end - start for _, span_name, start, end, _, _ in self.spans
                    if span_name == name)
        for _, span_name, start, end, parent, _ in self.spans:
            if (span_name in child_names and parent is not None
                    and self.spans[parent][1] == name):
                total -= end - start
        return total

    def write(self, path, header):
        """One JSON header line, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, name, start, end, parent, counts in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "counts": counts}) + "\n")
