"""In-memory span tracing around the package's public functions.

Spans are recorded from the benchmark's own files: each traced function is
replaced, at the name its caller looks it up by, with a wrapper that records
(name, start, end, parent span, op id). Counters are kept at the same
boundaries. `Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op_id]
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None, ident=None):
        """Wrapper recording a span per call; `count(counts, args, result)`
        may add counters, and every raised exception counts as `.raised`.
        `ident(args)` names the step the call performs: spans inside it
        carry that id instead of the enclosing one."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            outer = self.op_id
            if ident is not None:
                self.op_id = ident(args)
            rec = [name, perf_counter(), 0.0,
                   stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                self.op_id = outer
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, count=None,
              ident=None) -> None:
        """Replace owner.attr (a module global or class attribute)."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, ident))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (outermost spans of the name
        only) and self seconds (duration minus direct children)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, parent, _) in enumerate(spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child_time[idx]
            nested = False
            while parent >= 0:
                if spans[parent][0] == name:
                    nested = True
                    break
                parent = spans[parent][3]
            if not nested:
                agg["busy_s"] += end - start
        return dict(out)

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
