"""Span tracing of equipose from outside the library.

A Tracer replaces public functions and methods of equipose with wrappers for
the duration of one op (``with tracer.op(op_id): ...``) and restores the
originals afterwards, so untraced ops run the library's own code. Each call
records a span: name, op id, parent span, start and end. Spans stay in memory
until ``write`` is called at exit; self times are derived from them.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    op: object  # int for a timed op, "setup-<r>" for set-up repeat r
    parent: int  # index of the enclosing span, -1 at top level
    start_ns: int
    end_ns: int = 0
    note: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One traced attribute: ``owner.attr`` recorded under ``name``. ``note``,
    given the bound call arguments and the result, returns counts to attach
    to the span."""

    owner: object
    attr: str
    name: str
    note: object = None


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None

    @contextmanager
    def op(self, op_id):
        """Trace every call into the targets made inside the block as op ``op_id``."""
        originals = [(t.owner, t.attr, getattr(t.owner, t.attr)) for t in self.targets]
        self._op = op_id
        try:
            for (owner, attr, fn), t in zip(originals, self.targets):
                setattr(owner, attr, self._wrap(fn, t))
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
            self._op = None

    def _wrap(self, fn, target: Target):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if target.note else None

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(target.name, self._op, stack[-1] if stack else -1, 0)
            spans.append(span)
            stack.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if target.note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.note = target.note(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_ns(self, ops) -> dict:
        """name -> summed self time (ns) of the spans recorded in the given ops.
        Self time is a span's duration minus that of its direct children; a
        single thread makes children disjoint, so their sum is what they cover."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end_ns - span.start_ns
        out = defaultdict(int)
        for i, span in enumerate(self.spans):
            if span.op in ops:
                out[span.name] += span.end_ns - span.start_ns - covered[i]
        return out

    def calls(self, ops) -> dict:
        out = defaultdict(int)
        for span in self.spans:
            if span.op in ops:
                out[span.name] += 1
        return out

    def note_sum(self, name: str, key: str, ops) -> float:
        return sum(s.note.get(key, 0) for s in self.spans if s.name == name and s.op in ops)

    def write(self, path) -> None:
        """One JSON object per line: id, name, op, parent, start_ns, end_ns, note."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "op": s.op,
                    "parent": s.parent,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                }
                if s.note:
                    record["note"] = s.note
                f.write(json.dumps(record) + "\n")
