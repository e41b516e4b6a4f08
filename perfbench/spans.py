"""Spans and counts recorded from outside the package.

A Tracer keeps the spans of the operation in progress in memory: name,
start, end, parent span and operation id. When an operation ends its
spans are handed back for the caller to turn into per-layer numbers, and
only the first few operations of each kind keep their raw spans for the
trace file written at the end of the run, so a long traced run holds
bounded memory.

Calls inside the package are reached by swapping module attributes for
timing wrappers (`Tracer.patched`), which works because `leanformer`
functions look their collaborators up as module globals at call time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from benchstats import self_time

NO_PARENT = -1


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int


@dataclass
class OpSpans:
    """The spans of one finished operation, with lookups by name and parent."""

    spans: list[Span]
    _children: dict[int, list[Span]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for s in self.spans:
            self._children.setdefault(s.parent, []).append(s)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return self._children.get(span.id, [])

    def under(self, root: Span, name: str) -> list[Span]:
        """Every descendant of `root` called `name`."""
        out, todo = [], list(self.children(root))
        while todo:
            s = todo.pop()
            if s.name == name:
                out.append(s)
            todo.extend(self.children(s))
        return out

    def self_ms(self, span: Span) -> float:
        kids = [(c.start, c.end) for c in self.children(span)]
        return 1e3 * self_time(span.end - span.start, kids, span.start)


def ms(spans: Iterable[Span]) -> float:
    return 1e3 * sum(s.end - s.start for s in spans)


KEEP_OPS_PER_KIND = 2  # operations of each kind whose raw spans go to the trace file


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.kept: list[Span] = []
        self._kept_per_kind: dict[str, int] = {}
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._kind = ""
        self._op = -1

    def begin(self, kind: str, op: int) -> None:
        """Start collecting the spans of one operation."""
        if self._stack or self._spans:
            raise RuntimeError("Tracer.begin: operations may not nest")
        self._kind, self._op = kind, op

    def end(self) -> OpSpans:
        """Finish the operation begun last and return its spans."""
        spans, self._spans, self._stack = self._spans, [], []
        kind = self._kind
        if self._kept_per_kind.get(kind, 0) < KEEP_OPS_PER_KIND:
            self._kept_per_kind[kind] = self._kept_per_kind.get(kind, 0) + 1
            self.kept.extend(spans)
        return OpSpans(spans)

    def _open(self, name: str) -> Span:
        sid = self._next_id
        self._next_id = sid + 1
        stack = self._stack
        rec = Span(sid, name, 0.0, 0.0, stack[-1] if stack else NO_PARENT, self._op)
        self._spans.append(rec)
        stack.append(sid)
        rec.start = self.clock()
        return rec

    def _close(self, rec: Span) -> None:
        rec.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn: Callable) -> Callable:
        # no context manager here: this runs on every numerics call
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, module, names: Iterable[str], prefix: str):
        """Replace `module.<name>` by a span-recording wrapper for the duration."""
        originals = {n: getattr(module, n) for n in names}
        try:
            for n, fn in originals.items():
                setattr(module, n, self.wrap(f"{prefix}.{n}", fn))
            yield
        finally:
            for n, fn in originals.items():
                setattr(module, n, fn)

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.kept:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op}) + "\n")
