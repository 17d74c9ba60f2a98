"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: `Tracer.wrap` replaces a
name on the object its caller looks it up on (a module attribute or a
class attribute) with a timing wrapper.  Each span records its parent,
so a span's self time is its duration minus the durations of its direct
children.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    nbytes: int = 0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _wrapped: list[tuple] = field(default_factory=list)

    def wrap(self, owner, attr: str, name: str, nbytes=None) -> None:
        """Time every call of `owner.attr` as a span called `name`.
        `nbytes(args, result)`, when given, records the bytes the call
        moved."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, clock())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
                if span.parent >= 0:
                    spans[span.parent].children_s += span.duration
            if nbytes is not None:
                span.nbytes = nbytes(args, result)
            return result

        self._wrapped.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped name back."""
        for owner, attr, fn in reversed(self._wrapped):
            setattr(owner, attr, fn)
        self._wrapped.clear()

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def children_named(self, parent_name: str, name: str) -> int:
        """Number of `name` spans whose direct parent is a `parent_name` span."""
        return sum(1 for s in self.spans
                   if s.name == name and s.parent >= 0
                   and self.spans[s.parent].name == parent_name)
