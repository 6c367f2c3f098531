"""Benchmark-side tracing: in-memory spans around the program's public
calls, and self/busy time derived from span intervals.

The program is not instrumented.  :func:`wrapped` temporarily replaces
a public entry point (a module function, a method, or a classmethod)
with a wrapper that records one span per call into a
:class:`SpanRecorder`, and restores the original on exit.  Spans keep
the request they belong to and the span that caused them, live in
memory, and are written out once when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator, Optional, Sequence


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    request: Optional[str]
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans of one (single-threaded) client."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: Optional[str] = None
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].sid if self._open else None
        record = Span(len(self.spans), parent, self.request, name,
                      time.perf_counter())
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(asdict(record)) + "\n")


def _union_length(intervals: Sequence[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Per span name: Σ over its spans of (duration − the part of the
    span's interval its child spans cover)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        covered = _union_length(
            [
                (max(a, s.start), min(b, s.end))
                for a, b in children.get(s.sid, ())
                if min(b, s.end) > max(a, s.start)
            ]
        )
        out[s.name] = out.get(s.name, 0.0) + s.duration - covered
    return out


def busy_times(spans: Sequence[Span]) -> dict[str, float]:
    """Per span name: wall time during which at least one span of that
    name was open (nested same-name calls count once)."""
    by_name: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append((s.start, s.end))
    return {name: _union_length(iv) for name, iv in by_name.items()}


@contextlib.contextmanager
def wrapped(
    recorder: SpanRecorder,
    owner: Any,
    attr: str,
    name: str,
    on_result: Optional[Callable[[Any], None]] = None,
) -> Iterator[None]:
    """Record a ``name`` span around every call of ``owner.attr``.

    ``owner`` is a module or a class; plain methods, classmethods and
    module functions are all handled.  ``on_result`` sees each return
    value (to pick up the stats a call returns).
    """
    original = (
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    )
    is_classmethod = isinstance(original, classmethod)
    target = original.__func__ if is_classmethod else original

    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = target(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result

    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)
