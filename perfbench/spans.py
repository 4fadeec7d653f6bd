"""In-memory span recorder and call-site wrappers for the traced run.

A span is one call into a layer: its name, start and end, the span that
was open on the same thread when it started (its parent) and the counts
recorded at that boundary.  Times are ``time.perf_counter`` seconds,
which on Linux read ``CLOCK_MONOTONIC``: spans recorded inside the
analysis daemon and in the benchmark process share one time base, so a
daemon span can be placed inside the client operation that caused it.

Wrappers are installed only for the traced run (:func:`installed`) and
the original attributes are put back when it ends, so the untraced run
calls unpatched code.
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

#: ``after(attrs, args, kwargs, result)`` fills a span's counts once the
#: wrapped call has returned.
CountHook = Callable[[dict, tuple, dict, object], None]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe span list; each thread keeps its own open-span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, 0.0, parent=stack[-1] if stack else -1)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def export(self) -> list[list]:
        """Spans as JSON-ready ``[name, start, end, parent, attrs]`` rows."""
        return [
            [span.name, span.start, span.end, span.parent, span.attrs]
            for span in self.spans
        ]


def spans_from_rows(rows: Sequence[Sequence], offset: int = 0) -> list[Span]:
    """Inverse of :meth:`Recorder.export`; parents shift by ``offset``."""
    return [
        Span(name, start, end, parent + offset if parent >= 0 else -1, attrs)
        for name, start, end, parent, attrs in rows
    ]


@dataclass(frozen=True)
class Target:
    """One call site: ``owner.attribute`` is recorded as span ``span``."""

    owner: object
    attribute: str
    span: str
    after: CountHook | None = None


def _wrap(recorder: Recorder, function, name: str, after: CountHook | None):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            span = recorder.close(index)
        if after is not None:
            after(span.attrs, args, kwargs, result)
        return result

    return traced


@contextmanager
def installed(recorder: Recorder, targets: Sequence[Target]) -> Iterator[None]:
    """Replace every target with a recording wrapper; restore on exit."""
    originals: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            function = getattr(target.owner, target.attribute)
            originals.append((target.owner, target.attribute, function))
            setattr(
                target.owner,
                target.attribute,
                _wrap(recorder, function, target.span, target.after),
            )
        yield
    finally:
        for owner, attribute, function in reversed(originals):
            setattr(owner, attribute, function)


def children_of(spans: Sequence[Span]) -> list[list[int]]:
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    return children


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run on its thread one after another, so their
    durations do not overlap and their sum is the covered time.
    """
    result = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            result[span.parent] -= span.duration
    return result


def descendants(children: Sequence[Sequence[int]], root: int) -> Iterator[int]:
    stack = list(children[root])
    while stack:
        index = stack.pop()
        yield index
        stack.extend(children[index])


def outermost_totals(
    spans: Sequence[Span], children: Sequence[Sequence[int]], root: int
) -> dict[str, float]:
    """Inclusive time per span name under ``root``, counting only spans
    with no ancestor of the same name (recursion is not double counted)."""
    totals: dict[str, float] = {}
    stack = [(child, frozenset()) for child in children[root]]
    while stack:
        index, ancestors = stack.pop()
        span = spans[index]
        if span.name not in ancestors:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        below = ancestors | {span.name}
        stack.extend((child, below) for child in children[index])
    return totals
