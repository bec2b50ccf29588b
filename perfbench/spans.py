"""Outside-in host-time span recorder.

A :class:`SpanRecorder` replaces named functions and methods with thin
wrappers that record one span per call: its name, start, end, the span
that was open when it began (its parent) and optional counts taken from
the call's arguments and result.  Nothing inside the program changes;
each name is patched where its caller looks it up, and :meth:`restore`
puts every original object back.

Spans stay in memory while the program runs and are written out once,
by :meth:`SpanRecorder.write`, when the run ends.  A span's self time is
its duration minus the durations of its direct children; calls nest
strictly on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


@dataclass
class Span:
    """One timed call.  ``parent`` indexes the recorder's span list
    (-1 for a root)."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: Optional[dict[str, int]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, covered)]


def roots(spans: list[Span]) -> list[int]:
    """The index of each span's root.  Parents precede their children
    in the list, so one forward pass resolves every span."""
    out: list[int] = []
    for i, span in enumerate(spans):
        out.append(i if span.parent < 0 else out[span.parent])
    return out


@dataclass
class LayerTotal:
    """Aggregate of every span of one name under one root."""

    self_s: float = 0.0
    calls: int = 0
    counts: dict[str, int] = field(default_factory=dict)


def totals_under(spans: list[Span], root: int) -> dict[str, LayerTotal]:
    """Self time, call count and summed counts per span name, over the
    spans under ``root`` (the root itself included)."""
    selfs = self_times(spans)
    out: dict[str, LayerTotal] = {}
    for span, top, own in zip(spans, roots(spans), selfs):
        if top != root:
            continue
        total = out.setdefault(span.name, LayerTotal())
        total.self_s += own
        total.calls += 1
        for key, value in (span.counts or {}).items():
            total.counts[key] = total.counts.get(key, 0) + value
    return out


CountFn = Callable[[tuple, Any], dict[str, int]]
"""``counts(args, result)`` -> counts to attach to the call's span."""


class SpanRecorder:
    """Records spans from wrapped callables; single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.clock(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    # -- patching --------------------------------------------------------

    def _replace(self, owner: Any, attr: str, make: Callable) -> None:
        """Swap ``owner``'s own ``attr`` (a module or class attribute,
        or a dict entry) for ``make(original)``."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
        else:
            original = vars(owner)[attr]
            setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(
        self, owner: Any, attr: str, name: str, counts: Optional[CountFn] = None
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``."""

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(span)
                if counts is not None:
                    span.counts = counts(args, result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def wrap_generator(
        self,
        owner: Any,
        attr: str,
        name: str,
        counts: Optional[Callable[[Any], dict[str, int]]] = None,
    ) -> None:
        """Record a ``name`` span around each step of the generator that
        ``owner.attr`` returns; ``counts(item)`` tallies each item."""

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs) -> Iterator:
                inner = original(*args, **kwargs)
                try:
                    while True:
                        span = self.open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self.close(span)
                        if counts is not None:
                            span.counts = counts(item)
                        yield item
                finally:
                    inner.close()

            return wrapper

        self._replace(owner, attr, make)

    def hook(
        self, owner: Any, attr: str, on_result: Callable[[Any], None]
    ) -> None:
        """Pass every result of ``owner.attr`` to ``on_result``; no span."""

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                on_result(result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON list of
        ``[name, start, end, parent, counts]`` rows."""
        rows = [
            [s.name, s.start, s.end, s.parent, s.counts or {}]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
