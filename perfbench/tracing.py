"""In-memory spans recorded by wrappers the benchmark installs around the program.

The program is never edited: :class:`Tracer.install` replaces a function or
method attribute with a timing wrapper and :meth:`Tracer.uninstall` puts the
original back.  A span records its name, start, end, parent span and trace
id.  The parent comes from a context variable, so spans nest correctly
across asyncio tasks (which copy the context they were created in) and
inside worker threads that open their own root span.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from perfbench.generator import clock

#: Optional hook ``(args, kwargs, result) -> dict`` that attaches attributes
#: (sizes, keys) to a span; it runs after the wrapped call returns.
AttrsHook = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` is timed as span ``name``."""

    owner: object
    attr: str
    name: str
    attrs: Optional[AttrsHook] = None


@dataclass
class Span:
    name: str
    span_id: int
    parent: Optional[int]
    trace_id: object
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; installs and removes the wrappers that make them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans
    @contextlib.contextmanager
    def span(self, name: str, trace_id: object = None) -> Iterator[Span]:
        """Record a span around the ``with`` block; it inherits the current trace id."""
        parent = self._current.get()
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        span = Span(name, next(self._ids), parent.span_id if parent else None, trace_id, clock())
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = clock()
            self._current.reset(token)
            self.spans.append(span)

    def call(self, name: str, function: Callable, *args, trace_id: object = None, **kwargs):
        """Run ``function(*args, **kwargs)`` inside a span named ``name``."""
        with self.span(name, trace_id):
            return function(*args, **kwargs)

    async def acall(self, name: str, awaitable, trace_id: object = None):
        """Await ``awaitable`` inside a span named ``name``."""
        with self.span(name, trace_id):
            return await awaitable

    # --------------------------------------------------------------- wrappers
    def _wrapper(self, original: Callable, target: Target) -> Callable:
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def async_wrapped(*args, **kwargs):
                with self.span(target.name) as span:
                    result = await original(*args, **kwargs)
                if target.attrs is not None:
                    span.attrs.update(target.attrs(args, kwargs, result))
                return result
            return async_wrapped

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            with self.span(target.name) as span:
                result = original(*args, **kwargs)
            if target.attrs is not None:
                span.attrs.update(target.attrs(args, kwargs, result))
            return result
        return wrapped

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target; each attribute must be defined on its owner itself."""
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        try:
            for target in targets:
                original = vars(target.owner)[target.attr]
                setattr(target.owner, target.attr, self._wrapper(original, target))
                self._installed.append((target.owner, target.attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- reports
    def named(self, *names: str) -> List[Span]:
        wanted = set(names)
        return [span for span in self.spans if span.name in wanted]

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                begin, end = max(child.start, reach), min(child.end, span.end)
                if end > begin:
                    covered += end - begin
                    reach = end
            result[span.span_id] = span.duration - covered
        return result

    def has_ancestor(self, span: Span, name: str, index: Dict[int, Span]) -> bool:
        parent = span.parent
        while parent is not None:
            ancestor = index[parent]
            if ancestor.name == name:
                return True
            parent = ancestor.parent
        return False

    def write(self, path: str) -> None:
        """Write every span, with its self time, as one JSON object per line."""
        self_times = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "name": span.name, "trace_id": span.trace_id, "span_id": span.span_id,
                    "parent": span.parent, "start": span.start, "end": span.end,
                    "self_s": self_times[span.span_id],
                    **({"attrs": span.attrs} if span.attrs else {}),
                }, default=str) + "\n")
