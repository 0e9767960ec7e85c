"""In-memory span recorder that wraps named functions of the program.

A span has a name, start and end times, the index of the span that was open
when it began (its parent) and the id of the request it belongs to. Spans
are kept in a list while the program runs and written out once at the end.

``Tracer.installed(points)`` replaces each ``(owner, attribute)`` with a
wrapper that records a span, and puts every original back on exit, also when
the traced code raises. Modules import functions by name, so a point names the
place where the caller looks the function up (``stgormer.model.moe_forward``),
not the module that defines it.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import resource
import time
import tracemalloc
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Point:
    """One function to wrap: ``owner`` is a dotted module or class path.

    ``memory`` records the minor page faults taken during the call and, while
    tracemalloc is tracing, the bytes allocated by the call and still live
    after it. ``counter(args)`` returns extra counts to store on the span
    (for example the FLOPs of the call).
    """

    owner: str
    attribute: str
    name: str
    memory: bool = False
    counter: object = None


def resolve_owner(path: str):
    """Import a module path, or a module path followed by class names."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of its interval that its children cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, cursor)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._open: list[int] = []

    def wrap(self, point: Point, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else None
            span = Span(point.name, 0.0, 0.0, parent, tracer.request)
            tracer.spans.append(span)
            tracer._open.append(index)
            if point.counter is not None:
                span.attrs.update(point.counter(args))
            if point.memory:
                faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                live0 = (tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing()
                         else None)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            if point.memory:
                span.attrs["minflt"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0)
                if live0 is not None:
                    span.attrs["retained_bytes"] = tracemalloc.get_traced_memory()[0] - live0
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, points):
        """Wrap every point for the duration of the block, then restore."""
        saved = []
        try:
            for point in points:
                owner = resolve_owner(point.owner)
                original = vars(owner)[point.attribute]
                saved.append((owner, point.attribute, original))
                setattr(owner, point.attribute, self.wrap(point, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
