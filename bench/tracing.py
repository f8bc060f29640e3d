"""In-memory span tracing around calls into a package's layer modules.

A Tracer replaces module attributes with wrappers that record one span per
call: its name, start, end, parent span and run id, plus counts read off
the arguments and the result at the same boundary. Spans stay in memory
until the benchmark ends and writes them out. This module knows nothing
about ncglab; the layer list and the counters live in ``layers.py``.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span in Tracer.spans
    run: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def func(self) -> str:
        return self.name.split(".", 1)[1] if "." in self.name else ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; ``run`` tags every new span."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.run = 0
        self._clock = clock
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Open a span; the yielded Span's ``attrs`` may be filled by the caller."""
        sp = Span(name=name, start=self._clock(),
                  parent=self._stack[-1] if self._stack else None, run=self.run)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = self._clock()

    def wrap(self, name: str, fn, annotate=None):
        """A function that runs ``fn`` inside a span; ``annotate(bound_args,
        result)`` returns counts to attach once the call has returned."""
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    sp.attrs.update(annotate(bound.arguments, result))
                return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_records(self) -> list[dict]:
        return [dict(asdict(sp), layer=sp.layer) for sp in self.spans]


def split_runs(spans: list[Span]) -> dict[int, list[Span]]:
    """Spans grouped by run id, each group's parent indices pointing into
    the group. A span's parent always belongs to the same run."""
    groups: dict[int, list[Span]] = {}
    where: dict[int, int] = {}
    for idx, sp in enumerate(spans):
        group = groups.setdefault(sp.run, [])
        where[idx] = len(group)
        group.append(replace(sp, parent=None if sp.parent is None else where[sp.parent]))
    return groups


def children(spans: list[Span]) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in spans]
    for idx, sp in enumerate(spans):
        if sp.parent is not None:
            out[sp.parent].append(idx)
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest without overlap, so the children's durations
    add up to the part of the parent's interval they cover.
    """
    kids = children(spans)
    return [sp.duration - sum(spans[c].duration for c in kids[idx])
            for idx, sp in enumerate(spans)]


def foreign_time(spans: list[Span], idx: int, kids=None) -> float:
    """Time inside span ``idx`` spent in other layers: the outermost
    descendants whose layer differs from the span's own layer."""
    kids = children(spans) if kids is None else kids
    layer = spans[idx].layer
    total = 0.0
    for c in kids[idx]:
        if spans[c].layer != layer:
            total += spans[c].duration
        else:
            total += foreign_time(spans, c, kids)
    return total


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: the sum of self times of the layer's spans."""
    out: dict[str, float] = {}
    for sp, own in zip(spans, self_times(spans)):
        out[sp.layer] = out.get(sp.layer, 0.0) + own
    return out


def is_descendant(spans: list[Span], idx: int, ancestor: int) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if parent == ancestor:
            return True
        parent = spans[parent].parent
    return False
