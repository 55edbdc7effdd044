"""Wall-clock spans recorded from the benchmark's own code.

The traced run rebinds the module attributes that library callers look
up (``repro.core.embedding.run_kernel``, ``KernelMemo.get``, ...) to
wrappers that record one span per call, then restores them.  Spans are
kept in memory; :func:`fold_layers` turns them into per-layer call
counts, self time and summed attributes.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Children of one parent never overlap in a
single-threaded run, but the fold takes the union anyway so that a
malformed trace cannot produce negative self time.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator


@dataclass(slots=True)
class Span:
    """One timed call: name, start/end (perf_counter seconds), parent id."""

    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict[str, Any] = field(default_factory=dict)


#: ``(result, args, kwargs) -> attrs`` for a wrapped call.
AttrFn = Callable[[Any, tuple, dict], dict[str, Any]]


class Tracer:
    """Records nested spans and owns the attribute patches that emit them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, parent, perf_counter())
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str,
             attrs: AttrFn | None = None) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:
                record.attrs.update(attrs(result, args, kwargs))
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str,
              attrs: AttrFn | None = None) -> None:
        """Trace ``owner.attr`` until :meth:`restore`.

        For a module, every loaded ``repro`` module that imported the
        same function object is rebound too, since callers look the name
        up in their own module.  For a class, the class attribute is
        rebound, which every instance and subclass resolves through.
        """
        original = getattr(owner, attr)
        traced = self.wrap(original, name, attrs)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module for key, module in list(sys.modules.items())
                if (key == "repro" or key.startswith("repro."))
                and module is not owner
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, traced)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
        for s in spans
    }


@dataclass
class LayerTotals:
    """One span name's folded totals."""

    calls: int = 0
    self_s: float = 0.0
    attrs: dict[str, float] = field(default_factory=dict)


def fold_layers(spans: Iterable[Span]) -> dict[str, LayerTotals]:
    """Span name -> call count, summed self time and summed numeric attrs."""
    spans = list(spans)
    own = self_times(spans)
    layers: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s in spans:
        layer = layers[s.name]
        layer.calls += 1
        layer.self_s += own[s.id]
        for key, value in s.attrs.items():
            layer.attrs[key] = layer.attrs.get(key, 0) + value
    return dict(layers)
