"""Self-time fold and tracer tests (run with ``python -m pytest perfbench``)."""

import types

import pytest

from spans import Span, Tracer, fold_layers, self_times


def _span(id, name, parent, start, end, **attrs):
    return Span(id, name, parent, start, end, attrs)


def test_nested_spans_subtract_only_direct_children():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "child", 0, 2.0, 5.0),
        _span(2, "grandchild", 1, 3.0, 4.0),
    ]
    assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_overlapping_children_are_covered_once():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 3.0, 6.0),
        _span(3, "c", 0, 6.0, 7.0),
    ]
    # union of [1,4], [3,6], [6,7] is [1,7]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_children_are_clipped_to_the_parent_interval():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "late", 0, 8.0, 12.0),
        _span(2, "early", 0, -3.0, 1.0),
    ]
    assert self_times(spans)[0] == pytest.approx(7.0)


def test_fold_layers_sums_calls_self_time_and_attrs():
    spans = [
        _span(0, "loop", None, 0.0, 10.0, queries=100),
        _span(1, "curve", 0, 1.0, 2.0),
        _span(2, "curve", 0, 4.0, 6.0),
        _span(3, "loop", None, 20.0, 25.0, queries=50),
    ]
    layers = fold_layers(spans)
    assert layers["curve"].calls == 2
    assert layers["curve"].self_s == pytest.approx(3.0)
    assert layers["loop"].calls == 2
    assert layers["loop"].self_s == pytest.approx(7.0 + 5.0)
    assert layers["loop"].attrs == {"queries": 150}


def test_patch_records_nested_spans_and_restore_undoes_it():
    module = types.ModuleType("fake")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2

    class Box:
        def get(self):
            return 7

    original_inner, original_get = module.inner, Box.get
    tracer = Tracer()
    tracer.patch(module, "inner", "inner", lambda r, a, k: {"arg": a[0]})
    tracer.patch(module, "outer", "outer")
    tracer.patch(Box, "get", "get")
    assert module.outer(3) == 8
    assert Box().get() == 7
    tracer.restore()

    assert module.inner is original_inner and Box.get is original_get
    outer, inner, get = tracer.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert (inner.name, inner.parent, inner.attrs) == ("inner", 0, {"arg": 3})
    assert (get.name, get.parent) == ("get", None)
    assert outer.start <= inner.start <= inner.end <= outer.end
