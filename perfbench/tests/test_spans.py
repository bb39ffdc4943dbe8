"""Self-time arithmetic, span nesting and reversible wrapping."""

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spans  # noqa: E402


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > a1 [2, 3]; root > b [6, 9]
    rec = spans.Recorder(scripted_clock([0, 1, 2, 3, 5, 6, 9, 10]))
    root = rec.open("root")
    a = rec.open("a")
    a1 = rec.open("a1")
    rec.close(a1)
    rec.close(a)
    b = rec.open("b")
    rec.close(b)
    rec.close(root)
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert spans.self_times(rec.spans) == [10 - 4 - 3, 4 - 1, 1, 3]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    s = [spans.Span("p", 0.0, 10.0, None, None),
         spans.Span("c1", 1.0, 5.0, 0, None),
         spans.Span("c2", 3.0, 7.0, 0, None),     # overlaps c1: union [1, 7]
         spans.Span("c3", 9.0, 12.0, 0, None)]    # clipped to [9, 10]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_spans_record_the_current_step():
    rec = spans.Recorder(scripted_clock(range(10)))
    rec.step = 4
    idx = rec.open("x")
    rec.close(idx)
    assert rec.spans[0].step == 4 and rec.spans[0].duration == 1


def test_closing_out_of_order_is_an_error():
    rec = spans.Recorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError, match="out of order"):
        rec.close(outer)


def test_wrap_passes_results_and_closes_span_on_error():
    rec = spans.Recorder()

    def boom():
        raise ValueError("x")

    assert rec.wrap("ok", lambda v: v + 1)(1) == 2
    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert [s.name for s in rec.spans] == ["ok", "boom"]
    assert all(s.end is not None for s in rec.spans)


def test_patcher_restores_module_functions_and_class_methods():
    mod = types.ModuleType("fake_mod")

    def f():
        return 1

    class C:
        def m(self):
            return 2

    mod.f, mod.C = f, C
    C.__module__ = "fake_mod"
    before = spans.namespace_snapshot([mod])
    with spans.Patcher() as p:
        p.wrap(mod, "f", lambda fn: lambda: fn() + 10)
        p.wrap(C, "m", lambda fn: lambda self: fn(self) + 20)
        assert mod.f() == 11 and C().m() == 22
        assert spans.changed_names(before, [mod]) == ["fake_mod.C.m", "fake_mod.f"]
    assert mod.f is f and C.__dict__["m"] is C.m
    assert spans.changed_names(before, [mod]) == []


def test_instrumented_names_are_restored():
    from perfbench import workloads as wl

    before = spans.namespace_snapshot(wl.PATCHED_MODULES)
    with spans.Patcher() as p:
        wl.instrument(p, spans.Recorder())
        assert len(spans.changed_names(before, wl.PATCHED_MODULES)) > 30
    assert spans.changed_names(before, wl.PATCHED_MODULES) == []


def test_tail_keeps_ten_samples_above():
    from perfbench import workloads as wl

    samples = list(range(1, 41))     # 40 samples
    value, pct = wl.tail(samples)
    assert value == 30 and sum(s > value for s in samples) == 10 and pct == 75
    assert wl.tail(list(range(10))) == (None, None)
