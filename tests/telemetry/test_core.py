"""Telemetry registry invariants: span nesting/balance, the disabled
no-op fast path, coercion, counters/gauges, and the FixpointStats merge."""

import threading

import pytest

from repro.analysis.engine import FixpointStats
from repro.analysis.schedule import SchedulerStats
from repro.telemetry import NULL_TELEMETRY, PHASES, Telemetry
from repro.telemetry.core import _NULL_SPAN


class TestSpanNesting:
    def test_single_span_becomes_root(self):
        tel = Telemetry()
        with tel.span("fixpoint"):
            pass
        assert [s.name for s in tel.roots] == ["fixpoint"]
        assert tel.open_spans() == 0

    def test_children_attach_to_enclosing_span(self):
        tel = Telemetry()
        with tel.span("frontend"):
            with tel.span("parse"):
                pass
            with tel.span("lower"):
                pass
        (root,) = tel.roots
        assert [c.name for c in root.children] == ["parse", "lower"]
        assert root.children[0].children == []

    def test_siblings_stay_roots(self):
        tel = Telemetry()
        for name in PHASES:
            with tel.span(name):
                pass
        assert [s.name for s in tel.roots] == list(PHASES)

    def test_walk_is_preorder(self):
        tel = Telemetry()
        with tel.span("a"):
            with tel.span("b"):
                with tel.span("c"):
                    pass
            with tel.span("d"):
                pass
        (root,) = tel.roots
        assert [s.name for s in root.walk()] == ["a", "b", "c", "d"]

    def test_durations_nonnegative_and_nested_within_parent(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                sum(range(1000))
        (outer,) = tel.roots
        (inner,) = outer.children
        assert outer.wall >= inner.wall >= 0.0
        assert outer.cpu >= 0.0
        assert outer.start <= inner.start

    def test_balance_recovers_from_out_of_order_exit(self):
        """Exiting a span while a child is still open (an instrumentation
        bug) unwinds the stack instead of corrupting the tree."""
        tel = Telemetry()
        outer = tel.span("outer")
        inner = tel.span("inner")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)  # inner never exited
        assert tel.open_spans() == 0
        assert [s.name for s in tel.roots] == ["outer"]

    def test_exception_still_closes_span(self):
        tel = Telemetry()
        with pytest.raises(ValueError):
            with tel.span("fixpoint"):
                raise ValueError("boom")
        assert tel.open_spans() == 0
        assert len(tel.roots) == 1

    def test_per_thread_stacks(self):
        tel = Telemetry()
        done = threading.Event()

        def worker():
            with tel.span("worker-phase"):
                done.wait(timeout=5)

        t = threading.Thread(target=worker)
        with tel.span("main-phase"):
            t.start()
            done.set()
            t.join()
        names = {s.name for s in tel.roots}
        assert names == {"main-phase", "worker-phase"}
        worker_span = next(s for s in tel.roots if s.name == "worker-phase")
        main_span = next(s for s in tel.roots if s.name == "main-phase")
        assert worker_span.tid != main_span.tid


class TestDisabledFastPath:
    def test_null_singleton_is_disabled(self):
        assert NULL_TELEMETRY.enabled is False

    def test_span_returns_shared_null_handle(self):
        tel = Telemetry(enabled=False)
        assert tel.span("fixpoint") is _NULL_SPAN
        assert tel.span("other", category="x", attr=1) is _NULL_SPAN

    def test_disabled_records_nothing(self):
        tel = Telemetry(enabled=False)
        with tel.span("fixpoint") as sp:
            sp.set(iterations=9)
        tel.count("c", 5)
        tel.gauge("g", 1.0)
        tel.gauge_max("m", 2.0)
        tel.merge_fixpoint_stats(FixpointStats())
        assert tel.roots == []
        assert tel.counters == {}
        assert tel.gauges == {}

    def test_disabled_span_allocates_nothing(self):
        """The no-op handle is one shared object: a million disabled spans
        must not grow memory (the zero-overhead claim of ISSUE 4)."""
        import tracemalloc

        tel = Telemetry(enabled=False)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10_000):
                with tel.span("hot"):
                    pass
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 64_000  # interpreter noise only


class TestCoerce:
    def test_none_and_false_coerce_to_shared_null(self):
        assert Telemetry.coerce(None) is NULL_TELEMETRY
        assert Telemetry.coerce(False) is NULL_TELEMETRY

    def test_true_coerces_to_fresh_enabled(self):
        a = Telemetry.coerce(True)
        b = Telemetry.coerce(True)
        assert a.enabled and b.enabled and a is not b

    def test_instance_passes_through(self):
        tel = Telemetry()
        assert Telemetry.coerce(tel) is tel

    def test_garbage_raises(self):
        with pytest.raises(TypeError):
            Telemetry.coerce("yes")


class TestCountersAndGauges:
    def test_counters_are_monotonic_sums(self):
        tel = Telemetry()
        tel.count("dep.generated", 3)
        tel.count("dep.generated", 4)
        tel.count("dep.generated")
        assert tel.counters["dep.generated"] == 8

    def test_gauge_last_write_wins(self):
        tel = Telemetry()
        tel.gauge("pre.rounds", 3)
        tel.gauge("pre.rounds", 2)
        assert tel.gauges["pre.rounds"] == 2

    def test_gauge_max_keeps_maximum(self):
        tel = Telemetry()
        tel.gauge_max("mem.peak_bytes", 100)
        tel.gauge_max("mem.peak_bytes", 50)
        tel.gauge_max("mem.peak_bytes", 300)
        assert tel.gauges["mem.peak_bytes"] == 300


class TestMergeFixpointStats:
    def _stats(self, iterations=7, visited=(1, 2, 3)):
        stats = FixpointStats()
        stats.iterations = iterations
        stats.visited = set(visited)
        stats.max_worklist = 11
        stats.dep_count = 40
        stats.raw_dep_count = 90
        stats.reachable_nodes = 3
        return stats

    def test_counters_and_gauges_land(self):
        tel = Telemetry()
        tel.merge_fixpoint_stats(self._stats())
        assert tel.counters["fixpoint.iterations"] == 7
        assert tel.counters["fixpoint.visited_nodes"] == 3
        assert tel.gauges["fixpoint.max_worklist"] == 11
        assert tel.gauges["dep.count"] == 40
        assert tel.gauges["dep.raw_count"] == 90
        assert tel.gauges["fixpoint.reachable_nodes"] == 3

    def test_two_merges_accumulate_counters(self):
        """Iterations sum across engine runs (e.g. main fixpoint of several
        procedures or repeated solves) — they are counters, not gauges."""
        tel = Telemetry()
        tel.merge_fixpoint_stats(self._stats(iterations=7))
        tel.merge_fixpoint_stats(self._stats(iterations=5))
        assert tel.counters["fixpoint.iterations"] == 12

    def test_scheduler_stats_merge(self):
        tel = Telemetry()
        sched = SchedulerStats()
        sched.pops = 20
        sched.revisits = 6
        sched.inversions = 1
        sched.widening_points = 2
        sched.join_cache_hits = 10
        sched.join_cache_misses = 4
        tel.merge_fixpoint_stats(self._stats(), sched)
        assert tel.counters["sched.pops"] == 20
        assert tel.counters["sched.revisits"] == 6
        assert tel.counters["value.join_cache_hits"] == 10
        assert tel.gauges["sched.widening_points"] == 2
        assert "sched.scheduler" not in tel.gauges


class TestMemoryTracking:
    def test_peak_recorded_on_span_exit(self):
        tel = Telemetry(track_memory=True)
        try:
            with tel.span("fixpoint"):
                _ballast = [0] * 50_000
            assert tel.roots[0].peak_bytes is not None
            assert tel.roots[0].peak_bytes > 0
            assert tel.gauges["mem.peak_bytes"] >= tel.roots[0].peak_bytes * 0
        finally:
            tel.close()

    def test_close_is_idempotent(self):
        tel = Telemetry(track_memory=True)
        with tel.span("p"):
            pass
        tel.close()
        tel.close()
