"""Analysis runs and serve requests leave no reference cycles, and the
cyclic collector stays paused while they run.

``analyze()`` and each serve request pause CPython's cyclic collector
(:mod:`repro.runtime.collector`). That is safe only because everything they
drop is freed by reference counting: each acyclicity case below runs with
the collector disabled and then asks ``gc.collect()`` how many unreachable
objects the call left behind, which must be none. The assertions use only
``gc.collect()`` counts, ``gc.isenabled()`` and weak references, never the
collector's generation thresholds, which differ between Python versions.

``REPRO_FUZZ_SEEDS`` bounds the number of random programs (CI's fuzz-smoke
job sets it).
"""

from __future__ import annotations

import gc
import json
import os
import sys
import threading

import pytest

from repro.api import analyze
from repro.bench.codegen import default_suite, generate_source, octagon_suite
from repro.checkers import CHECKERS, run_checker
from repro.runtime.budget import Budget
from repro.runtime.collector import collections_counted, collector_paused
from repro.runtime.errors import BudgetExceeded
from repro.runtime.faults import FaultPlan
from repro.server.protocol import handle_request, serve_lines
from repro.server.session import ServeSession
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from tests.conftest import EXAMPLE_FILES, random_spec

N_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "25"))

_SPECS = {spec.name: spec for spec in default_suite() + octagon_suite()}
INTERVAL_SOURCE = generate_source(_SPECS["gzip-mini"])
OCTAGON_SOURCE = generate_source(_SPECS["gzip-oct"])
SERVE_SOURCE = generate_source(_SPECS["bc-mini"])

COMBOS = [
    (domain, mode)
    for domain in ("interval", "octagon")
    for mode in ("sparse", "base", "vanilla")
]


def unreachable_after(call) -> int:
    """Objects ``call()`` left for the cyclic collector: it runs with the
    collector disabled, and ``gc.collect()`` then counts what reference
    counting could not free."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def source_for(domain: str) -> str:
    return INTERVAL_SOURCE if domain == "interval" else OCTAGON_SOURCE


def interrupted_then_resumed(source: str, path: str, **options) -> None:
    try:
        analyze(
            source,
            faults=FaultPlan(trip_budget_at=40),
            checkpoint_path=path,
            checkpoint_every=10,
            **options,
        )
    except BudgetExceeded:
        pass
    else:
        raise AssertionError("the injected budget trip did not fire")
    run = analyze(source, checkpoint_path=path, resume=True, **options)
    assert run.diagnostics.events


class TestAnalysisRunsAreAcyclic:
    @pytest.mark.parametrize("domain,mode", COMBOS)
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"narrowing_passes": 1},
            {"on_budget": "degrade", "budget": Budget(max_iterations=60)},
            {"inline": True},
        ],
        ids=["default", "narrowing", "degrade", "inline"],
    )
    def test_analyze(self, domain, mode, options):
        source = source_for(domain)

        def call():
            analyze(source, domain=domain, mode=mode, **options)

        assert unreachable_after(call) == 0

    def test_degrade_option_degrades(self):
        """The degrade case above really takes the degradation path."""
        run = analyze(
            INTERVAL_SOURCE,
            on_budget="degrade",
            budget=Budget(max_iterations=60),
        )
        assert run.diagnostics.degraded_procs

    @pytest.mark.parametrize("domain,mode", COMBOS)
    def test_checkpoint_then_resume(self, domain, mode, tmp_path):
        path = str(tmp_path / "run.ckpt")

        def call():
            interrupted_then_resumed(
                source_for(domain), path, domain=domain, mode=mode
            )

        assert unreachable_after(call) == 0

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_example_files(self, path):
        def call():
            for domain, mode in COMBOS:
                analyze(
                    path.read_text(),
                    domain=domain,
                    mode=mode,
                    filename=str(path),
                    preprocess_source=True,
                )

        assert unreachable_after(call) == 0

    @pytest.mark.parametrize("seed", [11 * k + 3 for k in range(N_SEEDS)])
    def test_random_programs(self, seed):
        source = generate_source(random_spec(seed))

        def call():
            for domain, mode in COMBOS:
                run = analyze(source, domain=domain, mode=mode)
                if domain == "interval":
                    for name in CHECKERS:
                        run_checker(name, run.program, run.result)

        assert unreachable_after(call) == 0


class TestCheckersAreAcyclic:
    @pytest.mark.parametrize("mode", ["sparse", "vanilla"])
    @pytest.mark.parametrize("name", sorted(CHECKERS))
    def test_run_checker(self, name, mode):
        run = analyze(SERVE_SOURCE, mode=mode)

        def call():
            assert run_checker(name, run.program, run.result)

        assert unreachable_after(call) == 0


class TestServeRequestsAreAcyclic:
    def test_edit_check_octagon_cycles(self):
        session = ServeSession(SERVE_SOURCE)
        procs = ["f1", "f2", "f3"]

        def cycle(i: int) -> None:
            proc = procs[i % len(procs)]
            plus = " + 1" if i % 2 == 0 else ""
            requests = [
                {"op": "edit", "function": proc, "body": f"  return v0 + v1{plus};"},
                {"op": "query", "kind": "check", "proc": proc},
                {
                    "op": "query",
                    "kind": "interval",
                    "domain": "octagon",
                    "proc": proc,
                    "var": "v0",
                },
            ]
            for request in requests:
                reply = json.loads(handle_request(session, json.dumps(request)))
                assert reply["ok"], reply

        # warm the residents: the first cycle builds what the session keeps
        cycle(0)

        def call():
            for i in range(1, 11):
                cycle(i)

        assert unreachable_after(call) == 0
        assert session.generation == 11


class TestCollectorPaused:
    def test_pauses_and_restores(self):
        assert gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_a_caller_that_disabled_it_keeps_it_disabled(self):
        gc.disable()
        try:
            with collector_paused():
                pass
            assert not gc.isenabled()
            analyze(INTERVAL_SOURCE)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_body_that_raises_restores_it(self):
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()
        with pytest.raises(ValueError):
            analyze("int main(void) { return 0; }", domain="nope")
        assert gc.isenabled()
        with pytest.raises(BudgetExceeded):
            analyze(INTERVAL_SOURCE, budget=Budget(max_iterations=5))
        assert gc.isenabled()

    def test_overlapping_pauses_never_leave_it_disabled(self):
        first, second = collector_paused(), collector_paused()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert not gc.isenabled()
        second.__exit__(None, None, None)
        assert gc.isenabled()

    def test_overlapping_threads_never_leave_it_disabled(self):
        inside = threading.Barrier(2)
        leave = threading.Event()
        seen = []

        def worker(order: int) -> None:
            with collector_paused():
                inside.wait(5)
                if order == 0:
                    leave.set()  # the first thread leaves first
                else:
                    leave.wait(5)
                seen.append(gc.isenabled())

        threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert seen == [False, False]
        assert gc.isenabled()

    def test_many_threads_leave_it_enabled(self):
        """A lost update of the shared pause count would leave the
        collector disabled (or enable it under a live pause)."""
        start = threading.Barrier(8)
        errors = []

        def worker() -> None:
            start.wait(5)
            for _ in range(300):
                with collector_paused():
                    if gc.isenabled():
                        errors.append("enabled inside a pause")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert gc.isenabled()

    def test_analyze_runs_paused(self, monkeypatch):
        import repro.api

        states = []
        solve = repro.api.run_plan

        def probed(*args, **kwargs):
            states.append(gc.isenabled())
            return solve(*args, **kwargs)

        monkeypatch.setattr(repro.api, "run_plan", probed)
        analyze(INTERVAL_SOURCE)
        assert states == [False]
        assert gc.isenabled()

    def test_serve_lines_pauses_each_request_and_its_reply(self):
        session = ServeSession(SERVE_SOURCE)
        states = []

        def write(line: str) -> None:
            assert json.loads(line)["ok"]
            states.append(gc.isenabled())

        lines = [
            json.dumps({"op": "query", "kind": "interval", "proc": "f1", "var": "v0"}),
            json.dumps({"op": "ping"}),
        ]
        assert serve_lines(session, lines, write) == 2
        assert states == [False, False]
        assert gc.isenabled()


class TestCollectionsCounted:
    def test_a_traced_run_reports_no_collections(self):
        tel = Telemetry()
        analyze(INTERVAL_SOURCE, narrowing_passes=1, telemetry=tel)
        assert tel.counters["gc.collections"] == 0
        assert tel.counters["gc.seconds"] == 0.0

    def test_forced_collections_are_counted(self):
        tel = Telemetry()
        with collections_counted(tel):
            gc.collect()
            gc.collect()
        assert tel.counters["gc.collections"] == 2
        assert tel.counters["gc.seconds"] > 0.0

    def test_an_untraced_run_registers_no_hook(self):
        callbacks = list(gc.callbacks)
        with collections_counted(NULL_TELEMETRY):
            assert gc.callbacks == callbacks
        with collections_counted(Telemetry()):
            assert len(gc.callbacks) == len(callbacks) + 1
        assert gc.callbacks == callbacks
