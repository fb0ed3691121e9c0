"""Budget exhaustion and graceful degradation across every engine×domain
combination, driven deterministically by the fault-injection harness.

No assertion in this file depends on wall-clock time: budgets are iteration
counts and fault positions are fixed (or derived from fixed seeds)."""

import pytest

from repro.analysis.relational import PackState
from repro.api import analyze
from repro.runtime.budget import Budget
from repro.runtime.degrade import DegradeController, Diagnostics, make_watchdog
from repro.runtime.errors import (
    AnalysisError,
    BudgetExceeded,
    SoundnessViolation,
)
from repro.runtime.faults import FaultPlan

MODES = ["sparse", "base", "vanilla"]
DOMAINS = ["interval", "octagon"]

#: a program with real fixpoint work in several procedures
SRC = """
int g;
int acc;
int step(int k) { acc = acc + k; return acc; }
int loop(int n) {
  int i; int s = 0;
  for (i = 0; i < n; i++) { s = s + i; g = step(s); }
  return s;
}
int main(void) {
  int x = loop(40);
  if (x > 100) g = 0;
  return x;
}
"""

TINY = Budget(max_iterations=4)


def _degraded_states(run):
    """All (nid, state) pairs belonging to degraded procedures."""
    out = []
    for proc in run.diagnostics.degraded_procs:
        cfg = run.program.cfgs.get(proc)
        if cfg is None:
            continue
        for node in cfg.nodes:
            state = run.result.table.get(node.nid)
            if state is not None:
                out.append((node.nid, state))
    return out


class TestBudgetDegradationMatrix:
    """The acceptance matrix: all six engine×domain combinations."""

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("mode", MODES)
    def test_tiny_budget_degrades_and_completes(self, mode, domain):
        run = analyze(SRC, domain=domain, mode=mode, budget=TINY, on_budget="degrade")
        assert run.diagnostics.degraded_procs, "tiny budget must force degradation"
        assert run.diagnostics.iterations > 0
        # every degraded state is ⊑-bounded by the pre-analysis state
        for _nid, state in _degraded_states(run):
            if domain == "interval":
                assert state.leq(run.pre.state)
            else:
                assert state.leq(PackState())  # ⊤: no relation claimed
        # queries still answer (soundly, from the pre-analysis bound)
        itv = run.interval_at_exit("main", "g")
        assert not itv.is_bottom()

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("mode", MODES)
    def test_tiny_budget_fail_mode_raises(self, mode, domain):
        with pytest.raises(BudgetExceeded):
            analyze(SRC, domain=domain, mode=mode, budget=TINY, on_budget="fail")

    def test_degraded_result_overapproximates_full_result(self):
        full = analyze(SRC, mode="sparse")
        degraded = analyze(SRC, mode="sparse", budget=TINY, on_budget="degrade")
        for proc, var in [("main", "g"), ("main", "x"), ("loop", "s")]:
            exact = full.interval_at_exit(proc, var)
            coarse = degraded.interval_at_exit(proc, var)
            assert exact.leq(coarse), f"{proc}:{var}: {exact} ⊄ {coarse}"

    def test_degradation_is_deterministic(self):
        a = analyze(SRC, mode="sparse", budget=TINY, on_budget="degrade")
        b = analyze(SRC, mode="sparse", budget=TINY, on_budget="degrade")
        assert a.diagnostics.degraded_procs == b.diagnostics.degraded_procs
        assert a.interval_at_exit("main", "g") == b.interval_at_exit("main", "g")


class TestFaultInjectionPaths:
    """Deterministically exercise crash, budget-trip, and dropped-dependency
    paths in all three engines."""

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("mode", MODES)
    def test_transfer_crash_degrades_one_proc(self, mode, domain):
        run = analyze(
            SRC,
            domain=domain,
            mode=mode,
            on_budget="degrade",
            faults=FaultPlan(crash_transfer_at=12),
        )
        assert run.diagnostics.degraded_procs
        # only the crashing procedure (plus possibly its dependents) degrades;
        # the run still completes and answers queries
        assert not run.interval_at_exit("main", "x").is_bottom()

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("mode", MODES)
    def test_transfer_crash_fail_mode_raises_analysis_error(self, mode, domain):
        with pytest.raises(AnalysisError):
            analyze(
                SRC,
                domain=domain,
                mode=mode,
                on_budget="fail",
                faults=FaultPlan(crash_transfer_at=12),
            )

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("mode", MODES)
    def test_injected_budget_trip(self, mode, domain):
        plan = FaultPlan(trip_budget_at=6)
        with pytest.raises(BudgetExceeded) as err:
            analyze(SRC, domain=domain, mode=mode, on_budget="fail", faults=plan)
        assert err.value.kind == "fault"
        run = analyze(SRC, domain=domain, mode=mode, on_budget="degrade", faults=plan)
        assert run.diagnostics.degraded_procs

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_dropped_dependency_edge(self, domain):
        inj = FaultPlan(drop_dep_push_at=3).injector()
        run = analyze(SRC, domain=domain, mode="sparse", faults=inj)
        assert "drop_dep_push" in inj.fired
        assert run.result.table  # run completed despite the lost edge

    def test_seeded_plan_reproduces(self):
        plan = FaultPlan.seeded(7, crash_transfer=True)
        runs = [
            analyze(SRC, mode="sparse", on_budget="degrade", faults=plan)
            for _ in range(2)
        ]
        assert (
            runs[0].diagnostics.degraded_procs == runs[1].diagnostics.degraded_procs
        )


class TestModeValidation:
    @pytest.mark.parametrize(
        "budget", [None, Budget(max_iterations=5)], ids=["no-budget", "budget"]
    )
    def test_unknown_mode_rejected_before_any_work(self, budget):
        with pytest.raises(ValueError, match="unknown mode 'nope'"):
            analyze(SRC, mode="nope", budget=budget)
        # checked before the frontend too: no parse error surfaces first
        with pytest.raises(ValueError, match="unknown mode 'nope'"):
            analyze("int main(", mode="nope", budget=budget)

    def test_pre_is_not_a_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'pre'"):
            analyze(SRC, mode="pre")


class TestSoundnessWatchdog:
    def test_watchdog_rejects_unbounded_fallback(self):
        from repro.domains.absloc import VarLoc
        from repro.domains.state import AbsState
        from repro.domains.value import AbsValue
        from repro.ir.program import build_program

        program = build_program(SRC)
        bound = AbsState()
        bound.set(VarLoc("g", None), AbsValue.of_const(1))
        bad = AbsState()
        bad.set(VarLoc("g", None), AbsValue.top())  # strictly above the bound
        controller = DegradeController(
            program,
            fallback_state=lambda proc: bad,
            diagnostics=Diagnostics(),
            watchdog=make_watchdog(bound),
        )
        with pytest.raises(SoundnessViolation):
            controller.degrade_proc("main", {})

    def test_watchdog_passes_in_degrade_runs(self):
        # watchdog=True is the default; a degrading run must not trip it
        run = analyze(SRC, mode="sparse", budget=TINY, on_budget="degrade")
        assert run.diagnostics.degraded_procs


class TestNarrowingBudget:
    """Satellite: narrowing passes count against the iteration budget."""

    def test_narrowing_charged_to_budget(self):
        from repro.analysis.engine import CfgSpace, FixpointEngine
        from repro.domains.absloc import VarLoc
        from repro.domains.state import AbsState
        from repro.domains.value import AbsValue

        X = VarLoc("x", None)
        succs = {1: [2], 2: [3], 3: []}
        preds = {1: [], 2: [1], 3: [2]}

        def transfer(nid, s):
            out = s.copy()
            out.set(X, AbsValue.of_const(nid))
            return out

        # Main loop needs 3 iterations; the budget allows 4, so the first
        # narrowing pass (3 more node visits) must trip it.
        engine = FixpointEngine(
            CfgSpace(succs, preds, {1: AbsState()}),
            transfer,
            set(),
            narrowing_passes=5,
            budget=Budget(max_iterations=4),
        )
        with pytest.raises(BudgetExceeded):
            engine.solve()

    def test_narrowing_within_budget_completes(self):
        from repro.analysis.engine import CfgSpace, FixpointEngine
        from repro.domains.absloc import VarLoc
        from repro.domains.state import AbsState
        from repro.domains.value import AbsValue

        X = VarLoc("x", None)
        succs = {1: [2], 2: []}
        preds = {1: [], 2: [1]}

        def transfer(nid, s):
            out = s.copy()
            out.set(X, AbsValue.of_const(1))
            return out

        engine = FixpointEngine(
            CfgSpace(succs, preds, {1: AbsState()}),
            transfer,
            set(),
            narrowing_passes=2,
            budget=Budget(max_iterations=50),
        )
        table = engine.solve()
        assert 1 in table and 2 in table


class TestLookupMemoization:
    """Satellite: _reaching_lookup memoizes per (nid, key)."""

    def test_repeated_queries_hit_the_cache(self):
        run = analyze(SRC, mode="sparse")
        first = run.interval_at_exit("main", "g")
        cache_size = len(run._lookup_cache)
        assert cache_size > 0
        second = run.interval_at_exit("main", "g")
        assert second == first
        assert len(run._lookup_cache) == cache_size  # no re-walk, no growth

    def test_cache_distinguishes_nodes_and_keys(self):
        run = analyze(SRC, mode="sparse")
        run.interval_at_exit("main", "g")
        run.interval_at_exit("loop", "s")
        keys = {k for k in run._lookup_cache}
        assert len(keys) >= 2
