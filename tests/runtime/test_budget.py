"""Unit tests for the unified Budget / BudgetMeter."""

import pytest

from repro.runtime.budget import Budget, BudgetMeter
from repro.runtime.errors import (
    AnalysisError,
    BudgetExceeded,
    ReproError,
    SoundnessViolation,
)


class FakeClock:
    """Deterministic stand-in for perf_counter."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestBudget:
    def test_unlimited_by_default(self):
        assert Budget().is_unlimited()
        assert not Budget(max_iterations=5).is_unlimited()

    def test_coerce_prefers_explicit_budget(self):
        explicit = Budget(max_iterations=7)
        assert Budget.coerce(explicit, max_iterations=99) is explicit

    def test_coerce_wraps_legacy_knobs(self):
        budget = Budget.coerce(None, max_iterations=3, max_seconds=1.5)
        assert budget.max_iterations == 3
        assert budget.max_seconds == 1.5

    def test_coerce_none_when_no_limits(self):
        assert Budget.coerce(None) is None


class TestBudgetMeter:
    def test_iteration_cap_is_exact(self):
        meter = Budget(max_iterations=3).meter("t")
        for _ in range(3):
            meter.tick()
        with pytest.raises(BudgetExceeded) as err:
            meter.tick()
        assert err.value.kind == "iterations"
        assert err.value.limit == 3

    def test_wall_clock_checked_amortized(self):
        clock = FakeClock()
        meter = BudgetMeter(
            Budget(max_seconds=10.0, check_every=4), stage="t", clock=clock
        )
        meter.tick()
        clock.now = 100.0  # already past the deadline...
        meter.tick()
        meter.tick()  # ...but ticks 2 and 3 skip the probe
        with pytest.raises(BudgetExceeded) as err:
            meter.tick()  # tick 4 probes
        assert err.value.kind == "wall_clock"

    def test_state_size_cap(self):
        meter = BudgetMeter(
            Budget(max_state_entries=10, check_every=2), stage="t"
        )
        meter.tick(lambda: 50)  # odd tick: no probe
        with pytest.raises(BudgetExceeded) as err:
            meter.tick(lambda: 50)
        assert err.value.kind == "state_size"
        assert err.value.spent == 50

    def test_unlimited_meter_never_raises(self):
        meter = BudgetMeter(None, stage="t")
        for _ in range(1000):
            meter.tick()
        assert meter.iterations == 1000

    def test_stage_named_in_message(self):
        meter = Budget(max_iterations=1).meter("octagon fixpoint")
        meter.tick()
        with pytest.raises(BudgetExceeded, match="octagon fixpoint"):
            meter.tick()


class TestExceptionHierarchy:
    def test_budget_exceeded_is_analysis_and_repro_error(self):
        assert issubclass(BudgetExceeded, AnalysisError)
        assert issubclass(BudgetExceeded, ReproError)

    def test_frontend_error_joined_the_hierarchy(self):
        from repro.frontend.errors import FrontendError, ParseError

        assert issubclass(FrontendError, ReproError)
        assert issubclass(ParseError, ReproError)

    def test_soundness_violation_is_analysis_error(self):
        assert issubclass(SoundnessViolation, AnalysisError)

    def test_parse_error_caught_as_repro_error(self):
        from repro.api import analyze

        with pytest.raises(ReproError):
            analyze("int main( {")
