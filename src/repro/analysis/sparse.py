"""Sparse interval analysis (Section 2.7) — a configuration of the engine.

Computes ``lfp F♯_s`` where::

    F♯_s(X)(c) = f♯_c( ⊔_{cd —l→ c} X(cd)|l )

Values propagate along data dependencies instead of control-flow edges: a
node's input state is assembled from exactly the locations its dependencies
carry, and whenever the output value of a carried location changes, only the
dependent nodes re-run.

The propagation mechanics — push-based input caches, the control-graph
reachability bit, bypass-aware dependency edges — live in
:class:`repro.analysis.engine.DepGraphSpace` (with
:class:`~repro.analysis.engine.IntervalCells` as the bottom-default cell
strategy); this module wires it to the interval transfer functions and the
dependency generator. Widening happens at the control graph's WTO heads —
the same :func:`~repro.analysis.schedule.widening_points_for` selection the
dense engine uses; dependency generation cuts chains there (see
``repro.analysis.datadep``) so both engines widen on identical per-location
streams.
"""

from __future__ import annotations

import time

from repro.analysis.datadep import DataDepResult, generate_datadeps
from repro.analysis.defuse import DefUseInfo, compute_defuse
from repro.analysis.dense import (
    EnginePlan,
    _resolve_thresholds,
    build_interproc_graph,
)
from repro.analysis.engine import (
    DepGraphSpace,
    FixpointEngine,
    FixpointResult,
    FixpointStats,
    IntervalCells,
)
from repro.analysis.preanalysis import PreAnalysis, run_preanalysis
from repro.analysis.schedule import GraphView, widening_points_for
from repro.analysis.semantics import AnalysisContext, transfer
from repro.ir.program import Program
from repro.runtime.budget import Budget
from repro.runtime.degrade import DegradeController, Diagnostics, make_watchdog
from repro.runtime.faults import FaultInjector
from repro.telemetry.core import Telemetry

#: Legacy aliases — the sparse engine shares the unified result surface.
SparseStats = FixpointStats
SparseResult = FixpointResult


def prepare_interval_sparse(
    program: Program,
    pre: PreAnalysis,
    *,
    bypass: bool = True,
    strict: bool = True,
    widen: bool = True,
    widening_thresholds: tuple[int, ...] | str | None = None,
    widening_delay: int = 0,
    defuse: DefUseInfo | None = None,
    dep_result: DataDepResult | None = None,
    telemetry=None,
) -> EnginePlan:
    """Build the plan for ``Interval_sparse``: control graph, WTO, D̂/Û,
    and dependency generation (the Dep phase) — everything up to, but not
    including, fixpoint iteration."""
    tel = Telemetry.coerce(telemetry)
    t1 = time.perf_counter()
    with tel.span("dep-gen", bypass=bypass):
        graph = build_interproc_graph(program, pre.site_callees, localized=False)
        # Widening points come from the *control* graph's WTO (shared with
        # the dense engine) and must exist before dependency generation,
        # which cuts dependency chains at them.
        wto, widening_points = widening_points_for(
            GraphView((program.entry_node().nid,), graph.succs), widen
        )
        if defuse is None:
            defuse = compute_defuse(program, pre)
        if dep_result is None:
            dep_result = generate_datadeps(
                program,
                pre,
                defuse,
                bypass=bypass,
                widening_points=widening_points,
                telemetry=tel,
            )
    time_dep = time.perf_counter() - t1

    ctx = AnalysisContext(program, pre.site_callees, strict=strict)
    node_map = program.factory.nodes

    def node_transfer(nid, state):
        return transfer(node_map[nid], state, ctx)

    from repro.domains.state import AbsState

    return EnginePlan(
        program=program,
        pre=pre,
        domain="interval",
        mode="sparse",
        strict=strict,
        widen=widen,
        graph=graph,
        entries={},
        transfer=node_transfer,
        state_factory=AbsState,
        wto=wto,
        widening_points=widening_points,
        thresholds=_resolve_thresholds(program, widening_thresholds),
        widening_delay=widening_delay,
        entry_nid=program.entry_node().nid,
        node_ids=tuple(node_map.keys()),
        deps=dep_result.deps,
        cells_factory=IntervalCells,
        dep_count=len(dep_result.deps),
        raw_dep_count=dep_result.raw_dep_count,
        defuse=defuse,
        ctx=ctx,
        time_dep=time_dep,
    )


def run_sparse(
    program: Program,
    pre: PreAnalysis | None = None,
    defuse: DefUseInfo | None = None,
    dep_result: DataDepResult | None = None,
    bypass: bool = True,
    strict: bool = True,
    widen: bool = True,
    narrowing_passes: int = 0,
    max_iterations: int | None = None,
    widening_thresholds: tuple[int, ...] | str | None = None,
    budget: Budget | None = None,
    on_budget: str = "fail",
    faults=None,
    watchdog: bool = True,
    widening_delay: int = 0,
    telemetry=None,
    checkpoint=None,
    resume_from=None,
) -> FixpointResult:
    """Run the sparse interval analysis end to end: pre-analysis → D̂/Û →
    data dependencies → sparse fixpoint (the three phases whose times the
    paper reports as Dep and Fix).

    ``strict``/``widen`` mirror :func:`repro.analysis.dense.run_dense`; with
    ``strict=False, widen=False`` the result equals the dense analysis
    exactly (Lemma 2) on programs with finite abstract chains. The
    resilience knobs (``budget``, ``on_budget``, ``faults``, ``watchdog``)
    also mirror :func:`run_dense`.
    """
    if on_budget not in ("fail", "degrade"):
        raise ValueError(f"on_budget must be 'fail' or 'degrade', not {on_budget!r}")
    tel = Telemetry.coerce(telemetry)

    t0 = time.perf_counter()
    if pre is None:
        pre = run_preanalysis(program, telemetry=tel)
    time_pre = time.perf_counter() - t0

    plan = prepare_interval_sparse(
        program,
        pre,
        bypass=bypass,
        strict=strict,
        widen=widen,
        widening_thresholds=widening_thresholds,
        widening_delay=widening_delay,
        defuse=defuse,
        dep_result=dep_result,
        telemetry=tel,
    )

    t2 = time.perf_counter()
    resolved_budget = Budget.coerce(budget, max_iterations=max_iterations)
    diagnostics = Diagnostics(budget=resolved_budget)
    degrade = None
    if on_budget == "degrade":
        pre_state = pre.state
        degrade = DegradeController(
            program,
            fallback_state=lambda proc: pre_state.copy(),
            diagnostics=diagnostics,
            watchdog=make_watchdog(pre_state) if watchdog else None,
        )

    space = plan.make_program_space()
    engine = FixpointEngine(
        space,
        plan.transfer,
        plan.widening_points,
        widening_thresholds=plan.thresholds,
        widening_delay=plan.widening_delay,
        narrowing_passes=narrowing_passes,
        budget=resolved_budget,
        stage="sparse fixpoint",
        faults=FaultInjector.coerce(faults),
        degrade=degrade,
        priority=plan.wto.priority,
        telemetry=tel,
        checkpointer=checkpoint,
    )
    if resume_from is not None:
        engine.restore(resume_from)
    table = engine.solve()
    stats = engine.stats
    stats.time_pre = time_pre
    stats.time_dep = plan.time_dep
    stats.time_fix = time.perf_counter() - t2
    stats.dep_count = plan.dep_count
    stats.raw_dep_count = plan.raw_dep_count
    diagnostics.iterations = stats.iterations
    diagnostics.timings.update(
        pre=stats.time_pre, dep=stats.time_dep, fix=stats.time_fix
    )
    if engine.scheduler_stats is not None:
        diagnostics.scheduler = engine.scheduler_stats.as_dict()

    return FixpointResult(
        table,
        stats,
        pre=pre,
        defuse=plan.defuse,
        deps=plan.deps,
        graph=plan.graph,
        elapsed=stats.time_total,
        diagnostics=diagnostics,
        scheduler_stats=engine.scheduler_stats,
    )
