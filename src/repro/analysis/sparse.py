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
from repro.analysis.dense import _resolve_thresholds, build_interproc_graph
from repro.analysis.engine import FixpointResult, IntervalCells
from repro.analysis.plan import EnginePlan, prepare_plan, run_plan
from repro.analysis.preanalysis import PreAnalysis
from repro.analysis.schedule import GraphView, widening_points_for
from repro.analysis.semantics import AnalysisContext, transfer
from repro.domains.state import AbsState
from repro.ir.program import Program
from repro.runtime.budget import Budget
from repro.telemetry.core import Telemetry


def prepare_interval_sparse(
    program: Program,
    pre: PreAnalysis,
    *,
    bypass: bool = True,
    strict: bool = True,
    widen: bool = True,
    widening_thresholds: tuple[int, ...] | str | None = None,
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

    return EnginePlan(
        program=program,
        pre=pre,
        domain="interval",
        mode="sparse",
        strict=strict,
        graph=graph,
        entries={},
        transfer=node_transfer,
        state_factory=AbsState,
        wto=wto,
        widening_points=widening_points,
        thresholds=_resolve_thresholds(program, widening_thresholds),
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
    budget, degradation, fault and checkpoint options are
    :func:`~repro.analysis.plan.run_plan`'s.
    """
    return run_plan(
        prepare_plan(
            program,
            pre,
            "interval",
            "sparse",
            bypass=bypass,
            strict=strict,
            widen=widen,
            widening_thresholds=widening_thresholds,
                defuse=defuse,
            dep_result=dep_result,
            telemetry=telemetry,
        ),
        narrowing_passes=narrowing_passes,
        budget=budget,
        max_iterations=max_iterations,
        on_budget=on_budget,
        faults=faults,
        watchdog=watchdog,
        telemetry=telemetry,
        checkpoint=checkpoint,
        resume_from=resume_from,
    )
