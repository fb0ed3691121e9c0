"""Engine plans and the one plan runner.

An :class:`EnginePlan` is everything a fixpoint run needs, built once per
engine×domain combo by ``prepare_interval_dense`` (``dense.py``),
``prepare_interval_sparse`` (``sparse.py``) and ``prepare_rel_dense`` /
``prepare_rel_sparse`` (``relational.py``). :func:`prepare_plan` is the one
domain×mode dispatch over those four builders, and :func:`run_plan` is the
one driver: the ``run_*`` functions, ``analyze()`` and serve's global
solve all end in it, and serve's cone solve builds its engine
through the same :func:`_engine_for`. That is what makes a served answer
comparable to a fresh ``analyze()`` structure for structure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.analysis.engine import (
    CfgSpace,
    DepGraphSpace,
    FixpointEngine,
    FixpointResult,
    PropagationSpace,
)
from repro.analysis.preanalysis import PreAnalysis, run_preanalysis
from repro.ir.program import Program
from repro.runtime.budget import Budget
from repro.runtime.degrade import (
    DegradeController,
    Diagnostics,
    make_watchdog,
    preanalysis_bound,
)
from repro.runtime.faults import FaultInjector
from repro.telemetry.core import Telemetry

if TYPE_CHECKING:
    from repro.analysis.dense import InterprocGraph


@dataclass
class EnginePlan:
    """One engine×domain combo's graphs, transfer, WTO priorities, widening
    points and thresholds, separated from the engine that will run them."""

    program: Program
    pre: PreAnalysis
    domain: str  # "interval" | "octagon"
    mode: str  # "vanilla" | "base" | "sparse"
    strict: bool
    graph: "InterprocGraph"
    #: seed states for the CFG space (strict: entry only; non-strict: all)
    entries: dict[int, object]
    transfer: Callable[[int, object], object]
    #: zero-argument bottom-state constructor of the plan's lattice
    state_factory: Callable[[], object]
    wto: object
    widening_points: set[int]
    thresholds: tuple[int, ...] | None
    entry_nid: int
    node_ids: tuple[int, ...]
    #: builds the CfgSpace edge transform given a zero-arg thunk returning
    #: the live engine table (the octagon-base return overlay reads callee
    #: exit states through it); None when the mode has no transform
    make_edge_transform: Callable | None = None
    #: sparse modes: the dependency graph and its cell strategy
    deps: object = None
    cells_factory: Callable | None = None
    dep_count: int = 0
    raw_dep_count: int = 0
    defuse: object = None
    packs: object = None
    ctx: object = None
    #: wall time of the pre-analysis when :func:`prepare_plan` ran it
    time_pre: float = 0.0
    time_dep: float = 0.0

    @property
    def sparse(self) -> bool:
        return self.mode == "sparse"

    @property
    def stage(self) -> str:
        """The fixpoint's name in budget messages."""
        if not self.sparse:
            return "fixpoint"
        if self.domain == "interval":
            return "sparse fixpoint"
        return "sparse relational fixpoint"

    def make_program_space(self, get_table) -> PropagationSpace:
        """The whole-program propagation space this plan describes;
        ``get_table`` is a zero-argument thunk returning the live engine
        table."""
        if self.sparse:
            return DepGraphSpace(
                self.deps,
                self.graph,
                self.cells_factory(),
                node_ids=self.node_ids,
                entry=self.entry_nid,
                strict=self.strict,
            )
        return CfgSpace(
            self.graph.succs,
            self.graph.preds,
            self.entries,
            edge_transform=(
                None
                if self.make_edge_transform is None
                else self.make_edge_transform(get_table)
            ),
            roots=[self.entry_nid],
        )


def prepare_plan(
    program: Program,
    pre: PreAnalysis | None,
    domain: str,
    mode: str,
    *,
    bypass: bool = True,
    telemetry=None,
    **plan_options,
) -> EnginePlan:
    """Build the plan for one engine×domain combo, running the pre-analysis
    first when ``pre`` is None. ``bypass`` only shapes the sparse modes'
    dependencies; the dense modes ignore it, so one option set serves every
    mode."""
    # The four builders import this module for EnginePlan.
    from repro.analysis.dense import prepare_interval_dense
    from repro.analysis.relational import prepare_rel_dense, prepare_rel_sparse
    from repro.analysis.sparse import prepare_interval_sparse

    if domain not in ("interval", "octagon"):
        raise ValueError(f"unknown domain {domain!r}")
    if mode not in ("vanilla", "base", "sparse"):
        raise ValueError(f"unknown mode {mode!r}")
    if domain == "octagon":
        if plan_options.pop("widening_thresholds", None) is not None:
            raise ValueError("widening_thresholds is an interval-domain option")
        dense, sparse = prepare_rel_dense, prepare_rel_sparse
    else:
        dense, sparse = prepare_interval_dense, prepare_interval_sparse
    tel = Telemetry.coerce(telemetry)
    time_pre = 0.0
    if pre is None:
        start = time.perf_counter()
        pre = run_preanalysis(program, telemetry=tel)
        time_pre = time.perf_counter() - start
    if mode == "sparse":
        plan = sparse(program, pre, bypass=bypass, telemetry=tel, **plan_options)
    else:
        plan = dense(program, pre, localize=mode == "base", **plan_options)
    plan.time_pre = time_pre
    return plan


def _engine_for(
    plan: EnginePlan,
    wrap: Callable[[PropagationSpace], PropagationSpace] | None = None,
    **engine_options,
) -> FixpointEngine:
    """The one construction of a :class:`FixpointEngine` from a plan.
    ``wrap`` membranes the whole-program space (serve's cone solve)."""
    # the table thunk is first called during solve(), after ``engine`` is bound
    space = plan.make_program_space(lambda: engine.table)
    engine = FixpointEngine(
        space if wrap is None else wrap(space),
        plan.transfer,
        plan.widening_points,
        widening_thresholds=plan.thresholds,
        stage=plan.stage,
        priority=plan.wto.priority,
        **engine_options,
    )
    return engine


def run_plan(
    plan: EnginePlan,
    *,
    narrowing_passes: int = 0,
    budget: Budget | None = None,
    max_iterations: int | None = None,
    on_budget: str = "fail",
    faults=None,
    watchdog: bool = True,
    telemetry=None,
    checkpoint=None,
    resume_from=None,
) -> FixpointResult:
    """Solve a plan to its fixpoint.

    ``budget`` (or the legacy ``max_iterations``) limits the fixpoint work;
    ``on_budget="degrade"`` fills unconverged procedures from the
    pre-analysis bound (the pre-analysis state for intervals, the ⊤ pack
    map for octagons) instead of raising :class:`BudgetExceeded`, with the
    actions recorded in the result's ``diagnostics``. ``faults`` accepts a
    :class:`repro.runtime.faults.FaultPlan` for deterministic failure tests;
    ``checkpoint`` is a :class:`repro.runtime.checkpoint.Checkpointer` and
    ``resume_from`` a snapshot payload to continue from.

    The stats carry the paper's Pre / Dep / Fix split: ``time_pre`` is
    nonzero only when :func:`prepare_plan` ran the pre-analysis,
    ``time_dep`` is the sparse plans' dependency generation, and
    ``time_fix`` is the wall time of ``solve()`` alone.
    """
    if on_budget not in ("fail", "degrade"):
        raise ValueError(f"on_budget must be 'fail' or 'degrade', not {on_budget!r}")
    resolved_budget = Budget.coerce(budget, max_iterations=max_iterations)
    diagnostics = Diagnostics(budget=resolved_budget)
    degrade = None
    if on_budget == "degrade":
        bound = preanalysis_bound(plan.pre, plan.domain)
        degrade = DegradeController(
            plan.program,
            fallback_state=lambda proc: bound.copy(),
            diagnostics=diagnostics,
            watchdog=make_watchdog(bound) if watchdog else None,
        )
    engine = _engine_for(
        plan,
        narrowing_passes=narrowing_passes,
        budget=resolved_budget,
        faults=FaultInjector.coerce(faults),
        degrade=degrade,
        telemetry=telemetry,
        checkpointer=checkpoint,
    )
    if resume_from is not None:
        engine.restore(resume_from)
    start = time.perf_counter()
    table = engine.solve()
    stats = engine.stats
    stats.time_fix = time.perf_counter() - start
    stats.time_pre = plan.time_pre
    stats.time_dep = plan.time_dep
    stats.dep_count = plan.dep_count
    stats.raw_dep_count = plan.raw_dep_count
    diagnostics.iterations = stats.iterations
    return FixpointResult(
        table,
        stats,
        pre=plan.pre,
        defuse=plan.defuse,
        deps=plan.deps,
        graph=plan.graph,
        packs=plan.packs,
        diagnostics=diagnostics,
        scheduler_stats=engine.scheduler_stats,
        bottom=plan.state_factory,
    )
