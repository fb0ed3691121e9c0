"""Dense (non-sparse) global analyses: ``vanilla`` and ``base``.

``vanilla`` is the textbook global abstract interpreter: it propagates whole
abstract states along every control-flow edge of the interprocedural graph.
``base`` adds access-based localization [Oh et al., VMCAI 2011]: states
passed into a callee are restricted to the locations the callee may access;
the rest bypasses the call through a direct call→return-site edge. These are
the paper's ``Interval_vanilla`` and ``Interval_base`` analyzers (Section 6.1),
against which the sparse analyzer is measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.defuse import DefUseInfo, compute_defuse, localization_set
from repro.analysis.engine import FixpointResult
from repro.analysis.plan import EnginePlan, prepare_plan, run_plan
from repro.analysis.preanalysis import PreAnalysis
from repro.analysis.schedule import GraphView, widening_points_for
from repro.analysis.semantics import AnalysisContext, transfer
from repro.domains.absloc import AbsLoc
from repro.domains.state import AbsState
from repro.ir.commands import CCall, CRetBind
from repro.ir.program import Program
from repro.runtime.budget import Budget


@dataclass
class InterprocGraph:
    """The global analysis graph: intraprocedural edges + call/return edges.

    * call node → callee entry (one per resolved callee),
    * callee exit → return-site (``CRetBind``) node,
    * call node → return-site directly only when the call is external
      (no resolved callee) or when ``localized`` bypass edges are enabled.
    """

    succs: dict[int, list[int]] = field(default_factory=dict)
    preds: dict[int, list[int]] = field(default_factory=dict)
    #: (call nid → retbind nid)
    retbind_of: dict[int, int] = field(default_factory=dict)
    #: call edges (call nid → callee name) for edge transforms
    call_edges: dict[tuple[int, int], str] = field(default_factory=dict)
    #: bypass edges (call nid, retbind nid) pairs, localized mode only
    bypass_edges: set[tuple[int, int]] = field(default_factory=set)

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.succs.setdefault(src, []):
            self.succs[src].append(dst)
            self.preds.setdefault(dst, []).append(src)


def build_interproc_graph(
    program: Program,
    site_callees: dict[int, tuple[str, ...]],
    localized: bool = False,
) -> InterprocGraph:
    graph = InterprocGraph()
    callsites_of: dict[str, list[int]] = {}

    for cfg in program.cfgs.values():
        for node in cfg.nodes:
            graph.succs.setdefault(node.nid, [])
            graph.preds.setdefault(node.nid, [])
        for node in cfg.nodes:
            if isinstance(node.cmd, CCall):
                callees = site_callees.get(node.nid, ())
                retbind = next(
                    (
                        s
                        for s in cfg.succs[node.nid]
                        if isinstance(cfg.node(s).cmd, CRetBind)
                    ),
                    None,
                )
                if retbind is not None:
                    graph.retbind_of[node.nid] = retbind
                for callee in callees:
                    callee_cfg = program.cfgs[callee]
                    assert callee_cfg.entry is not None
                    graph.add_edge(node.nid, callee_cfg.entry.nid)
                    graph.call_edges[(node.nid, callee_cfg.entry.nid)] = callee
                    callsites_of.setdefault(callee, []).append(node.nid)
                if not callees:
                    # External call: control continues to the return site.
                    for s in cfg.succs[node.nid]:
                        graph.add_edge(node.nid, s)
                elif localized and retbind is not None:
                    # Bypass edge carrying the non-accessed state portion.
                    graph.add_edge(node.nid, retbind)
                    graph.bypass_edges.add((node.nid, retbind))
            else:
                for s in cfg.succs[node.nid]:
                    graph.add_edge(node.nid, s)

    for callee, sites in callsites_of.items():
        exit_node = program.cfgs[callee].exit
        if exit_node is None:
            continue
        for site in sites:
            retbind = graph.retbind_of.get(site)
            if retbind is not None:
                graph.add_edge(exit_node.nid, retbind)
    return graph


def _resolve_thresholds(program, spec):
    """'auto' harvests landmark constants from the program; a tuple is
    used as-is; None disables threshold widening."""
    if spec == "auto":
        from repro.analysis.thresholds import collect_thresholds

        return collect_thresholds(program)
    return spec


def prepare_interval_dense(
    program: Program,
    pre: PreAnalysis,
    *,
    localize: bool = False,
    strict: bool = True,
    widen: bool = True,
    widening_thresholds: tuple[int, ...] | str | None = None,
) -> EnginePlan:
    """Build the plan for ``Interval_vanilla`` / ``Interval_base``."""
    ctx = AnalysisContext(program, pre.site_callees, strict=strict)
    graph = build_interproc_graph(program, pre.site_callees, localized=localize)

    defuse: DefUseInfo | None = None
    make_edge_transform = None
    if localize:
        defuse = compute_defuse(program, pre)
        passed_sets: dict[str, frozenset[AbsLoc]] = {
            callee: localization_set(program, defuse, callee)
            for callee in program.procedures()
        }
        call_edges = graph.call_edges
        bypass = graph.bypass_edges

        def make_edge_transform(get_table):
            # get_table unused: interval localization is a pure restriction
            def edge_transform(src: int, dst: int, state: AbsState) -> AbsState:
                callee = call_edges.get((src, dst))
                if callee is not None:
                    return state.restrict(passed_sets[callee])
                if (src, dst) in bypass:
                    # The call node has one outgoing callee at least; the
                    # bypass carries what no callee can access.
                    touched: set[AbsLoc] = set()
                    for (s, _e), c in call_edges.items():
                        if s == src:
                            touched |= passed_sets[c]
                    return state.remove(touched)
                return state

            return edge_transform

    node_map = program.factory.nodes

    def node_transfer(nid: int, state: AbsState) -> AbsState | None:
        return transfer(node_map[nid], state, ctx)

    entry = program.entry_node()
    if strict:
        entries = {entry.nid: AbsState()}
    else:
        # Non-strict: every control point runs at least once on ⊥.
        entries = {node.nid: AbsState() for node in program.nodes()}
    wto, widening_points = widening_points_for(
        GraphView((entry.nid,), graph.succs), widen
    )
    return EnginePlan(
        program=program,
        pre=pre,
        domain="interval",
        mode="base" if localize else "vanilla",
        strict=strict,
        graph=graph,
        entries=entries,
        transfer=node_transfer,
        state_factory=AbsState,
        wto=wto,
        widening_points=widening_points,
        thresholds=_resolve_thresholds(program, widening_thresholds),
        entry_nid=entry.nid,
        node_ids=tuple(node_map.keys()),
        make_edge_transform=make_edge_transform,
        defuse=defuse,
        ctx=ctx,
    )


def run_dense(
    program: Program,
    pre: PreAnalysis | None = None,
    localize: bool = False,
    narrowing_passes: int = 0,
    strict: bool = True,
    widen: bool = True,
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
    """Run the dense interval analysis (``vanilla`` or, with ``localize``,
    ``base``).

    ``strict=False`` switches to the paper's non-strict formulation: every
    control point is evaluated (even if unreachable) and assume commands
    refine values instead of cutting paths. ``widen=False`` disables
    widening entirely (only safe on programs whose abstract iterates have
    finite chains, e.g. constant-bounded loops) — in that mode the computed
    table is the exact ``lfp F♯`` of the paper and Lemma 2's equality with
    the sparse result holds bit for bit.

    The budget, degradation, fault and checkpoint options are
    :func:`~repro.analysis.plan.run_plan`'s.
    """
    return run_plan(
        prepare_plan(
            program,
            pre,
            "interval",
            "base" if localize else "vanilla",
            strict=strict,
            widen=widen,
            widening_thresholds=widening_thresholds,
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
