"""The generic fixpoint engine core.

The paper's central observation (Section 3) is that the sparse analysis is
the *same* abstract interpreter as the dense one, run over a different
propagation structure: equation (3) propagates whole states along
control-flow edges, Definition 3 propagates individual abstract locations
along data dependencies. This module makes that structure a first-class
parameter. One :class:`FixpointEngine` owns the worklist loop — WTO
scheduling, widening, budget metering, per-procedure degradation,
narrowing passes, and stats collection exactly once — and is instantiated
with:

* a **state lattice** (:class:`StateLattice`): ``AbsState`` (bottom-default
  interval/pointer maps) or ``PackState`` (⊤-default pack→octagon maps),
  via the changed-set join/widen protocol;
* a **propagation space** (:class:`PropagationSpace`): :class:`CfgSpace`
  pulls inputs by joining predecessor states over control edges (with an
  optional access-based-localization edge transform), while
  :class:`DepGraphSpace` pushes changed locations along data dependencies
  into per-consumer input caches, with control reachability riding along
  as one bit per node;
* a **transfer adapter**: a plain ``(nid, state) -> state | None`` callable
  closing over the program's node map and analysis context.

``dense.py``, ``sparse.py`` and ``relational.py`` build
:class:`~repro.analysis.plan.EnginePlan` configurations of this core, which
:func:`~repro.analysis.plan.run_plan` solves into one
:class:`FixpointResult`. The flow-insensitive pre-analysis
(``preanalysis.py``) is one whole-program fold per round and runs its own
round loop instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Protocol, Sequence

from repro.analysis.schedule import PriorityWorklist, SchedulerStats
from repro.domains.interval import Interval
from repro.domains.state import AbsState
from repro.domains.value import cache_stats
from repro.runtime.budget import Budget, BudgetMeter
from repro.runtime.errors import (
    AnalysisError,
    AnalysisInterrupted,
    BudgetExceeded,
    ReproError,
)
from repro.telemetry.core import Telemetry

if TYPE_CHECKING:
    from repro.analysis.datadep import DataDeps
    from repro.analysis.dense import InterprocGraph
    from repro.analysis.preanalysis import PreAnalysis


class StateLattice(Protocol):
    """What the engine needs from an abstract state.

    ``AbsState`` (bottom-default: a missing location is ⊥) and ``PackState``
    (⊤-default: a missing pack is ⊤) both implement it. Truthiness must NOT
    encode emptiness — an empty ⊤-default map is a real state — so the
    engine never branches on ``bool(state)``; ``len`` feeds the budget
    meter's state-size probe only. Bottom is a zero-argument constructor on
    the implementing class, used by the propagation spaces for seeds and by
    :meth:`FixpointResult.state_at`.
    """

    def copy(self) -> "StateLattice": ...

    def leq(self, other: "StateLattice") -> bool: ...

    def join_changed(self, other: "StateLattice") -> set:
        """In-place join, returning exactly the keys whose value changed."""
        ...

    def widen_changed(
        self, other: "StateLattice", thresholds: tuple[int, ...] | None = None
    ) -> set:
        """In-place widen (thresholds are an interval-domain refinement;
        other domains ignore them), returning the changed keys."""
        ...

    def __len__(self) -> int: ...


#: transfer adapter: ``f♯_c`` as a plain callable (None = no state produced)
Transfer = Callable[[int, "StateLattice"], "StateLattice | None"]
EdgeTransform = Callable[[int, int, "StateLattice"], "StateLattice | None"]


@dataclass
class FixpointStats:
    """Counters describing one fixpoint run — a single surface for every
    engine×domain combination (dense runs simply leave the dependency and
    reachability fields at their defaults)."""

    iterations: int = 0
    max_worklist: int = 0
    visited: set[int] = field(default_factory=set)
    #: sparse engines: dependency edges after/before bypass compression
    dep_count: int = 0
    raw_dep_count: int = 0
    #: sparse engines: control points the reachability bit turned on
    reachable_nodes: int = 0
    #: wall-clock split matching the paper's Pre / Dep / Fix columns
    time_pre: float = 0.0
    time_dep: float = 0.0
    time_fix: float = 0.0

    @property
    def time_total(self) -> float:
        return self.time_pre + self.time_dep + self.time_fix


@dataclass
class FixpointResult:
    """A fixpoint table plus its supporting artifacts — the one results API
    shared by all engines. Fields not produced by a given engine stay None."""

    table: dict[int, "StateLattice"]
    stats: FixpointStats = field(default_factory=FixpointStats)
    pre: "PreAnalysis | None" = None
    #: dense localization / sparse dependency artifacts (engine-dependent)
    defuse: object = None
    deps: "DataDeps | None" = None
    graph: "InterprocGraph | None" = None
    #: relational runs: the variable packing in effect
    packs: object = None
    diagnostics: object = None
    scheduler_stats: SchedulerStats | None = None
    #: zero-argument bottom-state constructor for out-of-table queries
    bottom: Callable[[], "StateLattice"] = AbsState

    # -- queries ---------------------------------------------------------------

    def state_at(self, nid: int):
        return self.table.get(nid, self.bottom())

    def value_at(self, nid: int, loc):
        return self.state_at(nid).get(loc)

    def interval_of(self, nid: int, var, ctx) -> Interval:
        """Relational query: the best interval for ``var`` at ``nid`` — the
        meet of the projections of every pack containing it (relational
        packs may hold tighter bounds than the singleton)."""
        state = self.state_at(nid)
        out = Interval.top()
        for pack in ctx.packs.packs_of(var):
            out = out.meet(state.get(pack).project(pack.index(var)))
        return out


# --------------------------------------------------------------------------
# Propagation spaces
# --------------------------------------------------------------------------


class PropagationSpace:
    """How abstract facts travel between control points.

    The engine owns the loop; the space owns the structure: where iteration
    starts (:meth:`seeds`), how a node's input is built (:meth:`input_for`
    in the main loop, :meth:`assemble_input` for narrowing's from-scratch
    recomputation), and what an observed change reaches (:meth:`propagate`).
    ``schedule_roots``/``schedule_succs`` expose the graph the WTO is
    computed over (see :func:`repro.analysis.schedule.widening_points_for`).
    """

    engine: "FixpointEngine"

    def bind(self, engine: "FixpointEngine") -> None:
        self.engine = engine

    def seeds(self) -> Sequence[int]:
        raise NotImplementedError

    def runnable(self, nid: int) -> bool:
        """Gate a popped node (sparse reachability); True by default."""
        return True

    def schedule_roots(self) -> Sequence[int]:
        raise NotImplementedError

    def schedule_succs(self) -> Mapping[int, Sequence[int]]:
        raise NotImplementedError

    def input_for(self, nid: int):
        """The node's input state, or None when it cannot run yet."""
        raise NotImplementedError

    def assemble_input(self, nid: int):
        """From-scratch input assembly for narrowing passes (the main loop
        may use incremental caches instead)."""
        return self.input_for(nid)

    def install(self, out):
        """Prepare a transfer output for first installation into the table
        (spaces whose inputs may alias live caches defensively copy here)."""
        return out

    def after_transfer(self, nid: int, work) -> None:
        """Hook run after a successful transfer, before the table update
        (sparse control-reachability propagation)."""

    def propagate(self, nid: int, out, changed, work) -> None:
        """React to ``nid``'s table state having changed. ``changed`` is the
        set of changed keys, or None on first installation (= everything)."""
        raise NotImplementedError

    def absorb_degraded(self, newly: set[int], work) -> None:
        """Splice freshly degraded nodes' fallback states back into the
        propagation (their table entries were already written)."""

    def record_stats(self, stats: FixpointStats) -> None:
        """Fill space-specific counters at the end of the ascending phase."""

    def snapshot_extra(self) -> dict:
        """Space-private state a checkpoint must carry (the sparse
        reachability bits). The CFG space has none — its inputs are rebuilt
        from the table on every visit."""
        return {}

    def restore_extra(self, extra: dict) -> None:
        """Reinstall :meth:`snapshot_extra`'s payload on resume, after the
        table has been restored."""


class CfgSpace(PropagationSpace):
    """Equation (3): whole states flow along control edges, and a node's
    input is the join of its predecessors' states — optionally filtered by
    an edge transform (access-based localization restricts states entering
    a callee and strips the passed portion from bypass edges)."""

    def __init__(
        self,
        succs: Mapping[int, Sequence[int]],
        preds: Mapping[int, Sequence[int]],
        entries: Mapping[int, "StateLattice"],
        edge_transform: EdgeTransform | None = None,
        roots: Sequence[int] | None = None,
    ) -> None:
        self._succs = succs
        self._preds = preds
        self._entries = dict(entries)
        self._edge_transform = edge_transform
        self._roots = list(roots) if roots is not None else list(self._entries)

    def seeds(self) -> Sequence[int]:
        return list(self._entries)

    def schedule_roots(self) -> Sequence[int]:
        return self._roots

    def schedule_succs(self) -> Mapping[int, Sequence[int]]:
        return self._succs

    def input_for(self, nid: int):
        table = self.engine.table
        acc = None
        for p in self._preds.get(nid, ()):
            ps = table.get(p)
            if ps is None:
                continue
            if self._edge_transform is not None:
                ps = self._edge_transform(p, nid, ps)
                if ps is None:
                    continue
            if acc is None:
                acc = ps.copy()
            else:
                acc.join_changed(ps)
        # The seed only matters while no predecessor has produced a state:
        # it makes the node runnable (entry nodes, non-strict seeding). It
        # must NOT be joined once real states flow — for ⊤-defaulted state
        # types (pack maps) joining the empty seed would erase everything.
        if acc is None:
            initial = self._entries.get(nid)
            if initial is not None:
                acc = initial.copy()
        return acc

    def propagate(self, nid: int, out, changed, work) -> None:
        for s in self._succs.get(nid, ()):
            work.add(s)

    def absorb_degraded(self, newly: set[int], work) -> None:
        # Re-enqueue live successors of freshly degraded nodes so they
        # consume the fallback states (e.g. a return site reading a
        # degraded callee's exit).
        degrade = self.engine._degrade
        for dn in newly:
            for s in self._succs.get(dn, ()):
                if not degrade.is_degraded_node(s):
                    work.add(s)


class CellOps:
    """Domain plug for :class:`DepGraphSpace`: how individual cells (abstract
    locations or packs) are cached, pushed, and assembled. The asymmetry
    between the two implementations is exactly the lattice-default
    asymmetry: interval caches absorb upward from ⊥ and skip bottom values,
    pack caches pin cells at ⊤ (None) once any source is unconstrained."""

    #: zero-argument bottom-state constructor of the underlying lattice
    state_factory: Callable[[], "StateLattice"]

    def new_cache(self):
        raise NotImplementedError

    def input_state(self, cache):
        """Materialize a node's input state from its (possibly absent)
        push cache."""
        raise NotImplementedError

    def install(self, out):
        """Table-installation policy for first visits (see the aliasing
        notes on the implementations)."""
        return out

    def push(self, cache, touched, out) -> bool:
        """Join ``out``'s values for the ``touched`` cells into ``cache``;
        True if the cache grew (the consumer must re-run)."""
        raise NotImplementedError

    def assemble(self, in_edges: Iterable[tuple[int, frozenset]], table):
        """From-scratch input assembly over incoming dependency edges
        (narrowing's replacement for the push caches)."""
        raise NotImplementedError

    def assemble_cache(self, in_edges: Iterable[tuple[int, frozenset]], table):
        """Rebuild a push cache from final source states — what the
        sequentially accumulated cache converges to, since table states only
        grow during ascent and a join over a monotone history equals the
        join of its last element. Checkpoint resume and serve's cone solve
        use this to reconstitute a consumer's input cache from a table
        instead of keeping the caches themselves. Default: the assembled
        input state doubles as the cache (true for :class:`IntervalCells`,
        whose cache *is* an ``AbsState``)."""
        return self.assemble(in_edges, table)


class IntervalCells(CellOps):
    """Cell operations for bottom-default ``AbsState`` caches."""

    state_factory = AbsState

    def new_cache(self) -> AbsState:
        return AbsState()

    def input_state(self, cache):
        return cache if cache is not None else AbsState()

    def install(self, out):
        # The transfer may return its input unchanged (skip nodes), which
        # aliases the long-lived push cache — the copy is NOT redundant,
        # unlike the CFG space's (whose inputs are built fresh every visit).
        return out.copy()

    def push(self, cache, touched, out) -> bool:
        return cache.join_entries_from(out, touched)

    def assemble(self, in_edges, table) -> AbsState:
        state = AbsState()
        for src, locs in in_edges:
            src_state = table.get(src)
            if src_state is None:
                continue
            for loc in locs:
                value = src_state.get(loc)
                if not value.is_bottom():
                    state.weak_set(loc, value)
        return state


class DepGraphSpace(PropagationSpace):
    """Definition 3: individual cells flow along data dependencies.
    Producers push changed values into consumers' input caches — O(#changed)
    per edge instead of re-joining the whole fan-in at every consumer visit
    — while control reachability rides the interprocedural control graph at
    one bit per node, keeping strict mode as precise as the strict dense
    engine on dead branches. The WTO (and hence the widening points) is
    still computed over the *control* graph, so sparse and dense engines
    widen on identical per-location streams (dependency generation cuts
    chains at those points — see ``repro.analysis.datadep``)."""

    def __init__(
        self,
        deps: "DataDeps",
        graph: "InterprocGraph",
        cells: CellOps,
        node_ids: Iterable[int],
        entry: int,
        strict: bool = True,
    ) -> None:
        self._deps = deps
        self._graph = graph
        self._cells = cells
        self._node_ids = list(node_ids)
        self._entry = entry
        self._strict = strict
        #: push-based input accumulator per consumer node
        self.in_cache: dict[int, object] = {}
        self.reached: set[int] = set()

    @property
    def cells(self) -> CellOps:
        """The cell strategy (exposed for warm-starting restricted runs)."""
        return self._cells

    @property
    def deps(self) -> "DataDeps":
        """The dependency graph the pushes follow."""
        return self._deps

    def seeds(self) -> Sequence[int]:
        if self._strict:
            self.reached.add(self._entry)
            return [self._entry]
        # Non-strict (paper) mode: every control point runs.
        self.reached.update(self._node_ids)
        return sorted(self._node_ids)

    def runnable(self, nid: int) -> bool:
        return nid in self.reached

    def schedule_roots(self) -> Sequence[int]:
        return [self._entry]

    def schedule_succs(self) -> Mapping[int, Sequence[int]]:
        return self._graph.succs

    def input_for(self, nid: int):
        return self._cells.input_state(self.in_cache.get(nid))

    def assemble_input(self, nid: int):
        return self._cells.assemble(self._deps.in_edges(nid), self.engine.table)

    def install(self, out):
        return self._cells.install(out)

    def after_transfer(self, nid: int, work) -> None:
        # Reachability propagates along control flow (cheap bit). A node
        # reached late may already have pending cached input from dep
        # pushes; it is enqueued here and will consume it.
        for succ in self._graph.succs.get(nid, ()):
            if succ not in self.reached:
                self.reached.add(succ)
                work.add(succ)

    def propagate(self, nid: int, out, changed, work) -> None:
        faults = self.engine._faults
        cells = self._cells
        for dst, locs in self._deps.out_edges(nid):
            if faults is not None and not faults.keep_dep_push(nid, dst):
                continue
            touched = locs if changed is None else (locs & changed)
            if not touched:
                continue
            cache = self.in_cache.get(dst)
            if cache is None:
                cache = cells.new_cache()
                self.in_cache[dst] = cache
            if cells.push(cache, touched, out) and dst in self.reached:
                work.add(dst)

    def absorb_degraded(self, newly: set[int], work) -> None:
        # Push the (pre-analysis / ⊤) fallback values along outgoing data
        # dependencies and re-establish control reachability across the
        # degraded region — the degraded procedure conservatively 'executes
        # everything', so its control successors must run.
        degrade = self.engine._degrade
        succs_to_run: set[int] = set()
        for dn in newly:
            self.reached.add(dn)
            for s in self._graph.succs.get(dn, ()):
                self.reached.add(s)
                if not degrade.is_degraded_node(s):
                    succs_to_run.add(s)
        for dn in newly:
            state = self.engine.table.get(dn)
            if state is not None:
                self.propagate(dn, state, None, work)
        for s in succs_to_run:
            work.add(s)

    def record_stats(self, stats: FixpointStats) -> None:
        stats.reachable_nodes = len(self.reached)

    def snapshot_extra(self) -> dict:
        return {"reached": sorted(self.reached)}

    def restore_extra(self, extra: dict) -> None:
        # The push caches are not serialized: during ascent every source
        # state only grows, so the join a cache accumulated over its push
        # history equals the join of the restored final states.
        self.reached = set(extra["reached"])
        table = self.engine.table
        cells = self._cells
        deps = self._deps
        self.in_cache = {
            nid: cells.assemble_cache(deps.in_edges(nid), table)
            for nid in self._node_ids
        }


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


class FixpointEngine:
    """Chaotic iteration with widening at the supplied points, generic over
    the propagation space and state lattice.

    ``table[c]`` holds the state *at* ``c`` — the result of applying
    ``f♯_c`` to the space-assembled input (matching the paper's formulation
    where the transfer happens on entry to ``c``).

    Scheduling: the engine pops nodes by their position in the WTO
    ``priority`` map (inner loops stabilize before outer code resumes);
    nodes the map lacks pop after every mapped node, in id order. A
    :class:`~repro.analysis.schedule.SchedulerStats` record is left on
    ``scheduler_stats``.

    Resilience (see :mod:`repro.runtime`): every iteration — including
    narrowing passes — is metered against a unified
    :class:`repro.runtime.Budget`; an optional
    :class:`~repro.runtime.faults.FaultInjector` hook runs before each
    transfer; and with a :class:`~repro.runtime.degrade.DegradeController`
    attached, budget exhaustion and transfer crashes become per-procedure
    degradation to the pre-analysis state instead of aborting the run.
    """

    def __init__(
        self,
        space: PropagationSpace,
        transfer: Transfer,
        widening_points: set[int],
        *,
        widening_thresholds: tuple[int, ...] | None = None,
        narrowing_passes: int = 0,
        budget: Budget | None = None,
        max_iterations: int | None = None,
        meter: BudgetMeter | None = None,
        stage: str = "fixpoint",
        faults=None,
        degrade=None,
        priority: Mapping[int, int] | None = None,
        telemetry=None,
        checkpointer=None,
    ) -> None:
        self.space = space
        self._transfer = transfer
        self._widening_points = widening_points
        self._thresholds = widening_thresholds
        self._narrowing_passes = narrowing_passes
        if meter is None:
            meter = BudgetMeter(
                Budget.coerce(budget, max_iterations=max_iterations),
                stage=stage,
            )
        self._meter = meter
        self._faults = faults
        self._degrade = degrade
        #: WTO positions driving the priority worklist
        self._priority = priority if priority is not None else {}
        #: telemetry registry the run's stats are merged into on completion
        #: (the no-op singleton by default — zero per-iteration cost either
        #: way, the engine only reports at phase boundaries)
        self._telemetry = Telemetry.coerce(telemetry)
        self.table: dict[int, "StateLattice"] = {}
        self.stats = FixpointStats()
        self.scheduler_stats: SchedulerStats | None = None
        self._work = None
        #: running total of state entries across the table — the budget
        #: meter's state-size probe reads this instead of re-summing
        self._entries = 0
        #: optional repro.runtime.checkpoint.Checkpointer writing periodic
        #: and final-abort snapshots of this engine
        self._checkpointer = checkpointer
        #: worklist contents to seed from instead of space.seeds() (resume)
        self._resume_pending: list[int] | None = None
        #: node popped but not yet fully processed — an abort snapshot must
        #: re-include it so the resumed run redoes its visit
        self._inflight: int | None = None
        self._phase = "idle"
        #: iteration count the run was resumed at (None = fresh run)
        self.resumed_from_iteration: int | None = None
        space.bind(self)

    # -- resilience hooks ------------------------------------------------------

    def _table_entries(self) -> int:
        return self._entries

    def _tick(self) -> None:
        if self._faults is not None:
            self._faults.on_iteration(self.stats.iterations)
        self._meter.tick(self._table_entries)

    def _apply_transfer(self, nid: int, in_state):
        """Run faults hook + transfer; a crash degrades the node's procedure
        when a degrade controller is attached, otherwise surfaces as a
        structured :class:`AnalysisError`."""
        try:
            if self._faults is not None:
                self._faults.before_transfer(nid)
            return self._transfer(nid, in_state)
        except (BudgetExceeded, AnalysisInterrupted):
            # neither is a transfer *failure*: budget exhaustion keeps its
            # own semantics, and an external interrupt must unwind to the
            # abort-checkpoint path, never degrade a procedure
            raise
        except Exception as exc:
            if self._degrade is None:
                if isinstance(exc, ReproError):
                    raise
                raise AnalysisError(
                    f"transfer function crashed at node {nid}: {exc}", node=nid
                ) from exc
            newly = self._degrade.degrade_node(nid, self.table, cause=str(exc))
            self._absorb_degraded(newly)
            return None

    def _absorb_degraded(self, newly: set[int]) -> None:
        if not newly:
            return
        # Degradation wrote whole-procedure fallback states behind the
        # incremental counter's back — resync it (rare event).
        self._entries = sum(len(s) for s in self.table.values())
        if self._work is None:
            return
        self.space.absorb_degraded(newly, self._work)

    # -- the loop --------------------------------------------------------------

    def solve(self) -> dict[int, "StateLattice"]:
        """Run to fixpoint from the space's seeds, then (optionally) narrow.

        The ascending phase is traced as a ``fixpoint`` span and narrowing
        as a sibling ``narrowing`` span (phase walls stay additive); both
        close even when the run aborts mid-phase (budget exhaustion in
        fail mode), so traces of failed runs remain balanced.

        With a checkpointer attached, an abort during the *ascending* phase
        — budget exhaustion in fail mode, an injected crash, SIGINT/SIGTERM
        raised as :class:`AnalysisInterrupted` — flushes one final
        checkpoint before re-raising. Narrowing aborts deliberately do not:
        the last ascending checkpoint on disk is still a valid resume point
        (resuming replays the ascending tail and then narrows in full).

        The space refers back to this engine (:meth:`PropagationSpace.bind`,
        and a plan's table thunk), so the engine drops it when the run ends,
        however it ends: the run's object graph is then acyclic and
        reference counting frees it without the cyclic collector.
        """
        try:
            try:
                with self._telemetry.span(
                    "fixpoint", stage=self._meter.stage
                ) as sp:
                    self._phase = "ascending"
                    table = self._solve_ascending()
                    self._phase = "idle"
                    sp.set(iterations=self.stats.iterations)
            except BaseException:
                if self._checkpointer is not None and self._phase == "ascending":
                    try:
                        self._checkpointer.write(self, reason="abort")
                    except Exception:
                        pass  # never mask the original failure
                raise
            if self._narrowing_passes:
                before = self.stats.iterations
                with self._telemetry.span(
                    "narrowing", passes=self._narrowing_passes
                ) as sp:
                    self.narrow(self._narrowing_passes)
                    sp.set(iterations=self.stats.iterations - before)
                self._telemetry.count(
                    "narrowing.iterations", self.stats.iterations - before
                )
            return table
        finally:
            self.space = None

    def _solve_ascending(self) -> dict[int, "StateLattice"]:
        space = self.space
        wps = self._widening_points
        cache_before = cache_stats()
        if self._resume_pending is not None:
            # Resume: the checkpointed worklist replaces space.seeds() —
            # re-seeding would redo already-absorbed seed side effects.
            initial = self._resume_pending
            self._resume_pending = None
        else:
            initial = space.seeds()
        work = PriorityWorklist(self._priority, initial)
        self._work = work
        cp = self._checkpointer
        while work:
            nid = work.pop()
            if not space.runnable(nid):
                continue
            if self._degrade is not None and self._degrade.is_degraded_node(nid):
                continue
            # Inflight tracking: between pop and the end of the visit this
            # node is in neither the worklist nor (necessarily) the table —
            # an abort snapshot taken while it is set re-includes it at the
            # front of the pending list. It is deliberately NOT cleared on
            # the exception path.
            self._inflight = nid
            self._step(nid, work, wps)
            self._inflight = None
            if cp is not None:
                cp.maybe_write(self)
        self._work = None
        self.stats.max_worklist = work.max_size
        cache_after = cache_stats()
        self.scheduler_stats = SchedulerStats.from_worklist(
            work,
            widening_points=len(wps),
            cache_delta=(
                cache_after[0] - cache_before[0],
                cache_after[1] - cache_before[1],
            ),
        )
        space.record_stats(self.stats)
        self._telemetry.merge_fixpoint_stats(self.stats, self.scheduler_stats)
        return self.table

    def _step(self, nid: int, work, wps) -> None:
        """One worklist visit: meter, transfer, table update, propagation."""
        space = self.space
        self.stats.iterations += 1
        try:
            self._tick()
        except BudgetExceeded as exc:
            if self._degrade is None:
                raise
            # Degrade the procedure whose node could not afford its next
            # visit; pending work in other procedures degrades the same
            # way as it is popped (every further tick re-raises), so the
            # loop still terminates and every unconverged procedure ends
            # at the pre-analysis bound.
            newly = self._degrade.degrade_node(nid, self.table, cause=str(exc))
            self._absorb_degraded(newly)
            return
        self.stats.visited.add(nid)
        in_state = space.input_for(nid)
        if in_state is None:
            return
        out = self._apply_transfer(nid, in_state)
        if out is None:
            return
        space.after_transfer(nid, work)
        old = self.table.get(nid)
        if old is None:
            out = space.install(out)
            self.table[nid] = out
            self._entries += len(out)
            changed = None  # everything is new
        elif nid in wps:
            before = len(old)
            changed = old.widen_changed(out, self._thresholds)
            self._entries += len(old) - before
            out = old
        else:
            before = len(old)
            changed = old.join_changed(out)
            self._entries += len(old) - before
            out = old
        if changed is None or changed:
            space.propagate(nid, out, changed, work)

    def preload_table(self, table: Mapping[int, "StateLattice"]) -> None:
        """Seed the engine with an existing table before :meth:`solve` —
        serve's cone solve warm-starts from the retained resident table.
        Unlike :meth:`restore` this installs only the table;
        seeding/worklist behavior is the space's business."""
        self.table = dict(table)
        self._entries = sum(len(s) for s in self.table.values())

    # -- checkpoint/resume -----------------------------------------------------

    def snapshot(self) -> dict:
        """A complete wire-format snapshot of the in-flight run: the state
        table, the pending worklist in pop order (including any inflight
        node), the iteration counters, and the space's private state.
        See DESIGN.md §11 for why this set is sufficient for resume ≡
        uninterrupted equivalence."""
        from repro.runtime.checkpoint import state_to_wire

        pending = list(self._work.pending()) if self._work is not None else []
        if self._inflight is not None and self._inflight not in pending:
            pending.insert(0, self._inflight)
        return {
            "phase": self._phase,
            "iterations": self.stats.iterations,
            "meter_iterations": self._meter.iterations,
            "visited": sorted(self.stats.visited),
            "table": [
                [nid, state_to_wire(state)]
                for nid, state in sorted(self.table.items())
            ],
            "pending": pending,
            "space": self.space.snapshot_extra(),
            "degraded_procs": (
                sorted(self._degrade.degraded_procs)
                if self._degrade is not None
                else []
            ),
        }

    def restore(self, payload: dict) -> None:
        """Reinstall a :meth:`snapshot` payload; the next :meth:`solve`
        continues from the checkpointed worklist instead of the seeds."""
        from repro.runtime.checkpoint import state_from_wire

        self.table = {
            int(nid): state_from_wire(wire) for nid, wire in payload["table"]
        }
        self._entries = sum(len(s) for s in self.table.values())
        self.stats.iterations = int(payload["iterations"])
        self.stats.visited = set(payload["visited"])
        self._meter.iterations = int(payload["meter_iterations"])
        self._resume_pending = [int(n) for n in payload["pending"]]
        self.space.restore_extra(payload.get("space") or {})
        degraded = payload.get("degraded_procs") or []
        if self._degrade is not None and degraded:
            self._degrade.adopt(degraded)
        self.resumed_from_iteration = self.stats.iterations

    def narrow(self, passes: int) -> None:
        """Decreasing iteration: recompute states without widening for a
        bounded number of passes, keeping only sound refinements. Inputs are
        assembled from scratch (:meth:`PropagationSpace.assemble_input`), so
        the kept outputs never alias caches. Narrowing work counts against
        the same budget as the ascending phase; when the budget runs out
        mid-narrowing the widened table — already sound — is kept as-is
        (degrade mode) or the exhaustion is surfaced (fail mode)."""
        order = sorted(self.table.keys())
        for _ in range(passes):
            refined = False
            for nid in order:
                if self._degrade is not None and self._degrade.is_degraded_node(
                    nid
                ):
                    continue
                self.stats.iterations += 1
                try:
                    self._tick()
                except BudgetExceeded as exc:
                    if self._degrade is None:
                        raise
                    self._degrade.diagnostics.events.append(
                        f"narrowing stopped early: {exc}"
                    )
                    return
                in_state = self.space.assemble_input(nid)
                if in_state is None:
                    continue
                out = self._apply_transfer(nid, in_state)
                if out is None:
                    continue
                old = self.table.get(nid)
                if old is None:
                    continue
                if out.leq(old) and not old.leq(out):
                    self.table[nid] = out
                    self._entries += len(out) - len(old)
                    refined = True
            if not refined:
                break
