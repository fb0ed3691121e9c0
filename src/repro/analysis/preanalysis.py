"""Flow-insensitive pre-analysis (Section 3.2).

Computes a single global abstract state ``ŝ`` that over-approximates every
control point's state::

    F♯_pre = λŝ. ⊔_{c ∈ C} f♯_c(ŝ)

The pre-analysis serves three purposes, exactly as in the paper:

1. it yields the conservative input ``T̂_pre(c)`` from which safe D̂/Û sets
   are derived (Definition 5 / Lemma 3);
2. it resolves function pointers, fixing the call graph before the main
   analysis (Section 5);
3. its pointer component is inclusion-based (Andersen-style) *combined
   with* the numeric analysis, which the paper notes makes it "the most
   precise form of flow-insensitive pointer analysis".

Termination: values are joined for a few rounds, then widened — the global
state forms one big ascending chain. Each round is one application of the
whole-program fold ``F♯_pre``; the rounds stop when a round after the first
moves no entry, or after ``_MAX_ROUNDS`` (the possibly-unconverged state is
kept, as the paper's pre-analysis does).

The fold is *semi-naïve*. Round 1 runs every node's transfer with an
:class:`~repro.analysis.semantics.AccessLog` and indexes, per location, the
nodes that read it. Every later round re-runs only the readers of the
locations whose value differs between the previous two round inputs, in
program order. Skipping a node is exact: its reads did not change, so it
writes the same values as at its last run; those are already ⊑ the round's
accumulator, and ``x.join(v) == x.widen(v) == x`` whenever ``v ⊑ x``. The
global state, the resolved call graph and the round count are therefore
those of the naïve fold that re-runs every node every round.

Within a round, a node's output joins into the accumulator only at the
locations its transfer logged as defined. That is exact too: every write
of :func:`~repro.analysis.semantics.transfer` is logged, and every entry
it did not write is the same object as in the input (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.domains.absloc import AbsLoc
from repro.domains.state import AbsState
from repro.domains.value import BOT
from repro.ir.cfg import Node
from repro.ir.commands import CAssume, CCall
from repro.ir.program import Program
from repro.analysis.semantics import AccessLog, AnalysisContext, transfer
from repro.runtime.budget import Budget, BudgetMeter
from repro.telemetry.core import Telemetry

#: Join-only rounds before switching to widening.
_JOIN_ROUNDS = 3
_MAX_ROUNDS = 60


@dataclass
class PreAnalysis:
    """Result of the flow-insensitive pre-analysis."""

    program: Program
    state: AbsState = field(default_factory=AbsState)
    site_callees: dict[int, tuple[str, ...]] = field(default_factory=dict)
    rounds: int = 0
    #: node transfers the rounds actually ran (skipped readers excluded)
    visits: int = 0

    def callees(self, node: Node) -> tuple[str, ...]:
        return self.site_callees.get(node.nid, ())


def run_preanalysis(
    program: Program,
    budget: Budget | None = None,
    meter: BudgetMeter | None = None,
    telemetry=None,
) -> PreAnalysis:
    """Iterate ``F♯_pre`` to a post-fixpoint.

    A function-pointer call site is re-resolved against the growing global
    state in every round after a location its callee expression reads has
    changed, so the call graph and the invariant converge together.

    The optional ``budget``/``meter`` charge one tick per visited node. The
    pre-analysis is itself the degradation safety net (Lemma 2), so there is
    nothing sound to fall back to when *it* runs out: exhaustion always
    raises :class:`repro.runtime.errors.BudgetExceeded`.
    """
    tel = Telemetry.coerce(telemetry)
    if meter is None:
        meter = BudgetMeter(budget, stage="pre-analysis")
    ctx = AnalysisContext(program, site_callees=None)
    nodes = program.nodes()
    # Assumes only *refine* states; in a flow-insensitive setting they are
    # sound no-ops and skipping them avoids spurious bottom states.
    active = [node for node in nodes if not isinstance(node.cmd, CAssume)]
    #: location → positions in ``active`` of the nodes that have read it
    readers: dict[AbsLoc, set[int]] = {}
    prev: AbsState | None = None
    visits = 0

    def global_round(state: AbsState, acc: AbsState, widening: bool) -> bool:
        """One application of ``F♯_pre``: fold into ``acc`` (a copy of the
        round's input ``state``) the transfers of every node in round 1,
        then of the readers of the locations the previous round changed.
        The meter is charged per visited node. True when an entry of
        ``acc`` moved."""
        nonlocal prev, visits
        if prev is None:
            dirty = range(len(active))
        else:
            hit: set[int] = set()
            for loc, _value in state.delta_items(prev):
                hit.update(readers.get(loc, ()))
            dirty = sorted(hit)
        prev = state
        moved = False
        for i in dirty:
            node = active[i]
            meter.tick()
            visits += 1
            log = AccessLog()
            out = transfer(node, state, ctx, log)
            for loc in log.used:
                readers.setdefault(loc, set()).add(i)
            if out is None:
                continue
            # Join only what the transfer wrote (see the module docstring):
            # an entry it left alone is the same object as in ``state``,
            # and a removed entry (⊥) adds nothing.
            for loc in log.defined:
                value = out.get(loc)
                if value is BOT or value is state.get(loc):
                    continue
                old = acc.get(loc)
                new = old.widen(value) if widening else old.join(value)
                if new != old:
                    acc.set(loc, new)
                    moved = True
        return moved

    with tel.span("pre-analysis") as sp:
        state, rounds = iterate_rounds(global_round)
        result = PreAnalysis(program, state, rounds=rounds, visits=visits)
        for node in nodes:
            if isinstance(node.cmd, CCall):
                result.site_callees[node.nid] = ctx.resolve_callees(node, state)
        sp.set(rounds=rounds, visits=visits, state_size=len(state))
    tel.count("pre.rounds", rounds)
    tel.count("pre.visits", visits)
    tel.gauge("pre.state_size", len(state))
    return result


def iterate_rounds(
    global_round: Callable[[AbsState, AbsState, bool], bool],
    max_rounds: int = _MAX_ROUNDS,
) -> tuple[AbsState, int]:
    """Iterate a global round from ⊥; returns the final state and the
    number of rounds run. ``global_round(state, acc, widening)`` folds one
    application of ``F♯_pre`` over ``state`` into ``acc`` (a copy of it)
    and reports whether an entry of ``acc`` moved. Rounds after the
    ``_JOIN_ROUNDS``-th widen; iteration stops once a round after the
    first moves nothing, or after ``max_rounds`` rounds."""
    state = AbsState()
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        acc = state.copy()
        moved = global_round(state, acc, rounds > _JOIN_ROUNDS)
        state = acc
        if rounds > 1 and not moved:
            break
    return state, rounds
