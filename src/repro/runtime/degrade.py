"""Graceful per-procedure degradation to the pre-analysis.

The flow-insensitive pre-analysis state ``ŝ`` over-approximates the state at
*every* control point (Lemma 2), so whenever the main analysis cannot finish
a procedure — its budget ran out, or a transfer function crashed — the
procedure's table entries can be *filled from ``ŝ``* instead of aborting the
whole run: strictly less precise, still sound, always terminating. This is
the in-process analog of the paper's 24-hour timeout rows (Tables 2/3):
where the paper reports ∞ and no result, we report the pre-analysis bound
and say so in :class:`Diagnostics`.

:class:`DegradeController` owns the mechanics (which procedures fell back,
filling tables, the optional soundness watchdog); the solvers decide *when*
(on :class:`~repro.runtime.errors.BudgetExceeded` with ``on_budget=
"degrade"``, or on a transfer crash). Nodes of a degraded procedure are
pinned: solvers skip them for the rest of the run so the fallback state is
never weakened.

This module is engine-agnostic on purpose — fallback states and ⊑-bounds are
injected by the engine (an ``AbsState`` copy of ``ŝ`` for the interval
analyzers, the ⊤ pack map for the octagon analyzers), so it works unchanged
for every state shape that offers ``leq``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.runtime.budget import Budget
from repro.runtime.errors import SoundnessViolation


@dataclass
class Diagnostics:
    """What actually happened during an analysis run.

    ``degraded_procs`` lists procedures whose states were replaced by the
    pre-analysis bound, in degradation order; ``events`` is a human-readable
    trace of every resilience action taken.
    """

    degraded_procs: list[str] = field(default_factory=list)
    iterations: int = 0
    events: list[str] = field(default_factory=list)
    budget: Budget | None = None

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_procs)

    def __str__(self) -> str:
        bits = [f"iterations={self.iterations}"]
        if self.degraded_procs:
            bits.append(f"degraded={','.join(self.degraded_procs)}")
        return "Diagnostics(" + " ".join(bits) + ")"


def make_watchdog(bound) -> Callable[[str, object], None]:
    """A soundness watchdog: every degraded state must be ⊑ ``bound`` (the
    pre-analysis state, or ⊤ for relational packs) — anything above it would
    claim facts Lemma 2 cannot justify."""

    def check(proc: str, state) -> None:
        if not state.leq(bound):
            raise SoundnessViolation(
                f"degraded state for {proc!r} is not bounded by the "
                "pre-analysis state",
                proc=proc,
            )

    return check


class DegradeController:
    """Per-procedure fallback bookkeeping shared by all solvers.

    ``fallback_state`` builds the replacement state for one procedure (called
    at most once per procedure; the returned object is shared read-only by
    every node of that procedure). ``watchdog`` — usually
    :func:`make_watchdog` — vets each fallback state before installation.
    """

    def __init__(
        self,
        program,
        fallback_state: Callable[[str], object],
        diagnostics: Diagnostics | None = None,
        watchdog: Callable[[str, object], None] | None = None,
    ) -> None:
        self.program = program
        self._fallback_state = fallback_state
        self.diagnostics = diagnostics if diagnostics is not None else Diagnostics()
        self._watchdog = watchdog
        self.degraded_procs: set[str] = set()
        self._degraded_nodes: set[int] = set()

    def is_degraded_node(self, nid: int) -> bool:
        return nid in self._degraded_nodes

    def proc_of(self, nid: int) -> str:
        return self.program.node(nid).proc

    def degrade_proc(self, proc: str, table: dict, cause: str | None = None) -> set[int]:
        """Replace every table entry of ``proc`` with the fallback state;
        returns the newly pinned node ids (empty if already degraded)."""
        if proc in self.degraded_procs:
            return set()
        self.degraded_procs.add(proc)
        state = self._fallback_state(proc)
        if self._watchdog is not None:
            self._watchdog(proc, state)
        cfg = self.program.cfgs.get(proc)
        newly: set[int] = set()
        if cfg is not None:
            for node in cfg.nodes:
                table[node.nid] = state
                newly.add(node.nid)
        self._degraded_nodes |= newly
        self.diagnostics.degraded_procs.append(proc)
        self.diagnostics.events.append(
            f"degraded {proc!r} to the pre-analysis state"
            + (f" ({cause})" if cause else "")
        )
        return newly

    def degrade_node(self, nid: int, table: dict, cause: str | None = None) -> set[int]:
        return self.degrade_proc(self.proc_of(nid), table, cause)

    def adopt(self, procs) -> None:
        """Re-pin procedures a checkpoint recorded as degraded, without
        rewriting the table — the restored table already holds their
        fallback states (checkpoint resume path)."""
        for proc in procs:
            if proc in self.degraded_procs:
                continue
            self.degraded_procs.add(proc)
            cfg = self.program.cfgs.get(proc)
            if cfg is not None:
                self._degraded_nodes |= {node.nid for node in cfg.nodes}
            self.diagnostics.degraded_procs.append(proc)
            self.diagnostics.events.append(
                f"resumed with {proc!r} already degraded"
            )


def preanalysis_bound(pre, domain: str):
    """The state the pre-analysis guarantees at every control point: its
    global state for intervals, the ⊤ pack map (no relation claimed) for
    octagons. Degraded procedures fall back to a copy of it."""
    if domain == "interval":
        return pre.state
    from repro.analysis.relational import PackState

    return PackState()

