"""Reference pre-analysis: every round re-runs every node's transfer.

Test-only oracle for :func:`repro.analysis.preanalysis.run_preanalysis`.
It is the plain naïve iteration of ``F♯_pre = λŝ. ⊔_c f♯_c(ŝ)``: each
round folds the transfer of *every* non-assume node over the current
global state, with no read index and no skipping, so the semi-naïve loop
can be checked against it cell by cell (value ``repr``), call site by call
site and round by round. Both folds run under the same round driver,
:func:`~repro.analysis.preanalysis.iterate_rounds`.
"""

from __future__ import annotations

from repro.analysis.preanalysis import _MAX_ROUNDS, PreAnalysis, iterate_rounds
from repro.analysis.semantics import AnalysisContext, transfer
from repro.domains.state import AbsState
from repro.ir.commands import CAssume, CCall
from repro.ir.program import Program


def run_preanalysis_oracle(
    program: Program, max_rounds: int = _MAX_ROUNDS
) -> PreAnalysis:
    """Iterate ``F♯_pre`` naïvely to a post-fixpoint (no budget, no
    telemetry). ``visits`` counts every transfer the rounds ran; a smaller
    ``max_rounds`` stops early, to inspect the state after round N."""
    ctx = AnalysisContext(program, site_callees=None)
    nodes = program.nodes()
    visits = 0

    def global_round(state: AbsState, acc: AbsState, widening: bool) -> bool:
        nonlocal visits
        moved = False
        for node in nodes:
            if isinstance(node.cmd, CAssume):
                continue
            visits += 1
            out = transfer(node, state, ctx)
            if out is None:
                continue
            for loc, value in out.delta_items(state):
                old = acc.get(loc)
                new = old.widen(value) if widening else old.join(value)
                if new != old:
                    acc.set(loc, new)
                    moved = True
        return moved

    state, rounds = iterate_rounds(global_round, max_rounds)
    result = PreAnalysis(program, state, rounds=rounds, visits=visits)
    resolving_ctx = AnalysisContext(program, site_callees=None)
    for node in nodes:
        if isinstance(node.cmd, CCall):
            result.site_callees[node.nid] = resolving_ctx.resolve_callees(
                node, state
            )
    return result
