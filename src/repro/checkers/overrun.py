"""Buffer-overrun checker — SPARROW's flagship client.

Walks every array access (``a[i]``, ``*(p + k)``) in the program and checks
the analysis result: the paper's array abstraction gives every pointer value
a set of blocks ⟨base, offset, size⟩, so an access is *provably safe* when
``0 ≤ offset + index < size`` holds for every block, an *alarm* otherwise.

The checker evaluates access expressions over the *incoming* state of each
control point (the join of predecessor states), which both the dense and
sparse results can reconstruct through their retained graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.analysis.semantics import AnalysisContext, Evaluator
from repro.domains.interval import Interval
from repro.domains.state import AbsState
from repro.domains.value import AbsValue
from repro.ir.cfg import Node
from repro.ir.commands import (
    CAlloc,
    CAssume,
    CCall,
    CReturn,
    CSet,
    DerefLv,
    EAddrOf,
    EBinOp,
    ELval,
    EUnOp,
    Expr,
    FieldLv,
    IndexLv,
    Lval,
)
from repro.ir.program import Program


class Verdict(Enum):
    SAFE = "safe"
    ALARM = "alarm"
    UNKNOWN = "unknown"  # no block information (e.g. external pointer)


@dataclass(frozen=True)
class AccessReport:
    """One checked array access."""

    nid: int
    line: int
    proc: str
    access: str
    verdict: Verdict
    offset: Interval
    size: Interval

    def __str__(self) -> str:
        tag = self.verdict.value.upper()
        return (
            f"[{tag}] line {self.line} ({self.proc}): {self.access} — "
            f"offset {self.offset}, size {self.size}"
        )


def _in_state(result, program: Program, nid: int) -> AbsState:
    """The state the access expression is evaluated under.

    Dense results reconstruct it as the join of predecessor states; sparse
    results assemble it from incoming data dependencies (the access's base
    and index are uses of the node, so their carriers are dependencies).
    """
    state = AbsState()
    deps = getattr(result, "deps", None)
    if deps is not None:
        for src, locs in deps.in_edges(nid):
            src_state = result.table.get(src)
            if src_state is None:
                continue
            for loc in locs:
                value = src_state.get(loc)
                if not value.is_bottom():
                    state.weak_set(loc, value)
        return state
    for pred in result.graph.preds.get(nid, ()):
        ps = result.table.get(pred)
        if ps is not None:
            state.join_with(ps)
    return state


def _judge(offset: Interval, size: Interval) -> Verdict:
    if offset.is_bottom() or size.is_bottom():
        return Verdict.UNKNOWN
    lo_ok = offset.lo is not None and offset.lo >= 0
    hi_ok = (
        offset.hi is not None
        and size.lo is not None
        and offset.hi < size.lo
    )
    if lo_ok and hi_ok:
        return Verdict.SAFE
    return Verdict.ALARM


def check_overruns(program: Program, result) -> list[AccessReport]:
    """Check every array access against an interval analysis's
    :class:`~repro.analysis.engine.FixpointResult`."""
    ctx = AnalysisContext(program, result.pre.site_callees)
    reports: list[AccessReport] = []
    for node in program.nodes():
        accesses = _accesses_of(node)
        if not accesses:
            continue
        state = _in_state(result, program, node.nid)
        ev = Evaluator(ctx, state)
        for base_expr, index_expr, text in accesses:
            base = ev.eval(base_expr)
            index = (
                ev.eval(index_expr).itv
                if index_expr is not None
                else Interval.const(0)
            )
            if not base.arrays:
                verdict = Verdict.UNKNOWN
                reports.append(
                    AccessReport(
                        node.nid,
                        node.line,
                        node.proc,
                        text,
                        verdict,
                        index,
                        Interval.bottom(),
                    )
                )
                continue
            for block in base.arrays:
                effective = block.offset.add(index)
                verdict = _judge(effective, block.size)
                reports.append(
                    AccessReport(
                        node.nid,
                        node.line,
                        node.proc,
                        text,
                        verdict,
                        effective,
                        block.size,
                    )
                )
    return reports


def alarms(reports: list[AccessReport]) -> list[AccessReport]:
    return [r for r in reports if r.verdict is Verdict.ALARM]


def _accesses_of(node: Node) -> list[tuple[Expr, Expr | None, str]]:
    """Collect (base expression, index expression, printable form) for
    every array access the node's command performs."""
    out: list[tuple[Expr, Expr | None, str]] = []
    cmd = node.cmd
    if isinstance(cmd, CSet):
        _access_lval(cmd.lval, out)
        _access_expr(cmd.expr, out)
    elif isinstance(cmd, CAlloc):
        _access_expr(cmd.size, out)
    elif isinstance(cmd, CAssume):
        _access_expr(cmd.cond, out)
    elif isinstance(cmd, CCall):
        for arg in cmd.args:
            _access_expr(arg, out)
    elif isinstance(cmd, CReturn) and cmd.value is not None:
        _access_expr(cmd.value, out)
    return out


# The walkers are module functions, not closures over ``out``: a pair of
# mutually recursive closures is a reference cycle per checked node.
def _access_expr(expr: Expr, out: list) -> None:
    if isinstance(expr, ELval):
        _access_lval(expr.lval, out)
    elif isinstance(expr, EAddrOf):
        _access_lval(expr.lval, out)
    elif isinstance(expr, EBinOp):
        _access_expr(expr.left, out)
        _access_expr(expr.right, out)
    elif isinstance(expr, EUnOp):
        _access_expr(expr.operand, out)


def _access_lval(lval: Lval, out: list) -> None:
    if isinstance(lval, IndexLv):
        _access_expr(lval.base, out)
        _access_expr(lval.index, out)
        out.append((lval.base, lval.index, str(lval)))
    elif isinstance(lval, DerefLv):
        _access_expr(lval.ptr, out)
        # *(p + k) is an array access when p carries blocks.
        out.append((lval.ptr, None, str(lval)))
    elif isinstance(lval, FieldLv):
        _access_lval(lval.base, out)
