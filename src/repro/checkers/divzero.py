"""Division-by-zero checker.

A second SPARROW-style client on the interval analysis: every ``/`` and
``%`` whose divisor interval may contain zero is reported. Guarded
divisions (``if (n != 0) x / n``) are proven safe through the assume
refinement the analysis already performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.analysis.semantics import AnalysisContext, Evaluator
from repro.checkers.overrun import _in_state
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


class DivVerdict(Enum):
    SAFE = "safe"  # divisor provably nonzero
    ALARM = "alarm"  # divisor may be zero


@dataclass(frozen=True)
class DivReport:
    nid: int
    line: int
    proc: str
    expr: str
    verdict: DivVerdict
    divisor: str

    def __str__(self) -> str:
        return (
            f"[{self.verdict.value.upper()}] line {self.line} "
            f"({self.proc}): {self.expr} — divisor ∈ {self.divisor}"
        )


def check_divisions(program: Program, result) -> list[DivReport]:
    """Check every division/modulo in the program against the analysis."""
    ctx = AnalysisContext(program, result.pre.site_callees)
    reports: list[DivReport] = []
    for node in program.nodes():
        divisions = _divisions_of(node)
        if not divisions:
            continue
        state = _in_state(result, program, node.nid)
        ev = Evaluator(ctx, state)
        for expr in divisions:
            divisor = ev.eval(expr.right)
            itv = divisor.itv
            if itv.is_bottom() and divisor.has_pointers():
                continue  # pointer arithmetic; not a numeric division
            if itv.must_be_nonzero():
                verdict = DivVerdict.SAFE
            else:
                verdict = DivVerdict.ALARM
            reports.append(
                DivReport(
                    node.nid, node.line, node.proc, str(expr), verdict, str(itv)
                )
            )
    return reports


def div_alarms(reports: list[DivReport]) -> list[DivReport]:
    return [r for r in reports if r.verdict is DivVerdict.ALARM]


def _divisions_of(node: Node) -> list[EBinOp]:
    out: list[EBinOp] = []
    cmd = node.cmd
    if isinstance(cmd, CSet):
        _division_lval(cmd.lval, out)
        _division_expr(cmd.expr, out)
    elif isinstance(cmd, CAlloc):
        _division_expr(cmd.size, out)
    elif isinstance(cmd, CAssume):
        _division_expr(cmd.cond, out)
    elif isinstance(cmd, CCall):
        for a in cmd.args:
            _division_expr(a, out)
    elif isinstance(cmd, CReturn) and cmd.value is not None:
        _division_expr(cmd.value, out)
    return out


# Module functions rather than closures over ``out``, which would make a
# reference cycle per checked node (see ``overrun._access_expr``).
def _division_expr(e: Expr, out: list[EBinOp]) -> None:
    if isinstance(e, EBinOp):
        if e.op in ("/", "%"):
            out.append(e)
        _division_expr(e.left, out)
        _division_expr(e.right, out)
    elif isinstance(e, EUnOp):
        _division_expr(e.operand, out)
    elif isinstance(e, ELval):
        _division_lval(e.lval, out)
    elif isinstance(e, EAddrOf):
        _division_lval(e.lval, out)


def _division_lval(lv: Lval, out: list[EBinOp]) -> None:
    if isinstance(lv, DerefLv):
        _division_expr(lv.ptr, out)
    elif isinstance(lv, IndexLv):
        _division_expr(lv.base, out)
        _division_expr(lv.index, out)
    elif isinstance(lv, FieldLv):
        _division_lval(lv.base, out)
