"""Null-dereference checker.

Flags pointer dereferences whose abstract value may be the null constant:
in the value domain a pointer is ⟨itv, points-to, blocks⟩ and the null
pointer is the integer 0, so a dereference is suspicious when the numeric
part contains 0 — unless a guard (``if (p) …``) has filtered it out —
and *definitely broken* when the value has no targets at all.
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


class NullVerdict(Enum):
    SAFE = "safe"          # has targets, cannot be 0
    MAY_NULL = "may-null"  # has targets but 0 is possible
    NO_TARGET = "no-target"  # nothing to dereference at all


@dataclass(frozen=True)
class NullReport:
    nid: int
    line: int
    proc: str
    expr: str
    verdict: NullVerdict

    def __str__(self) -> str:
        return (
            f"[{self.verdict.value.upper()}] line {self.line} "
            f"({self.proc}): {self.expr}"
        )


def check_null_derefs(program: Program, result) -> list[NullReport]:
    ctx = AnalysisContext(program, result.pre.site_callees)
    reports: list[NullReport] = []
    for node in program.nodes():
        derefs = _derefs_of(node)
        if not derefs:
            continue
        state = _in_state(result, program, node.nid)
        ev = Evaluator(ctx, state)
        for ptr_expr, text in derefs:
            value = ev.eval(ptr_expr)
            has_targets = bool(value.all_pointees())
            may_be_zero = value.itv.may_be_zero()
            if not has_targets and value.itv.is_bottom():
                continue  # dead code: nothing reaches here
            if not has_targets:
                verdict = NullVerdict.NO_TARGET
            elif may_be_zero:
                verdict = NullVerdict.MAY_NULL
            else:
                verdict = NullVerdict.SAFE
            reports.append(
                NullReport(node.nid, node.line, node.proc, text, verdict)
            )
    return reports


def null_alarms(reports: list[NullReport]) -> list[NullReport]:
    return [r for r in reports if r.verdict is not NullVerdict.SAFE]


def _derefs_of(node: Node) -> list[tuple[Expr, str]]:
    out: list[tuple[Expr, str]] = []
    cmd = node.cmd
    if isinstance(cmd, CSet):
        _deref_lval(cmd.lval, out)
        _deref_expr(cmd.expr, out)
    elif isinstance(cmd, CAlloc):
        _deref_expr(cmd.size, out)
    elif isinstance(cmd, CAssume):
        _deref_expr(cmd.cond, out)
    elif isinstance(cmd, CCall):
        for a in cmd.args:
            _deref_expr(a, out)
    elif isinstance(cmd, CReturn) and cmd.value is not None:
        _deref_expr(cmd.value, out)
    return out


# Module functions rather than closures over ``out``, which would make a
# reference cycle per checked node (see ``overrun._access_expr``).
def _deref_expr(e: Expr, out: list[tuple[Expr, str]]) -> None:
    if isinstance(e, ELval):
        _deref_lval(e.lval, out)
    elif isinstance(e, EAddrOf):
        _deref_lval(e.lval, out)
    elif isinstance(e, EBinOp):
        _deref_expr(e.left, out)
        _deref_expr(e.right, out)
    elif isinstance(e, EUnOp):
        _deref_expr(e.operand, out)


def _deref_lval(lv: Lval, out: list[tuple[Expr, str]]) -> None:
    if isinstance(lv, DerefLv):
        out.append((lv.ptr, str(lv)))
        _deref_expr(lv.ptr, out)
    elif isinstance(lv, IndexLv):
        _deref_expr(lv.base, out)
        _deref_expr(lv.index, out)
    elif isinstance(lv, FieldLv):
        _deref_lval(lv.base, out)
