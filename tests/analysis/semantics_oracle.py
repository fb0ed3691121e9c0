"""Reference abstract semantics: the tree-walking ``f♯_c`` interpreter.

Test-only oracle for :mod:`repro.analysis.semantics`, which compiles each
control point's command into closures once per
:class:`~repro.analysis.semantics.AnalysisContext`. This module keeps the
interpreter those closures replaced: every visit walks the command's
expression and lvalue trees again. It reads only the context's plain facts
(program, ``site_callees``, ``strict``, ``recursive_procs``, the defined
functions), never its compiled code, so a differential test can hold the
two equal on output states and on every :class:`AccessLog` set.
"""

from __future__ import annotations

from repro.analysis.semantics import AccessLog, AnalysisContext
from repro.domains.absloc import (
    AbsLoc,
    AllocLoc,
    FieldLoc,
    FuncLoc,
    RetLoc,
    VarLoc,
)
from repro.domains.interval import BOOL, BOT as ITV_BOT, Interval, ONE, ZERO
from repro.domains.state import AbsState
from repro.domains.value import AbsValue, ArrayBlock, merge_blocks
from repro.ir.cfg import Node
from repro.ir.commands import (
    CAlloc,
    CAssume,
    CCall,
    CEntry,
    CExit,
    CRetBind,
    CReturn,
    CSet,
    CSkip,
    DerefLv,
    EAddrOf,
    EBinOp,
    ELval,
    ENum,
    EStrAddr,
    EUnknown,
    EUnOp,
    Expr,
    FieldLv,
    IndexLv,
    Lval,
    VarLv,
)


def is_summary_loc(ctx: AnalysisContext, loc: AbsLoc) -> bool:
    """Summary = heap/array cells, plus frame cells of recursive
    procedures (many concrete frames share them)."""
    if loc.is_summary():
        return True
    base = loc
    while isinstance(base, FieldLoc):
        base = base.base
    if isinstance(base, VarLoc) and base.proc in ctx.recursive_procs:
        return True
    if isinstance(base, RetLoc) and base.proc in ctx.recursive_procs:
        return True
    return False


def resolve_callees(
    ctx: AnalysisContext,
    node: Node,
    state: AbsState,
    log: AccessLog | None = None,
) -> tuple[str, ...]:
    """Candidate callees of a call node: the context's call graph when it
    has one, else the direct callee, else the defined functions the callee
    expression points to in ``state`` (its reads logged)."""
    cmd = node.cmd
    assert isinstance(cmd, CCall)
    if ctx.site_callees is not None:
        return ctx.site_callees.get(node.nid, ())
    if cmd.static_callee is not None and cmd.static_callee in ctx._defined_funcs:
        return (cmd.static_callee,)
    value = Evaluator(ctx, state, log).eval(cmd.callee)
    names = tuple(
        sorted(
            loc.name
            for loc in value.ptsto
            if isinstance(loc, FuncLoc) and loc.name in ctx._defined_funcs
        )
    )
    return names


_NEGATED = {
    "<": ">=",
    ">": "<=",
    "<=": ">",
    ">=": "<",
    "==": "!=",
    "!=": "==",
}

_SWAPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}


class Evaluator:
    """Evaluates pure IR expressions and lvalues over an abstract state."""

    def __init__(
        self,
        ctx: AnalysisContext,
        state: AbsState,
        log: AccessLog | None = None,
    ) -> None:
        self.ctx = ctx
        self.state = state
        self.log = log

    # -- reads -------------------------------------------------------------------

    def _read(self, loc: AbsLoc) -> AbsValue:
        if self.log is not None:
            self.log.use(loc)
        return self.state.get(loc)

    def eval(self, expr: Expr) -> AbsValue:
        if isinstance(expr, ENum):
            return AbsValue.of_const(expr.value)
        if isinstance(expr, ELval):
            locs = self.lval_locs(expr.lval)
            out = AbsValue.bottom()
            for loc in locs:
                out = out.join(self._read(loc))
            return out
        if isinstance(expr, EAddrOf):
            return self._eval_addrof(expr.lval)
        if isinstance(expr, EStrAddr):
            block = ArrayBlock(
                AllocLoc(f"str:{expr.site}"),
                Interval.const(0),
                Interval.const(expr.length),
            )
            return AbsValue.of_block(block)
        if isinstance(expr, EBinOp):
            return self._eval_binop(expr)
        if isinstance(expr, EUnOp):
            return self._eval_unop(expr)
        if isinstance(expr, EUnknown):
            return AbsValue.top()
        raise TypeError(f"unknown expression {expr!r}")

    def _eval_addrof(self, lval: Lval) -> AbsValue:
        if isinstance(lval, VarLv) and lval.proc is None:
            if lval.name in self.ctx._defined_funcs:
                return AbsValue.of_locs({FuncLoc(lval.name)})
        locs = self.lval_locs(lval)
        return AbsValue.of_locs(frozenset(locs))

    def _eval_binop(self, expr: EBinOp) -> AbsValue:
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        op = expr.op
        if op in ("<", ">", "<=", ">=", "==", "!="):
            if left.has_pointers() or right.has_pointers():
                return AbsValue.of_interval(BOOL)
            return AbsValue.of_interval(left.itv.cmp(op, right.itv))
        if op in ("&&", "||"):
            lt = left.truthiness()
            rt = right.truthiness()
            if op == "&&":
                if lt == ZERO or rt == ZERO:
                    return AbsValue.of_interval(ZERO)
                if lt == ONE and rt == ONE:
                    return AbsValue.of_interval(ONE)
            else:
                if lt == ONE or rt == ONE:
                    return AbsValue.of_interval(ONE)
                if lt == ZERO and rt == ZERO:
                    return AbsValue.of_interval(ZERO)
            return AbsValue.of_interval(BOOL)
        if op in ("+", "-"):
            return self._eval_additive(op, left, right)
        itv = {
            "*": left.itv.mul,
            "/": left.itv.div,
            "%": left.itv.mod,
            "<<": left.itv.shl,
            ">>": left.itv.shr,
            "&": left.itv.bitand,
            "|": left.itv.bitor,
            "^": left.itv.bitxor,
        }[op](right.itv)
        return AbsValue.of_interval(itv)

    def _eval_additive(self, op: str, left: AbsValue, right: AbsValue) -> AbsValue:
        """``+``/``-`` with pointer arithmetic on array blocks."""
        delta = right.itv if op == "+" else right.itv.neg()
        arrays: tuple[ArrayBlock, ...] = ()
        ptsto: frozenset[AbsLoc] = frozenset()
        if left.arrays and not delta.is_bottom():
            arrays = tuple(blk.shift(delta) for blk in left.arrays)
        elif left.arrays:
            arrays = left.arrays
        if op == "+" and right.arrays:
            # int + ptr
            d2 = left.itv
            shifted = tuple(
                blk.shift(d2) if not d2.is_bottom() else blk for blk in right.arrays
            )
            arrays = merge_blocks(arrays, shifted, ArrayBlock.join)
        if left.ptsto:
            ptsto = left.ptsto  # field-insensitive scalar pointer arithmetic
        if op == "+" and right.ptsto:
            ptsto = ptsto | right.ptsto
        if op == "+":
            itv = left.itv.add(right.itv)
        else:
            itv = left.itv.sub(right.itv)
            if left.arrays and right.arrays:
                # pointer difference: offsets' difference
                diffs = ITV_BOT
                for a in left.arrays:
                    for b in right.arrays:
                        if a.base == b.base:
                            diffs = diffs.join(a.offset.sub(b.offset))
                itv = itv.join(diffs)
        return AbsValue(itv=itv, ptsto=ptsto, arrays=arrays)

    def _eval_unop(self, expr: EUnOp) -> AbsValue:
        v = self.eval(expr.operand)
        if expr.op == "-":
            return AbsValue.of_interval(v.itv.neg())
        if expr.op == "+":
            return AbsValue.of_interval(v.itv)
        if expr.op == "!":
            return AbsValue.of_interval(v.truthiness().lnot())
        if expr.op == "~":
            return AbsValue.of_interval(v.itv.bnot())
        raise TypeError(f"unknown unary op {expr.op!r}")

    # -- lvalue resolution -----------------------------------------------------------

    def lval_locs(self, lval: Lval) -> set[AbsLoc]:
        """The abstract locations an lvalue denotes in the current state."""
        if isinstance(lval, VarLv):
            return {VarLoc(lval.name, lval.proc)}
        if isinstance(lval, FieldLv):
            bases = self.lval_locs(lval.base)
            return {FieldLoc(b, lval.fieldname) for b in bases}
        if isinstance(lval, DerefLv):
            value = self.eval(lval.ptr)
            targets = value.all_pointees()
            targets = {t for t in targets if not isinstance(t, FuncLoc)}
            if lval.fieldname is None:
                return targets
            return {FieldLoc(t, lval.fieldname) for t in targets}
        if isinstance(lval, IndexLv):
            base = self.eval(lval.base)
            self.eval(lval.index)  # index is used (and checked elsewhere)
            targets: set[AbsLoc] = {blk.base for blk in base.arrays}
            targets.update(
                t for t in base.ptsto if not isinstance(t, FuncLoc)
            )
            return targets
        raise TypeError(f"unknown lvalue {lval!r}")


def transfer(
    node: Node,
    state: AbsState,
    ctx: AnalysisContext,
    log: AccessLog | None = None,
) -> AbsState | None:
    """Apply ``f♯_c`` for control point ``node`` to ``state``.

    Returns the output state, or None when the state is proven unreachable
    (a definitely-false assume). ``state`` is not mutated.
    """
    cmd = node.cmd
    if isinstance(cmd, (CSkip, CEntry, CExit)):
        return state
    out = state.copy()
    ev = Evaluator(ctx, state, log)

    if isinstance(cmd, CSet):
        value = ev.eval(cmd.expr)
        locs = ev.lval_locs(cmd.lval)
        _write(out, locs, value, log, ev, pointer_target=_state_dependent(cmd.lval))
        return out

    if isinstance(cmd, CAlloc):
        size = ev.eval(cmd.size)
        base = AllocLoc(cmd.site)
        block = ArrayBlock(base, Interval.const(0), size.itv)
        locs = ev.lval_locs(cmd.lval)
        _write(
            out,
            locs,
            AbsValue.of_block(block),
            log,
            ev,
            pointer_target=_state_dependent(cmd.lval),
        )
        # Blocks are zero-initialized (calloc model, matching C globals and
        # the concrete interpreter): the summary element must include 0 or
        # reads-before-writes would be under-approximated.
        out.weak_set(base, AbsValue.of_const(0))
        if log is not None:
            log.define({base})
            log.use(base)
        return out

    if isinstance(cmd, CAssume):
        return _assume(out, cmd, ctx, log)

    if isinstance(cmd, CCall):
        callees = resolve_callees(ctx, node, state, log)
        for callee in callees:
            info = ctx.program.proc_infos.get(callee)
            if info is None:
                continue
            for i, param in enumerate(info.params):
                loc = VarLoc(param, callee)
                value = (
                    ev.eval(cmd.args[i]) if i < len(cmd.args) else AbsValue.top()
                )
                _write(out, {loc}, value, log, ev)
        if not callees:
            # External call: arguments are still evaluated (their reads are
            # real uses); the call itself has no modelled side effect.
            for arg in cmd.args:
                ev.eval(arg)
        return out

    if isinstance(cmd, CRetBind):
        call_node = ctx.program.node(cmd.call_node)
        callees = resolve_callees(ctx, call_node, state, log)
        if cmd.lval is None:
            # Still a use of the return locations (they flow to the caller).
            for callee in callees:
                ev._read(RetLoc(callee))
            return out
        if callees:
            value = AbsValue.bottom()
            for callee in callees:
                value = value.join(ev._read(RetLoc(callee)))
        else:
            value = AbsValue.top()  # unknown external procedure result
        locs = ev.lval_locs(cmd.lval)
        _write(out, locs, value, log, ev)
        return out

    if isinstance(cmd, CReturn):
        loc = RetLoc(node.proc)
        value = ev.eval(cmd.value) if cmd.value is not None else AbsValue.bottom()
        # Multiple returns join along control flow, so each return may write
        # its own value strongly — but exits of recursive procedures see
        # interleaved states, so the weak flavour is the safe default.
        _write(out, {loc}, value, log, ev, weak=True)
        return out

    raise TypeError(f"unknown command {cmd!r}")


def _state_dependent(lval: Lval) -> bool:
    """True when the lvalue's target set depends on the abstract state
    (pointer dereference or array indexing somewhere in the access path)."""
    if isinstance(lval, (DerefLv, IndexLv)):
        return True
    if isinstance(lval, FieldLv):
        return _state_dependent(lval.base)
    return False


def _write(
    state: AbsState,
    locs: set[AbsLoc],
    value: AbsValue,
    log: AccessLog | None,
    ev: Evaluator,
    weak: bool = False,
    pointer_target: bool = False,
) -> None:
    """Strong/weak update with Definition 1/2-faithful logging.

    Weakly updated targets are also *used* (their old value flows into the
    new). Writes through pointers (``pointer_target``) log their targets as
    used even when the update is strong — the paper's Û for ``*x := e``
    always contains ``ŝ_c(x).P̂`` — because the pre-analysis target set may
    shrink to a pass-through at analysis time. Only strong writes to
    statically-known locations seed the must-def analysis.
    """
    locs = set(locs)
    if log is not None:
        log.define(locs)
    is_weak = (
        weak
        or len(locs) != 1
        or any(is_summary_loc(ev.ctx, l) for l in locs)
    )
    if is_weak or pointer_target:
        if log is not None:
            for loc in locs:
                log.use(loc)
    if is_weak:
        for loc in locs:
            state.weak_set(loc, value)
    else:
        (loc,) = locs
        if log is not None and not pointer_target:
            log.strong_defined.add(loc)
        state.set(loc, value)


def _assume(
    state: AbsState,
    cmd: CAssume,
    ctx: AnalysisContext,
    log: AccessLog | None,
) -> AbsState | None:
    ev = Evaluator(ctx, state, log)
    cond = cmd.cond
    positive = cmd.positive
    # Unwrap double negations introduced by source-level `!`.
    while isinstance(cond, EUnOp) and cond.op == "!":
        cond = cond.operand
        positive = not positive

    if ctx.strict:
        truth = ev.eval(cond).truthiness()
        if truth.is_bottom():
            return None
        if positive and truth == ZERO:
            return None
        if not positive and truth == ONE:
            return None

    if isinstance(cond, EBinOp) and cond.op in _NEGATED:
        op = cond.op if positive else _NEGATED[cond.op]
        _refine_cmp(state, ctx, cond.left, op, cond.right, log)
        return state
    # Truthiness conditions: assume(e) refines e != 0; assume(!e) refines == 0.
    op = "!=" if positive else "=="
    _refine_cmp(state, ctx, cond, op, ENum(0), log)
    return state


def _refine_cmp(
    state: AbsState,
    ctx: AnalysisContext,
    left: Expr,
    op: str,
    right: Expr,
    log: AccessLog | None,
) -> None:
    """Refine the state with ``left op right``: when either side is a
    single-location lvalue read, its interval is filtered (the paper's
    ``{x < n}`` semantics — note the refined location is both used *and*
    defined)."""
    ev = Evaluator(ctx, state, log)
    right_v = ev.eval(right)
    _filter_side(state, ctx, left, op, right_v, log)
    left_v = ev.eval(left)
    _filter_side(state, ctx, right, _SWAPPED[op], left_v, log)


def _filter_side(
    state: AbsState,
    ctx: AnalysisContext,
    side: Expr,
    op: str,
    other: AbsValue,
    log: AccessLog | None,
) -> None:
    if not isinstance(side, ELval):
        return
    ev = Evaluator(ctx, state, log)
    locs = ev.lval_locs(side.lval)
    if len(locs) != 1:
        return
    (loc,) = locs
    if is_summary_loc(ctx, loc):
        return  # refinement is a strong write; unsound on summaries
    old = state.get(loc)
    if log is not None:
        log.use(loc)
        log.define({loc})
    if other.has_pointers():
        return  # comparisons against pointers don't refine numerics
    new_itv = old.itv.filter(op, other.itv)
    state.set(loc, AbsValue(itv=new_itv, ptsto=old.ptsto, arrays=old.arrays))
