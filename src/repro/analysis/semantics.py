"""Abstract semantics ``f♯_c`` of the non-relational (interval × points-to)
analysis — Section 3.1 of the paper, extended to the C features SPARROW
handles: arrays (block smashing with base/offset/size), field-sensitive
structs, allocation-site heap, function pointers, and interprocedural
argument/return binding.

The same semantics serves three masters:

* the dense and sparse fixpoint engines (transfer functions),
* the flow-insensitive pre-analysis (same functions over one global state),
* the D̂/Û approximation (every location read or written can be recorded in
  an :class:`AccessLog` — this is the semantics-based def/use derivation of
  Section 3.2, including the *implicit use* of weakly-updated targets).

**Compiled transfer functions.** Every analysis layer runs ``f♯_c`` many
times per control point, so the IR is not interpreted on each visit. The
first time an :class:`AnalysisContext` needs a control point's command, an
expression or an lvalue, it compiles it into a Python closure
``(state, log) -> result``. Everything static is decided at compile time:
the canonical location of a variable lvalue (and of fields of it), the
interned value of a constant, the interval function of each operator,
whether a write to a static target is strong or weak, the callees of a
call site whose callees the context fixes, and the ``!``-unwrapping of an
``assume``. What depends on the state — pointer targets, array blocks,
callees resolved through function pointers — is computed by the closure
on each call, and the summary-ness of those targets is decided once per
location and context.

Expressions and lvalues mean the same in every context, so their closures
are kept in the program's ``compiled_terms`` and shared by all its
contexts; commands depend on the context (strictness, call graph,
recursive procedures), so their closures are kept by the context. No
closure refers back to its context or program, so both are freed as soon
as they are unreachable, and nothing compiled outlives the program.
``tests/analysis/semantics_oracle.py`` keeps the tree-walking interpreter
this replaced; a differential test holds the two equal on outputs and on
every :class:`AccessLog` set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.domains.absloc import (
    AbsLoc,
    AllocLoc,
    FieldLoc,
    FuncLoc,
    RetLoc,
    VarLoc,
)
from repro.domains.interval import (
    BOOL,
    BOT as ITV_BOT,
    CMP_OPS,
    FILTER_OPS,
    ONE,
    ZERO,
    Interval,
)
from repro.domains.state import AbsState
from repro.domains.value import (
    BOT,
    TOP_NUM,
    AbsValue,
    ArrayBlock,
    intern_value,
    merge_blocks,
)
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
from repro.ir.program import Program

_NEGATED = {
    "<": ">=",
    ">": "<=",
    "<=": ">",
    ">=": "<",
    "==": "!=",
    "!=": "==",
}

_SWAPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}

#: interval functions of the arithmetic operators without pointer cases
_ARITH_OPS = {
    "*": Interval.mul,
    "/": Interval.div,
    "%": Interval.mod,
    "<<": Interval.shl,
    ">>": Interval.shr,
    "&": Interval.bitand,
    "|": Interval.bitor,
    "^": Interval.bitxor,
}

_V_ZERO = intern_value(AbsValue(ZERO))
_V_ONE = intern_value(AbsValue(ONE))
_V_BOOL = intern_value(AbsValue(BOOL))


@dataclass
class AccessLog:
    """Records the abstract locations a transfer function reads/writes.

    ``used`` follows Definition 2: every location whose value influences the
    output *including* weakly-updated targets (their old value survives into
    the new one). ``defined`` follows Definition 1. ``strong_defined`` are
    killing writes (single non-summary target, old value discarded) — the
    seeds of the must-def analysis that lets calls kill definitions.
    """

    used: set[AbsLoc] = field(default_factory=set)
    defined: set[AbsLoc] = field(default_factory=set)
    strong_defined: set[AbsLoc] = field(default_factory=set)

    def use(self, loc: AbsLoc) -> None:
        self.used.add(loc)

    def define(self, locs: Iterable[AbsLoc]) -> None:
        self.defined.update(locs)


#: a compiled expression: its value in a state, reads logged
ExprFn = Callable[[AbsState, "AccessLog | None"], AbsValue]
#: a compiled state-dependent lvalue: the (fresh) set of locations it
#: denotes in a state, reads of the access path logged
LocsFn = Callable[[AbsState, "AccessLog | None"], set[AbsLoc]]
#: a compiled lvalue: its one location when static, else its ``LocsFn``
CompiledLval = tuple["AbsLoc | None", "LocsFn | None"]
#: a compiled transfer function: ``f♯_c`` of one control point
TransferFn = Callable[[AbsState, "AccessLog | None"], "AbsState | None"]
#: a compiled static write: ``(out, value, log)``
WriteFn = Callable[[AbsState, AbsValue, "AccessLog | None"], None]
#: a call site's callees: fixed names, or how to resolve them in a state
Callees = tuple["tuple[str, ...] | None", Callable]


class AnalysisContext:
    """Whole-program facts the transfer functions need, and the code
    compiled from the program under them.

    ``strict`` selects the treatment of definitely-false branch conditions:
    strict transfer functions map them to unreachable (``None``), matching a
    worklist engine that prunes dead paths; non-strict ones return the
    refined state (with ⊥ values inside), matching the paper's formulation
    ``F♯(X)(c) = f♯_c(⊔ X(c'))`` where states are always defined.
    """

    def __init__(
        self,
        program: Program,
        site_callees: dict[int, tuple[str, ...]] | None = None,
        strict: bool = True,
    ) -> None:
        self.program = program
        self.site_callees = site_callees
        self.strict = strict
        self._defined_funcs = program.defined_functions()
        # Locals of recursive procedures are *summary* cells: one abstract
        # location stands for every live frame, so only weak updates (and
        # no assume refinement) are sound for them.
        from repro.ir.callgraph import build_callgraph

        resolve = None
        if site_callees is not None:
            mapping = site_callees
            resolve = lambda node: mapping.get(node.nid, ())
        self.recursive_procs = build_callgraph(
            program, resolve=resolve
        ).recursive_procs()
        # Compiled code, made on first use. Nodes are keyed by id and
        # checked by identity (a test may build its own node under an id
        # the program uses); terms by structure, so equal subterms of
        # different commands share one closure.
        self._terms: dict = program.compiled_terms
        self._transfers: dict[int, tuple[Node, TransferFn]] = {}
        self._is_summary = _summary_test(self.recursive_procs)
        self._writer = _writer_cache(self._is_summary)
        self._write_through = _targets_writer(self._is_summary, True)
        self._write_targets = _targets_writer(self._is_summary, False)

    def is_summary_loc(self, loc: AbsLoc) -> bool:
        """Summary = heap/array cells, plus frame cells of recursive
        procedures (many concrete frames share them)."""
        return self._is_summary(loc)

    def resolve_callees(
        self, node: Node, state: AbsState, log: AccessLog | None = None
    ) -> tuple[str, ...]:
        """Candidate callees of a call node.

        Uses the pre-resolved call graph when available (Section 5: function
        pointers are resolved by the flow-insensitive pre-analysis);
        otherwise resolves from the current state — which is exactly what
        the pre-analysis itself does while its global invariant grows. The
        function-pointer reads of that resolution are recorded in ``log``.
        """
        fixed, resolve = _compile_callees(self, node)
        return fixed if fixed is not None else resolve(state, log)

    # -- compiled code, cached for the context's lifetime -------------------------

    def _transfer_fn(self, node: Node) -> TransferFn:
        entry = self._transfers.get(node.nid)
        if entry is None or entry[0] is not node:
            entry = self._transfers[node.nid] = (node, _compile_transfer(self, node))
        return entry[1]

    def _expr(self, expr: Expr) -> ExprFn:
        fn = self._terms.get(expr)
        if fn is None:
            fn = self._terms[expr] = _compile_expr(self, expr)
        return fn

    def _lval(self, lval: Lval) -> CompiledLval:
        found = self._terms.get(lval)
        if found is None:
            found = self._terms[lval] = _compile_lval(self, lval)
        return found


def _summary_test(recursive_procs: set[str]) -> Callable[[AbsLoc], bool]:
    """``is_summary_loc`` for one set of recursive procedures, answered
    once per location."""
    cache: dict[AbsLoc, bool] = {}

    def is_summary(loc: AbsLoc) -> bool:
        found = cache.get(loc)
        if found is None:
            base = loc
            while isinstance(base, FieldLoc):
                base = base.base
            found = cache[loc] = loc.is_summary() or (
                isinstance(base, (VarLoc, RetLoc)) and base.proc in recursive_procs
            )
        return found

    return is_summary


def _writer_cache(
    is_summary: Callable[[AbsLoc], bool]
) -> Callable[[AbsLoc, bool], WriteFn]:
    """``writer(loc, weak)``: the write of a value to the static location
    ``loc`` — strong unless ``weak`` or ``loc`` is a summary — made once
    per location and flavour."""
    writers: dict[tuple[AbsLoc, bool], WriteFn] = {}

    def writer(loc: AbsLoc, weak: bool) -> WriteFn:
        fn = writers.get((loc, weak))
        if fn is None:
            fn = writers[loc, weak] = _static_writer(loc, weak or is_summary(loc))
        return fn

    return writer


def _static_writer(loc: AbsLoc, weak: bool) -> WriteFn:
    """A strong or weak update of ``loc`` with Definition 1/2-faithful
    logging: a weak write also *uses* its target (its old value flows into
    the new), and a strong one seeds the must-def analysis."""
    if weak:

        def write_weak(out: AbsState, value: AbsValue, log: AccessLog | None) -> None:
            if log is not None:
                log.defined.add(loc)
                log.used.add(loc)
            out.weak_set(loc, value)

        return write_weak

    def write_strong(out: AbsState, value: AbsValue, log: AccessLog | None) -> None:
        if log is not None:
            log.defined.add(loc)
            log.strong_defined.add(loc)
        out.set(loc, value)

    return write_strong


def _targets_writer(is_summary: Callable[[AbsLoc], bool], pointer_target: bool):
    """``write(out, locs, value, log)``: the update of a state-dependent
    target set — strong only for a single non-summary target.

    Writes through pointers (``pointer_target``) log their targets as used
    even when the update is strong — the paper's Û for ``*x := e`` always
    contains ``ŝ_c(x).P̂`` — because the pre-analysis target set may shrink
    to a pass-through at analysis time; they never seed the must-def
    analysis.
    """

    def write(
        out: AbsState, locs: set[AbsLoc], value: AbsValue, log: AccessLog | None
    ) -> None:
        if log is not None:
            log.defined.update(locs)
        if len(locs) == 1:
            (loc,) = locs
            if not is_summary(loc):
                if log is not None:
                    if pointer_target:
                        log.used.add(loc)
                    else:
                        log.strong_defined.add(loc)
                out.set(loc, value)
                return
        if log is not None:
            log.used.update(locs)
        for loc in locs:
            out.weak_set(loc, value)

    return write


class Evaluator:
    """Evaluates pure IR expressions and lvalues over an abstract state,
    through the context's compiled code."""

    __slots__ = ("ctx", "state", "log")

    def __init__(
        self,
        ctx: AnalysisContext,
        state: AbsState,
        log: AccessLog | None = None,
    ) -> None:
        self.ctx = ctx
        self.state = state
        self.log = log

    def eval(self, expr: Expr) -> AbsValue:
        return self.ctx._expr(expr)(self.state, self.log)

    def lval_locs(self, lval: Lval) -> set[AbsLoc]:
        """The abstract locations an lvalue denotes in the current state."""
        loc, locs_fn = self.ctx._lval(lval)
        if loc is not None:
            return {loc}
        return locs_fn(self.state, self.log)  # type: ignore[misc]


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
    return ctx._transfer_fn(node)(state, log)


# -- expressions -----------------------------------------------------------------


def _constant(value: AbsValue) -> ExprFn:
    value = intern_value(value)

    def constant(state: AbsState, log: AccessLog | None) -> AbsValue:
        return value

    return constant


def _bool_value(itv: Interval) -> AbsValue:
    """``AbsValue(itv)`` for a boolean interval, without building the
    three values every comparison returns."""
    if itv is ONE:
        return _V_ONE
    if itv is ZERO:
        return _V_ZERO
    if itv is BOOL:
        return _V_BOOL
    if itv is ITV_BOT:
        return BOT
    return AbsValue(itv)


def _compile_expr(ctx: AnalysisContext, expr: Expr) -> ExprFn:
    if isinstance(expr, ENum):
        return _constant(AbsValue(Interval(expr.value, expr.value)))
    if isinstance(expr, ELval):
        return _compile_read(ctx, expr.lval)
    if isinstance(expr, EAddrOf):
        return _compile_addrof(ctx, expr.lval)
    if isinstance(expr, EStrAddr):
        block = ArrayBlock(
            AllocLoc(f"str:{expr.site}"), ZERO, Interval.const(expr.length)
        )
        return _constant(AbsValue(arrays=(block,)))
    if isinstance(expr, EBinOp):
        return _compile_binop(ctx, expr)
    if isinstance(expr, EUnOp):
        return _compile_unop(ctx, expr)
    if isinstance(expr, EUnknown):
        return _constant(TOP_NUM)
    raise TypeError(f"unknown expression {expr!r}")


def _compile_read(ctx: AnalysisContext, lval: Lval) -> ExprFn:
    loc, locs_fn = ctx._lval(lval)
    if loc is not None:

        def read(state: AbsState, log: AccessLog | None) -> AbsValue:
            if log is not None:
                log.used.add(loc)
            return state.get(loc)

        return read

    def read_targets(state: AbsState, log: AccessLog | None) -> AbsValue:
        out = BOT
        for target in locs_fn(state, log):
            if log is not None:
                log.used.add(target)
            out = out.join(state.get(target))
        return out

    return read_targets


def _compile_addrof(ctx: AnalysisContext, lval: Lval) -> ExprFn:
    if (
        isinstance(lval, VarLv)
        and lval.proc is None
        and lval.name in ctx._defined_funcs
    ):
        return _constant(AbsValue(ptsto=frozenset({FuncLoc(lval.name)})))
    loc, locs_fn = ctx._lval(lval)
    if loc is not None:
        return _constant(AbsValue(ptsto=frozenset({loc})))

    def addrof(state: AbsState, log: AccessLog | None) -> AbsValue:
        return AbsValue(ptsto=frozenset(locs_fn(state, log)))

    return addrof


def _compile_binop(ctx: AnalysisContext, expr: EBinOp) -> ExprFn:
    left_fn = ctx._expr(expr.left)
    right_fn = ctx._expr(expr.right)
    op = expr.op
    if op in CMP_OPS:
        compare = CMP_OPS[op]

        def cmp(state: AbsState, log: AccessLog | None) -> AbsValue:
            left = left_fn(state, log)
            right = right_fn(state, log)
            if left.ptsto or left.arrays or right.ptsto or right.arrays:
                return _V_BOOL
            return _bool_value(compare(left.itv, right.itv))

        return cmp
    if op == "&&":

        def land(state: AbsState, log: AccessLog | None) -> AbsValue:
            lt = left_fn(state, log).truthiness()
            rt = right_fn(state, log).truthiness()
            if lt == ZERO or rt == ZERO:
                return _V_ZERO
            if lt == ONE and rt == ONE:
                return _V_ONE
            return _V_BOOL

        return land
    if op == "||":

        def lor(state: AbsState, log: AccessLog | None) -> AbsValue:
            lt = left_fn(state, log).truthiness()
            rt = right_fn(state, log).truthiness()
            if lt == ONE or rt == ONE:
                return _V_ONE
            if lt == ZERO and rt == ZERO:
                return _V_ZERO
            return _V_BOOL

        return lor
    if op in ("+", "-"):
        numeric = Interval.add if op == "+" else Interval.sub

        def additive(state: AbsState, log: AccessLog | None) -> AbsValue:
            left = left_fn(state, log)
            right = right_fn(state, log)
            if left.ptsto or left.arrays or right.ptsto or right.arrays:
                return _pointer_additive(op, left, right)
            return AbsValue(numeric(left.itv, right.itv))

        return additive
    arith = _ARITH_OPS.get(op)
    if arith is None:
        raise TypeError(f"unknown binary op {op!r}")

    def binop(state: AbsState, log: AccessLog | None) -> AbsValue:
        return AbsValue(arith(left_fn(state, log).itv, right_fn(state, log).itv))

    return binop


def _pointer_additive(op: str, left: AbsValue, right: AbsValue) -> AbsValue:
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


def _compile_unop(ctx: AnalysisContext, expr: EUnOp) -> ExprFn:
    operand = ctx._expr(expr.operand)
    op = expr.op
    if op == "!":

        def lnot(state: AbsState, log: AccessLog | None) -> AbsValue:
            return _bool_value(operand(state, log).truthiness().lnot())

        return lnot
    if op == "+":

        def plus(state: AbsState, log: AccessLog | None) -> AbsValue:
            return AbsValue(operand(state, log).itv)

        return plus
    if op == "-":
        numeric = Interval.neg
    elif op == "~":
        numeric = Interval.bnot
    else:
        raise TypeError(f"unknown unary op {op!r}")

    def unop(state: AbsState, log: AccessLog | None) -> AbsValue:
        return AbsValue(numeric(operand(state, log).itv))

    return unop


# -- lvalues ---------------------------------------------------------------------


def _compile_lval(ctx: AnalysisContext, lval: Lval) -> CompiledLval:
    """A variable, or a field path over one, denotes one location known
    now; a dereference or an index (anywhere in the access path) denotes
    the targets its pointer value has in the state."""
    if isinstance(lval, VarLv):
        return VarLoc(lval.name, lval.proc), None
    if isinstance(lval, FieldLv):
        base_loc, base_fn = ctx._lval(lval.base)
        name = lval.fieldname
        if base_loc is not None:
            return FieldLoc(base_loc, name), None

        def fields(state: AbsState, log: AccessLog | None) -> set[AbsLoc]:
            return {FieldLoc(b, name) for b in base_fn(state, log)}

        return None, fields
    if isinstance(lval, DerefLv):
        ptr_fn = ctx._expr(lval.ptr)
        name = lval.fieldname

        def deref(state: AbsState, log: AccessLog | None) -> set[AbsLoc]:
            value = ptr_fn(state, log)
            targets = {t for t in value.ptsto if not isinstance(t, FuncLoc)}
            for blk in value.arrays:
                if not isinstance(blk.base, FuncLoc):
                    targets.add(blk.base)
            if name is None:
                return targets
            return {FieldLoc(t, name) for t in targets}

        return None, deref
    if isinstance(lval, IndexLv):
        base_fn = ctx._expr(lval.base)
        index_fn = ctx._expr(lval.index)

        def element(state: AbsState, log: AccessLog | None) -> set[AbsLoc]:
            value = base_fn(state, log)
            if log is not None:
                index_fn(state, log)  # the index is used (checked elsewhere)
            targets = {blk.base for blk in value.arrays}
            targets.update(t for t in value.ptsto if not isinstance(t, FuncLoc))
            return targets

        return None, element
    raise TypeError(f"unknown lvalue {lval!r}")


# -- commands --------------------------------------------------------------------


def _unchanged(state: AbsState, log: AccessLog | None) -> AbsState:
    return state


def _compile_transfer(ctx: AnalysisContext, node: Node) -> TransferFn:
    cmd = node.cmd
    if isinstance(cmd, (CSkip, CEntry, CExit)):
        return _unchanged
    if isinstance(cmd, CSet):
        return _compile_set(ctx, cmd)
    if isinstance(cmd, CAlloc):
        return _compile_alloc(ctx, cmd)
    if isinstance(cmd, CAssume):
        return _compile_assume(ctx, cmd)
    if isinstance(cmd, CCall):
        return _compile_call(ctx, node, cmd)
    if isinstance(cmd, CRetBind):
        return _compile_retbind(ctx, cmd)
    if isinstance(cmd, CReturn):
        return _compile_return(ctx, node, cmd)
    raise TypeError(f"unknown command {cmd!r}")


def _compile_set(ctx: AnalysisContext, cmd: CSet) -> TransferFn:
    value_fn = ctx._expr(cmd.expr)
    loc, locs_fn = ctx._lval(cmd.lval)
    if loc is not None:
        write = ctx._writer(loc, False)

        def assign(state: AbsState, log: AccessLog | None) -> AbsState:
            value = value_fn(state, log)
            out = state.copy()
            write(out, value, log)
            return out

        return assign
    write_through = ctx._write_through

    def assign_through(state: AbsState, log: AccessLog | None) -> AbsState:
        value = value_fn(state, log)
        locs = locs_fn(state, log)
        out = state.copy()
        write_through(out, locs, value, log)
        return out

    return assign_through


def _compile_alloc(ctx: AnalysisContext, cmd: CAlloc) -> TransferFn:
    size_fn = ctx._expr(cmd.size)
    base = AllocLoc(cmd.site)
    zero = _V_ZERO
    loc, locs_fn = ctx._lval(cmd.lval)
    write = ctx._writer(loc, False) if loc is not None else None
    write_through = ctx._write_through

    def alloc(state: AbsState, log: AccessLog | None) -> AbsState:
        size = size_fn(state, log)
        value = AbsValue(arrays=(ArrayBlock(base, ZERO, size.itv),))
        out = state.copy()
        if write is not None:
            write(out, value, log)
        else:
            write_through(out, locs_fn(state, log), value, log)
        # Blocks are zero-initialized (calloc model, matching C globals and
        # the concrete interpreter): the summary element must include 0 or
        # reads-before-writes would be under-approximated.
        out.weak_set(base, zero)
        if log is not None:
            log.defined.add(base)
            log.used.add(base)
        return out

    return alloc


def _compile_assume(ctx: AnalysisContext, cmd: CAssume) -> TransferFn:
    cond = cmd.cond
    positive = cmd.positive
    # Unwrap double negations introduced by source-level `!`.
    while isinstance(cond, EUnOp) and cond.op == "!":
        cond = cond.operand
        positive = not positive

    if isinstance(cond, EBinOp) and cond.op in _NEGATED:
        op = cond.op if positive else _NEGATED[cond.op]
        refine = _compile_refine(ctx, cond.left, op, cond.right)
    else:
        # Truthiness conditions: assume(e) refines e != 0; assume(!e) == 0.
        refine = _compile_refine(ctx, cond, "!=" if positive else "==", ENum(0))

    if not ctx.strict:

        def assume(state: AbsState, log: AccessLog | None) -> AbsState:
            out = state.copy()
            refine(out, log)
            return out

        return assume

    cond_fn = ctx._expr(cond)
    dead = ZERO if positive else ONE

    def assume_strict(state: AbsState, log: AccessLog | None) -> AbsState | None:
        truth = cond_fn(state, log).truthiness()
        if truth.empty or truth == dead:
            return None
        out = state.copy()
        refine(out, log)
        return out

    return assume_strict


def _compile_refine(
    ctx: AnalysisContext, left: Expr, op: str, right: Expr
) -> Callable[[AbsState, "AccessLog | None"], None]:
    """Refine a state in place with ``left op right``: when either side is
    a single-location lvalue read, its interval is filtered (the paper's
    ``{x < n}`` semantics — note the refined location is both used *and*
    defined). The right side is evaluated before the left is filtered and
    the left after, as both read the state being refined."""
    left_fn = ctx._expr(left)
    right_fn = ctx._expr(right)
    filter_left = _compile_filter(ctx, left, op)
    filter_right = _compile_filter(ctx, right, _SWAPPED[op])

    def refine(state: AbsState, log: AccessLog | None) -> None:
        if filter_left is not None:
            filter_left(state, right_fn(state, log), log)
        elif log is not None:
            right_fn(state, log)
        if filter_right is not None:
            filter_right(state, left_fn(state, log), log)
        elif log is not None:
            left_fn(state, log)

    return refine


def _compile_filter(ctx: AnalysisContext, side: Expr, op: str):
    """``(state, other, log)`` refining ``side`` by ``side op other``, or
    None when ``side`` can never be refined (not an lvalue read, or a
    static summary cell: refinement is a strong write)."""
    if not isinstance(side, ELval):
        return None
    refine = FILTER_OPS[op]
    loc, locs_fn = ctx._lval(side.lval)

    def narrow(state: AbsState, loc: AbsLoc, other: AbsValue, log) -> None:
        old = state.get(loc)
        if log is not None:
            log.used.add(loc)
            log.defined.add(loc)
        if other.ptsto or other.arrays:
            return  # comparisons against pointers don't refine numerics
        state.set(loc, AbsValue(refine(old.itv, other.itv), old.ptsto, old.arrays))

    if loc is not None:
        if ctx.is_summary_loc(loc):
            return None
        static = loc

        def filter_var(state: AbsState, other: AbsValue, log) -> None:
            narrow(state, static, other, log)

        return filter_var
    is_summary = ctx._is_summary

    def filter_target(state: AbsState, other: AbsValue, log) -> None:
        locs = locs_fn(state, log)
        if len(locs) != 1:
            return
        (target,) = locs
        if not is_summary(target):
            narrow(state, target, other, log)

    return filter_target


def _compile_callees(ctx: AnalysisContext, node: Node) -> Callees:
    cmd = node.cmd
    assert isinstance(cmd, CCall)
    if ctx.site_callees is not None:
        return ctx.site_callees.get(node.nid, ()), None
    if cmd.static_callee is not None and cmd.static_callee in ctx._defined_funcs:
        return (cmd.static_callee,), None
    callee_fn = ctx._expr(cmd.callee)
    defined = ctx._defined_funcs

    def resolve(state: AbsState, log: AccessLog | None) -> tuple[str, ...]:
        value = callee_fn(state, log)
        return tuple(
            sorted(
                loc.name
                for loc in value.ptsto
                if isinstance(loc, FuncLoc) and loc.name in defined
            )
        )

    return None, resolve


def _binding_plan(
    proc_infos: dict,
    writer: Callable[[AbsLoc, bool], WriteFn],
    callees: tuple[str, ...],
) -> tuple[tuple[WriteFn, int], ...]:
    """(write to the formal, argument index) for every parameter of every
    callee with a body; an index past the actuals binds ⊤."""
    plan = []
    for callee in callees:
        info = proc_infos.get(callee)
        if info is None:
            continue
        for i, param in enumerate(info.params):
            plan.append((writer(VarLoc(param, callee), False), i))
    return tuple(plan)


def _compile_call(ctx: AnalysisContext, node: Node, cmd: CCall) -> TransferFn:
    fixed, resolve = _compile_callees(ctx, node)
    arg_fns = tuple(ctx._expr(arg) for arg in cmd.args)
    nargs = len(arg_fns)
    proc_infos, writer = ctx.program.proc_infos, ctx._writer
    plans: dict[tuple[str, ...], tuple[tuple[WriteFn, int], ...]] = {}
    if fixed is not None:
        plans[fixed] = _binding_plan(proc_infos, writer, fixed)

    def call(state: AbsState, log: AccessLog | None) -> AbsState:
        callees = fixed if fixed is not None else resolve(state, log)
        out = state.copy()
        if not callees:
            # External call: arguments are still evaluated (their reads are
            # real uses); the call itself has no modelled side effect.
            if log is not None:
                for arg_fn in arg_fns:
                    arg_fn(state, log)
            return out
        plan = plans.get(callees)
        if plan is None:
            plan = plans[callees] = _binding_plan(proc_infos, writer, callees)
        values: list[AbsValue | None] = [None] * nargs
        for write, i in plan:
            if i < nargs:
                value = values[i]
                if value is None:
                    value = values[i] = arg_fns[i](state, log)
            else:
                value = TOP_NUM
            write(out, value, log)
        return out

    return call


def _compile_retbind(ctx: AnalysisContext, cmd: CRetBind) -> TransferFn:
    fixed, resolve = _compile_callees(ctx, ctx.program.node(cmd.call_node))
    fixed_rets = (
        tuple(RetLoc(callee) for callee in fixed) if fixed is not None else None
    )

    def ret_locs(state: AbsState, log: AccessLog | None) -> tuple[AbsLoc, ...]:
        if fixed_rets is not None:
            return fixed_rets
        return tuple(RetLoc(callee) for callee in resolve(state, log))

    if cmd.lval is None:

        def discard(state: AbsState, log: AccessLog | None) -> AbsState:
            # Still a use of the return locations (they flow to the caller).
            if log is not None:
                log.used.update(ret_locs(state, log))
            return state.copy()

        return discard

    loc, locs_fn = ctx._lval(cmd.lval)
    write = ctx._writer(loc, False) if loc is not None else None
    write_targets = ctx._write_targets

    def bind(state: AbsState, log: AccessLog | None) -> AbsState:
        rets = ret_locs(state, log)
        if rets:
            value = BOT
            for ret in rets:
                if log is not None:
                    log.used.add(ret)
                value = value.join(state.get(ret))
        else:
            value = TOP_NUM  # unknown external procedure result
        out = state.copy()
        if write is not None:
            write(out, value, log)
        else:
            write_targets(out, locs_fn(state, log), value, log)
        return out

    return bind


def _compile_return(ctx: AnalysisContext, node: Node, cmd: CReturn) -> TransferFn:
    # Multiple returns join along control flow, so each return may write
    # its own value strongly — but exits of recursive procedures see
    # interleaved states, so the weak flavour is the safe default.
    write = ctx._writer(RetLoc(node.proc), True)
    value_fn = ctx._expr(cmd.value) if cmd.value is not None else _constant(BOT)

    def ret(state: AbsState, log: AccessLog | None) -> AbsState:
        value = value_fn(state, log)
        out = state.copy()
        write(out, value, log)
        return out

    return ret
