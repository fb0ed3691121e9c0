"""Packed relational (octagon) analysis — Section 4 of the paper.

Abstract states map variable *packs* to octagons (``Ŝ = Packs → R̂``).
Definitions and uses are pack-granular: an assignment ``x := e`` defines
(and uses) every pack containing ``x`` and uses the singleton packs of the
variables of ``e`` outside the pack — exactly the D̂/Û of Section 4.2. The
same sparse machinery as the interval analysis then applies, with packs in
the role of abstract locations.

Expression handling follows the paper's program transformation ``T``: a
right-hand side is rewritten per-pack into the internal language
``e_rel ::= Ẑ | x | e+e`` — variables outside the pack are replaced by
their interval, obtained by projecting their singleton pack (``p_x``).

Dense (``vanilla``/``base``-with-localization) and sparse octagon analyzers
are provided, mirroring Table 3's ``Octagon_vanilla``, ``Octagon_base`` and
``Octagon_sparse``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.datadep import generate_datadeps
from repro.analysis.defuse import DefUseInfo, close_proc_summaries
from repro.analysis.dense import build_interproc_graph
from repro.analysis.engine import CellOps, FixpointResult
from repro.analysis.plan import EnginePlan, prepare_plan, run_plan
from repro.analysis.preanalysis import PreAnalysis
from repro.analysis.schedule import GraphView, widening_points_for
from repro.analysis.semantics import AnalysisContext, Evaluator
from repro.domains.absloc import AbsLoc, RetLoc, VarLoc
from repro.domains.interval import BOT as ITV_BOT, Interval, TOP as ITV_TOP
from repro.domains.octagon import Octagon
from repro.domains.packs import Pack, PackSet, build_packs
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
    EBinOp,
    ELval,
    ENum,
    EUnknown,
    EUnOp,
    Expr,
    VarLv,
)
from repro.ir.program import Program
from repro.runtime.budget import Budget
from repro.telemetry.core import Telemetry

_NEGATED = {"<": ">=", ">": "<=", "<=": ">", ">=": "<", "==": "!=", "!=": "=="}


#: sentinel distinguishing "no entry yet" from "pinned at ⊤" (None)
_UNSET = object()


class PackState:
    """A map ``Pack → Octagon`` where a missing pack means ⊤ (no relation
    known). Implements the state interface the worklist solvers expect."""

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[Pack, Octagon] | None = None) -> None:
        self._map: dict[Pack, Octagon] = dict(mapping) if mapping else {}

    @classmethod
    def _adopt(cls, mapping: dict[Pack, Octagon]) -> "PackState":
        """Wrap a freshly-built dict without the constructor's defensive
        copy (copy/restrict/remove build their mapping themselves)."""
        out = object.__new__(cls)
        out._map = mapping
        return out

    def get(self, pack: Pack) -> Octagon:
        found = self._map.get(pack)
        if found is None:
            return Octagon.top(len(pack))
        return found

    def set(self, pack: Pack, oct_: Octagon) -> None:
        if oct_.is_top():
            self._map.pop(pack, None)
        else:
            self._map[pack] = oct_

    def items(self) -> Iterator[tuple[Pack, Octagon]]:
        return iter(self._map.items())

    def __contains__(self, pack: Pack) -> bool:
        return pack in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        # an empty pack state means "no relations known" (⊤ everywhere),
        # which is still a state — never let truthiness mean emptiness
        return True

    def copy(self) -> "PackState":
        return PackState._adopt(dict(self._map))

    def restrict(self, packs: set[Pack]) -> "PackState":
        return PackState._adopt(
            {p: o for p, o in self._map.items() if p in packs}
        )

    def remove(self, packs: set[Pack]) -> "PackState":
        return PackState._adopt(
            {p: o for p, o in self._map.items() if p not in packs}
        )

    def has_contradiction(self) -> bool:
        return any(o.is_bottom() for o in self._map.values())

    # -- lattice (⊤-default maps: join weakens, entries vanish at ⊤) -------------

    def leq(self, other: "PackState") -> bool:
        if self is other:
            return True
        for pack, oct_ in other._map.items():
            if not self.get(pack).leq(oct_):
                return False
        return True

    def join_changed(self, other: "PackState") -> set[Pack]:
        """In-place join returning exactly the packs whose value changed —
        the ``StateLattice`` protocol's changed-set form, which lets the
        sparse engine propagate per location instead of per node. Packs
        missing from self are ⊤ and ⊤ ⊔ anything = ⊤: nothing to do."""
        changed: set[Pack] = set()
        for pack in list(self._map.keys()):
            joined = self._map[pack].join(other.get(pack))
            if joined != self._map[pack]:
                changed.add(pack)
                self.set(pack, joined)
        return changed

    def widen_changed(
        self, other: "PackState", thresholds: tuple[int, ...] | None = None
    ) -> set[Pack]:
        # thresholds are an interval-domain refinement; octagons ignore them
        changed: set[Pack] = set()
        for pack in list(self._map.keys()):
            widened = self._map[pack].widen(other.get(pack))
            if widened != self._map[pack]:
                changed.add(pack)
                self.set(pack, widened)
        return changed

    def join_with(self, other: "PackState") -> bool:
        """Boolean-changed join (legacy surface over :meth:`join_changed`)."""
        return bool(self.join_changed(other))

    def widen_with(
        self, other: "PackState", thresholds: tuple[int, ...] | None = None
    ) -> bool:
        """Boolean-changed widen (legacy surface over :meth:`widen_changed`)."""
        return bool(self.widen_changed(other, thresholds))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PackState) and self._map == other._map

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{p} ↦ {o}" for p, o in sorted(self._map.items(), key=lambda kv: kv[0].sort_key())
        )
        return "{" + entries + "}"


@dataclass
class RelAccessLog:
    """Pack-level def/use recording (Section 4.2)."""

    used: set[Pack] = field(default_factory=set)
    defined: set[Pack] = field(default_factory=set)


class RelContext:
    """Everything the relational transfer functions need."""

    def __init__(
        self,
        program: Program,
        pre: PreAnalysis,
        packs: PackSet,
        strict: bool = True,
    ) -> None:
        self.program = program
        self.pre = pre
        self.packs = packs
        self.strict = strict
        # Interval evaluator over the pre-analysis state, used to resolve
        # pointer targets of indirect stores.
        self._pre_ctx = AnalysisContext(program, pre.site_callees)
        #: frame cells of recursive procedures are summaries (cf. the
        #: interval semantics): only weak updates, no refinement.
        self.recursive_procs = self._pre_ctx.recursive_procs

    def pointer_targets(self, node: Node, lval) -> set[AbsLoc]:
        ev = Evaluator(self._pre_ctx, self.pre.state)
        return ev.lval_locs(lval)

    def is_summary_var(self, loc: AbsLoc) -> bool:
        proc = getattr(loc, "proc", None)
        return proc in self.recursive_procs


# --------------------------------------------------------------------------
# Expression linearization (the paper's transformation T)
# --------------------------------------------------------------------------


@dataclass
class Linear:
    """``sign·var + const`` or a pure interval when ``var`` is None."""

    sign: int = 0
    var: AbsLoc | None = None
    const: Interval = ITV_BOT


def _as_varloc(expr: Expr) -> AbsLoc | None:
    if isinstance(expr, ELval) and isinstance(expr.lval, VarLv):
        return VarLoc(expr.lval.name, expr.lval.proc)
    return None


def linearize(expr: Expr) -> Linear | None:
    """Try to rewrite ``expr`` as ``±x + [l, u]``; None when non-linear or
    multi-variable (those fall back to interval evaluation)."""
    if isinstance(expr, ENum):
        return Linear(0, None, Interval.const(expr.value))
    var = _as_varloc(expr)
    if var is not None:
        return Linear(1, var, Interval.const(0))
    if isinstance(expr, EUnOp) and expr.op == "-":
        inner = linearize(expr.operand)
        if inner is None:
            return None
        return Linear(-inner.sign, inner.var, inner.const.neg())
    if isinstance(expr, EBinOp) and expr.op in ("+", "-"):
        left = linearize(expr.left)
        right = linearize(expr.right)
        if left is None or right is None:
            return None
        if expr.op == "-":
            right = Linear(-right.sign, right.var, right.const.neg())
        if left.var is not None and right.var is not None:
            return None  # two-variable expressions: interval fallback
        var = left.var if left.var is not None else right.var
        sign = left.sign if left.var is not None else right.sign
        return Linear(sign, var, left.const.add(right.const))
    return None


# --------------------------------------------------------------------------
# Interval evaluation via singleton-pack projection (the paper's p_x)
# --------------------------------------------------------------------------


def _project_var(
    var: AbsLoc, state: PackState, ctx: RelContext, log: RelAccessLog | None
) -> Interval:
    single = ctx.packs.singleton.get(var)
    if single is None:
        return ITV_TOP
    if log is not None:
        log.used.add(single)
    return state.get(single).project(0)


def eval_interval(
    expr: Expr, state: PackState, ctx: RelContext, log: RelAccessLog | None
) -> Interval:
    """Numeric evaluation of a pure expression over the pack state."""
    if isinstance(expr, ENum):
        return Interval.const(expr.value)
    var = _as_varloc(expr)
    if var is not None:
        return _project_var(var, state, ctx, log)
    if isinstance(expr, EUnknown):
        return ITV_TOP
    if isinstance(expr, EUnOp):
        inner = eval_interval(expr.operand, state, ctx, log)
        if expr.op == "-":
            return inner.neg()
        if expr.op == "!":
            return inner.lnot()
        if expr.op == "~":
            return inner.bnot()
        return inner
    if isinstance(expr, EBinOp):
        left = eval_interval(expr.left, state, ctx, log)
        right = eval_interval(expr.right, state, ctx, log)
        op = expr.op
        if op in ("<", ">", "<=", ">=", "==", "!="):
            return left.cmp(op, right)
        fn = {
            "+": left.add,
            "-": left.sub,
            "*": left.mul,
            "/": left.div,
            "%": left.mod,
            "<<": left.shl,
            ">>": left.shr,
            "&": left.bitand,
            "|": left.bitor,
            "^": left.bitxor,
        }.get(op)
        return fn(right) if fn else ITV_TOP
    return ITV_TOP  # reads through pointers/fields: unknown number


# --------------------------------------------------------------------------
# Transfer functions
# --------------------------------------------------------------------------


def rel_transfer(
    node: Node,
    state: PackState,
    ctx: RelContext,
    log: RelAccessLog | None = None,
) -> PackState | None:
    """Apply the packed relational ``f♯_c`` at ``node``."""
    cmd = node.cmd
    if isinstance(cmd, (CSkip, CEntry, CExit)):
        return state
    out = state.copy()

    if isinstance(cmd, CSet):
        if isinstance(cmd.lval, VarLv):
            _assign(out, VarLoc(cmd.lval.name, cmd.lval.proc), cmd.expr, ctx, log)
        else:
            _havoc_targets(out, node, cmd.lval, ctx, log)
        return out

    if isinstance(cmd, CAlloc):
        if isinstance(cmd.lval, VarLv):
            _havoc_var(out, VarLoc(cmd.lval.name, cmd.lval.proc), ctx, log)
        else:
            _havoc_targets(out, node, cmd.lval, ctx, log)
        return out

    if isinstance(cmd, CAssume):
        return _rel_assume(out, cmd, ctx, log)

    if isinstance(cmd, CCall):
        for callee in ctx.pre.site_callees.get(node.nid, ()):
            info = ctx.program.proc_infos.get(callee)
            if info is None:
                continue
            for i, param in enumerate(info.params):
                loc = VarLoc(param, callee)
                if ctx.packs.packs_of(loc):
                    if i < len(cmd.args):
                        _assign(out, loc, cmd.args[i], ctx, log)
                    else:
                        _havoc_var(out, loc, ctx, log)
        return out

    if isinstance(cmd, CRetBind):
        if cmd.lval is None or not isinstance(cmd.lval, VarLv):
            return out
        target = VarLoc(cmd.lval.name, cmd.lval.proc)
        if not ctx.packs.packs_of(target):
            return out
        call_node = ctx.program.node(cmd.call_node)
        callees = ctx.pre.site_callees.get(call_node.nid, ())
        if len(callees) == 1:
            ret = RetLoc(callees[0])
            _assign_linear(out, target, Linear(1, ret, Interval.const(0)), ctx, log)
        elif callees:
            itv = ITV_BOT
            for callee in callees:
                itv = itv.join(_project_var(RetLoc(callee), out, ctx, log))
            _assign_linear(out, target, Linear(0, None, itv), ctx, log)
        else:
            _havoc_var(out, target, ctx, log)  # external call: arbitrary
        return out

    if isinstance(cmd, CReturn):
        # Strong per-path update: multiple returns join along control flow.
        # (A weak join would merge with the ⊤ default and lose everything.)
        ret = RetLoc(node.proc)
        if ctx.packs.packs_of(ret):
            if cmd.value is not None:
                _assign(out, ret, cmd.value, ctx, log)
            else:
                _havoc_var(out, ret, ctx, log)
        return out

    return out


def _assign(
    state: PackState,
    target: AbsLoc,
    expr: Expr,
    ctx: RelContext,
    log: RelAccessLog | None,
    weak: bool = False,
) -> None:
    linear = linearize(expr)
    if linear is None:
        itv = eval_interval(expr, state, ctx, log)
        linear = Linear(0, None, itv)
    _assign_linear(state, target, linear, ctx, log, weak=weak)


def _assign_linear(
    state: PackState,
    target: AbsLoc,
    linear: Linear,
    ctx: RelContext,
    log: RelAccessLog | None,
    weak: bool = False,
) -> None:
    weak = weak or ctx.is_summary_var(target)
    for pack in ctx.packs.packs_of(target):
        if log is not None:
            log.defined.add(pack)
            log.used.add(pack)
        old = state.get(pack)
        k = pack.index(target)
        if linear.var is not None and linear.var in pack and linear.sign in (1, -1):
            new = old.assign_var_plus(
                k, pack.index(linear.var), linear.const, negate=linear.sign < 0
            )
        elif linear.var is not None:
            base = _project_var(linear.var, state, ctx, log)
            if linear.sign < 0:
                base = base.neg()
            new = old.assign_interval(k, base.add(linear.const))
        else:
            new = old.assign_interval(k, linear.const)
        if weak:
            new = new.join(old)
        state.set(pack, new)


def _havoc_var(
    state: PackState, target: AbsLoc, ctx: RelContext, log: RelAccessLog | None
) -> None:
    for pack in ctx.packs.packs_of(target):
        if log is not None:
            log.defined.add(pack)
            log.used.add(pack)
        state.set(pack, state.get(pack).forget(pack.index(target)))


def _havoc_targets(
    state: PackState, node: Node, lval, ctx: RelContext, log: RelAccessLog | None
) -> None:
    """Indirect store: forget every scalar variable the pointer may hit
    (targets resolved by the pre-analysis, matching the interval analyzer's
    handling of non-numeric values)."""
    for loc in ctx.pointer_targets(node, lval):
        if isinstance(loc, VarLoc) and ctx.packs.packs_of(loc):
            _havoc_var(state, loc, ctx, log)


def _rel_assume(
    state: PackState,
    cmd: CAssume,
    ctx: RelContext,
    log: RelAccessLog | None,
) -> PackState | None:
    cond = cmd.cond
    positive = cmd.positive
    while isinstance(cond, EUnOp) and cond.op == "!":
        cond = cond.operand
        positive = not positive

    if isinstance(cond, EBinOp) and cond.op in _NEGATED:
        op = cond.op if positive else _NEGATED[cond.op]
        _refine(state, cond.left, op, cond.right, ctx, log)
    else:
        op = "!=" if positive else "=="
        _refine(state, cond, op, ENum(0), ctx, log)

    if state.has_contradiction():
        if ctx.strict:
            return None
    return state


def _refine(
    state: PackState,
    left: Expr,
    op: str,
    right: Expr,
    ctx: RelContext,
    log: RelAccessLog | None,
) -> None:
    lv = linearize(left)
    rv = linearize(right)
    lvar = lv.var if lv else None
    rvar = rv.var if rv else None

    # Relational refinement: ±x ⋈ ±y + c within shared packs.
    if (
        lv is not None
        and rv is not None
        and lvar is not None
        and rvar is not None
        and lv.sign == 1
        and rv.sign == 1
        and op in ("<", "<=", ">", ">=", "==")
        and not ctx.is_summary_var(lvar)
        and not ctx.is_summary_var(rvar)
    ):
        c = rv.const.sub(lv.const)
        for pack in ctx.packs.packs_of(lvar):
            if rvar not in pack:
                continue
            if log is not None:
                log.defined.add(pack)
                log.used.add(pack)
            i, j = pack.index(lvar), pack.index(rvar)
            oct_ = state.get(pack)
            hi = c.hi
            lo = c.lo
            if op in ("<", "<="):
                bound = (hi - (1 if op == "<" else 0)) if hi is not None else None
                if bound is not None:
                    oct_ = oct_.test_diff_upper(i, j, float(bound))
            elif op in (">", ">="):
                bound = (lo + (1 if op == ">" else 0)) if lo is not None else None
                if bound is not None:
                    oct_ = oct_.test_diff_upper(j, i, float(-bound))
            elif op == "==" and hi is not None and lo is not None and hi == lo:
                oct_ = oct_.test_diff_upper(i, j, float(hi)).test_diff_upper(
                    j, i, float(-lo)
                )
            state.set(pack, oct_)

    # Interval refinement of each side against the other's value.
    right_itv = eval_interval(right, state, ctx, log)
    _refine_interval(state, lvar if lv and lv.sign == 1 else None, op, right_itv, ctx, log)
    left_itv = eval_interval(left, state, ctx, log)
    swapped = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}[op]
    _refine_interval(state, rvar if rv and rv.sign == 1 else None, swapped, left_itv, ctx, log)


def _refine_interval(
    state: PackState,
    var: AbsLoc | None,
    op: str,
    other: Interval,
    ctx: RelContext,
    log: RelAccessLog | None,
) -> None:
    if var is None or other.is_bottom():
        return
    if ctx.is_summary_var(var):
        return  # refinements are strong writes; unsound on summaries
    for pack in ctx.packs.packs_of(var):
        if log is not None:
            log.defined.add(pack)
            log.used.add(pack)
        k = pack.index(var)
        oct_ = state.get(pack)
        if op in ("<", "<=") and other.hi is not None:
            bound = other.hi - (1 if op == "<" else 0)
            oct_ = oct_.test_upper(k, float(bound))
        elif op in (">", ">=") and other.lo is not None:
            bound = other.lo + (1 if op == ">" else 0)
            oct_ = oct_.test_lower(k, float(bound))
        elif op == "==" and other.is_const() and other.lo is not None:
            oct_ = oct_.test_eq(k, float(other.lo))
        elif op == "!=":
            continue  # octagons cannot express disequalities
        else:
            continue
        state.set(pack, oct_)


# --------------------------------------------------------------------------
# Pack-level def/use (Section 4.2) and the analysis drivers
# --------------------------------------------------------------------------


def compute_rel_defuse(
    program: Program, pre: PreAnalysis, ctx: RelContext
) -> DefUseInfo:
    """Pack-granular D̂/Û, via the same log-the-transfer derivation as the
    interval analysis (DefUseInfo is generic in its location type)."""
    info = DefUseInfo()
    top = PackState()
    for node in program.nodes():
        log = RelAccessLog()
        rel_transfer(node, top, ctx, log)
        info.defs[node.nid] = frozenset(log.defined)
        info.uses[node.nid] = frozenset(log.used)
        info.strong_defs[node.nid] = frozenset()

    close_proc_summaries(program, pre, info)
    info.proc_must_defs = {p: frozenset() for p in program.procedures()}
    return info


def prepare_rel_dense(
    program: Program,
    pre: PreAnalysis,
    *,
    packs: PackSet | None = None,
    localize: bool = False,
    strict: bool = True,
    widen: bool = True,
) -> EnginePlan:
    """Build the plan for ``Octagon_vanilla`` / ``Octagon_base``."""
    if packs is None:
        packs = build_packs(program)
    ctx = RelContext(program, pre, packs, strict=strict)
    graph = build_interproc_graph(program, pre.site_callees, localized=localize)

    make_edge_transform = None
    defuse = None
    if localize:
        defuse = compute_rel_defuse(program, pre, ctx)
        passed = {
            callee: set(defuse.accessed_by(callee))
            for callee in program.procedures()
        }
        call_edges = graph.call_edges
        bypass = graph.bypass_edges
        exit_of = {
            proc: cfg.exit.nid
            for proc, cfg in program.cfgs.items()
            if cfg.exit is not None
        }
        # exit→retbind edges are folded into the bypass edge's overlay:
        # with a ⊤-default lattice, joining the two partial states (caller
        # remainder vs. callee slice) erases both halves — ⊤ ⊔ v = ⊤ — so
        # the return-site state must be assembled in one place instead.
        folded_returns = {
            (exit_of[c], rb)
            for (call, rb) in bypass
            for c in pre.site_callees.get(call, ())
            if c in exit_of
        }

        def make_edge_transform(get_table):
            def _overlay_return(call: int, state: PackState) -> PackState | None:
                """The localized return-site input: per pack, each callee
                contributes its exit value when it accesses the pack and the
                caller's pre-call value when it does not (the value survives
                around that callee); contributions join across callees.
                Callees whose exit is still unreachable contribute nothing —
                matching the vanilla engine's reachability timing."""
                table = get_table()
                contributions = []
                for c in pre.site_callees.get(call, ()):
                    es = table.get(exit_of[c]) if c in exit_of else None
                    if es is not None:
                        contributions.append((passed[c], es))
                if not contributions:
                    return None
                cand = {p for p, _ in state.items()}
                for acc_packs, es in contributions:
                    for p, _ in es.items():
                        if p in acc_packs:
                            cand.add(p)
                out: dict = {}
                for p in cand:
                    joined = None
                    for acc_packs, es in contributions:
                        v = es.get(p) if p in acc_packs else state.get(p)
                        joined = v if joined is None else joined.join(v)
                    if not joined.is_top():
                        out[p] = joined
                return PackState(out)

            def edge_transform(
                src: int, dst: int, state: PackState
            ) -> PackState | None:
                callee = call_edges.get((src, dst))
                if callee is not None:
                    return state.restrict(passed[callee])
                if (src, dst) in bypass:
                    return _overlay_return(src, state)
                if (src, dst) in folded_returns:
                    return None
                return state

            return edge_transform

    node_map = program.factory.nodes

    def node_transfer(nid: int, state: PackState) -> PackState | None:
        return rel_transfer(node_map[nid], state, ctx)

    entry = program.entry_node()
    if strict:
        entries = {entry.nid: PackState()}
    else:
        entries = {n.nid: PackState() for n in program.nodes()}
    wto, wps = widening_points_for(GraphView((entry.nid,), graph.succs), widen)
    return EnginePlan(
        program=program,
        pre=pre,
        domain="octagon",
        mode="base" if localize else "vanilla",
        strict=strict,
        graph=graph,
        entries=entries,
        transfer=node_transfer,
        state_factory=PackState,
        wto=wto,
        widening_points=wps,
        thresholds=None,
        entry_nid=entry.nid,
        node_ids=tuple(node_map.keys()),
        make_edge_transform=make_edge_transform,
        defuse=defuse,
        packs=packs,
        ctx=ctx,
    )


def run_rel_dense(
    program: Program,
    pre: PreAnalysis | None = None,
    packs: PackSet | None = None,
    localize: bool = False,
    strict: bool = True,
    widen: bool = True,
    max_iterations: int | None = None,
    narrowing_passes: int = 0,
    budget: Budget | None = None,
    on_budget: str = "fail",
    faults=None,
    watchdog: bool = True,
    telemetry=None,
    checkpoint=None,
    resume_from=None,
) -> FixpointResult:
    """Dense octagon analysis (``Octagon_vanilla`` / ``Octagon_base``)."""
    return run_plan(
        prepare_plan(
            program,
            pre,
            "octagon",
            "base" if localize else "vanilla",
            packs=packs,
            strict=strict,
            widen=widen,
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


class PackCells(CellOps):
    """Cell operations for ⊤-default pack caches (the
    :class:`~repro.analysis.engine.DepGraphSpace` plug for the octagon
    domain). A cache is a plain ``dict[Pack, Octagon | None]``: a missing
    pack has not been pushed yet (``_UNSET``), a pack mapped to None is
    pinned at ⊤ — some source was unconstrained, and ⊤ absorbs every
    further join."""

    state_factory = PackState

    def new_cache(self) -> dict:
        return {}

    def input_state(self, cache) -> PackState:
        if cache:
            return PackState({p: o for p, o in cache.items() if o is not None})
        return PackState()

    def install(self, out):
        # The input state is rebuilt fresh from the cache every visit, so
        # ``out`` never aliases a long-lived structure — no copy needed.
        return out

    def push(self, cache, touched, out) -> bool:
        grew = False
        for pack in touched:
            prev = cache.get(pack, _UNSET)
            if prev is None:
                continue  # already pinned at ⊤
            if pack not in out:
                # the producer is unconstrained here: the join is ⊤
                cache[pack] = None
                grew = True
                continue
            value = out.get(pack)
            if prev is _UNSET:
                cache[pack] = value
                grew = True
                continue
            joined = prev.join(value)
            if joined != prev:
                cache[pack] = None if joined.is_top() else joined
                grew = True
        return grew

    def assemble(self, in_edges, table) -> PackState:
        state = PackState()
        for pack, oct_ in self.assemble_cache(in_edges, table).items():
            if oct_ is not None:
                state.set(pack, oct_)
        return state

    def assemble_cache(self, in_edges, table) -> dict:
        # Rebuilding from final source states reproduces the sequentially
        # accumulated cache: states only grow during ascent, so the join
        # over the push history equals the join of the final values, and a
        # pack missing from a final state (⊤) was ⊤ on its last push too.
        acc: dict[Pack, Octagon | None] = {}  # None = already ⊤
        for src, packs in in_edges:
            src_state = table.get(src)
            if src_state is None:
                continue
            for pack in packs:
                if acc.get(pack, 0) is None:
                    continue  # ⊤ absorbs every further join
                if pack not in src_state:
                    acc[pack] = None  # source is unconstrained here
                    continue
                value = src_state.get(pack)
                prev = acc.get(pack)
                if isinstance(prev, Octagon):
                    joined = prev.join(value)
                    acc[pack] = None if joined.is_top() else joined
                else:
                    acc[pack] = value
        return acc


def prepare_rel_sparse(
    program: Program,
    pre: PreAnalysis,
    *,
    packs: PackSet | None = None,
    bypass: bool = True,
    strict: bool = True,
    widen: bool = True,
    telemetry=None,
) -> EnginePlan:
    """Build the plan for ``Octagon_sparse``: pack-granular D̂/Û and
    dependency generation over the shared control graph."""
    tel = Telemetry.coerce(telemetry)
    if packs is None:
        packs = build_packs(program)
    ctx = RelContext(program, pre, packs, strict=strict)

    t_dep = time.perf_counter()
    with tel.span("dep-gen", bypass=bypass, domain="octagon"):
        graph = build_interproc_graph(program, pre.site_callees, localized=False)
        wto, wps = widening_points_for(
            GraphView((program.entry_node().nid,), graph.succs), widen
        )
        defuse = compute_rel_defuse(program, pre, ctx)
        dep_result = generate_datadeps(
            program,
            pre,
            defuse,
            bypass=bypass,
            widening_points=wps,
            telemetry=tel,
        )
    time_dep = time.perf_counter() - t_dep

    node_map = program.factory.nodes

    def node_transfer(nid: int, state: PackState) -> PackState | None:
        return rel_transfer(node_map[nid], state, ctx)

    return EnginePlan(
        program=program,
        pre=pre,
        domain="octagon",
        mode="sparse",
        strict=strict,
        graph=graph,
        entries={},
        transfer=node_transfer,
        state_factory=PackState,
        wto=wto,
        widening_points=wps,
        thresholds=None,
        entry_nid=program.entry_node().nid,
        node_ids=tuple(node_map.keys()),
        deps=dep_result.deps,
        cells_factory=PackCells,
        dep_count=len(dep_result.deps),
        raw_dep_count=dep_result.raw_dep_count,
        defuse=defuse,
        packs=packs,
        ctx=ctx,
        time_dep=time_dep,
    )


def run_rel_sparse(
    program: Program,
    pre: PreAnalysis | None = None,
    packs: PackSet | None = None,
    bypass: bool = True,
    strict: bool = True,
    widen: bool = True,
    max_iterations: int | None = None,
    narrowing_passes: int = 0,
    budget: Budget | None = None,
    on_budget: str = "fail",
    faults=None,
    watchdog: bool = True,
    telemetry=None,
    checkpoint=None,
    resume_from=None,
) -> FixpointResult:
    """Sparse octagon analysis (``Octagon_sparse``)."""
    return run_plan(
        prepare_plan(
            program,
            pre,
            "octagon",
            "sparse",
            packs=packs,
            bypass=bypass,
            strict=strict,
            widen=widen,
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
