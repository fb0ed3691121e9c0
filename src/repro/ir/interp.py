"""A concrete interpreter for the IR.

Executes lowered programs with real integer/pointer values. Its purpose is
*testing soundness*: every concrete state observed at a control point must
be over-approximated by the abstract state the analyzers compute there
(``repro.testing`` uses this for property-based soundness checks), and
``examples`` use it to show analysis findings against real executions.

The machine model matches the abstraction:

* scalars are unbounded Python ints;
* pointers are ``(block, offset)`` pairs; a block is a variable cell, a
  struct field, or an allocation (array) with per-index cells;
* struct fields of a variable/allocation are separate cells keyed like the
  analyzer's ``FieldLoc``;
* reading uninitialized memory raises (test programs initialize).

Execution is bounded by ``fuel`` (node visits) so looping programs can be
sampled; hitting the limit raises :class:`OutOfFuel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.domains.absloc import AbsLoc, AllocLoc, FieldLoc, FuncLoc, RetLoc, VarLoc
from repro.frontend.ctypes import c_div, c_mod
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
from repro.ir.program import INIT_PROC, Program


class InterpError(Exception):
    """Runtime error during concrete execution (bad deref, uninit read)."""


class OutOfFuel(InterpError):
    """The execution budget was exhausted (looping program)."""


@dataclass(frozen=True)
class Pointer:
    """A concrete pointer: a cell or block base plus an element offset."""

    base: AbsLoc  # VarLoc/FieldLoc cell, AllocLoc block, FuncLoc
    offset: int = 0

    def __add__(self, delta: int) -> "Pointer":
        return Pointer(self.base, self.offset + delta)


Value = int | Pointer


@dataclass
class Frame:
    """One activation record: local scalar/pointer cells."""

    proc: str
    locals: dict[AbsLoc, Value] = field(default_factory=dict)


@dataclass
class Observation:
    """A concrete state snapshot at one control point."""

    nid: int
    env: dict[AbsLoc, Value]


class Interpreter:
    """Executes a program from ``__init``'s entry."""

    def __init__(
        self,
        program: Program,
        fuel: int = 100_000,
        unknown_value: int = 0,
        record: bool = True,
    ) -> None:
        self.program = program
        self.fuel = fuel
        self.unknown_value = unknown_value
        self.record = record
        self.globals: dict[AbsLoc, Value] = {}
        #: allocation cells: (site, index) -> value; sizes per site
        self.heap: dict[tuple[str, int], Value] = {}
        self.block_sizes: dict[str, int] = {}
        self.observations: list[Observation] = []
        self._alloc_counter = 0
        #: live activation records, outermost first
        self._stack: list[Frame] = []

    # -- memory -------------------------------------------------------------------

    def _frame_for(self, loc: AbsLoc, frame: Frame) -> Frame | None:
        """The activation owning a local cell: the current frame, or — for
        pointers into a caller's locals (``&x`` passed down) — the nearest
        live frame of the owning procedure."""
        proc = getattr(loc, "proc", None)
        if isinstance(loc, FieldLoc):
            proc = getattr(loc.base, "proc", None)
        if proc == frame.proc:
            return frame
        for other in reversed(self._stack):
            if other.proc == proc:
                return other
        return None

    def _cell_read(self, loc: AbsLoc, frame: Frame) -> Value:
        base = loc.base if isinstance(loc, FieldLoc) else loc
        if isinstance(base, VarLoc) and base.proc is not None:
            owner = self._frame_for(loc, frame)
            if owner is None or loc not in owner.locals:
                raise InterpError(f"read of uninitialized local {loc}")
            return owner.locals[loc]
        if loc in self.globals:
            return self.globals[loc]
        raise InterpError(f"read of uninitialized location {loc}")

    def _cell_write(self, loc: AbsLoc, value: Value, frame: Frame) -> None:
        base = loc.base if isinstance(loc, FieldLoc) else loc
        if isinstance(base, VarLoc) and base.proc is not None:
            owner = self._frame_for(loc, frame) or frame
            owner.locals[loc] = value
        else:
            self.globals[loc] = value

    def _block_read(self, site: str, index: int) -> Value:
        size = self.block_sizes.get(site)
        if size is not None and not (0 <= index < size):
            raise InterpError(f"out-of-bounds read {site}[{index}] (size {size})")
        cell = self.heap.get((site, index))
        if cell is None:
            return 0  # blocks are zero-initialized (calloc-like model)
        return cell

    def _block_write(self, site: str, index: int, value: Value) -> None:
        size = self.block_sizes.get(site)
        if size is not None and not (0 <= index < size):
            raise InterpError(f"out-of-bounds write {site}[{index}] (size {size})")
        self.heap[(site, index)] = value

    # -- expression evaluation ---------------------------------------------------------

    def eval(self, expr: Expr, frame: Frame) -> Value:
        if isinstance(expr, ENum):
            return expr.value
        if isinstance(expr, ELval):
            return self._read_lval(expr.lval, frame)
        if isinstance(expr, EAddrOf):
            return self._addr_of(expr.lval, frame)
        if isinstance(expr, EStrAddr):
            site = f"str:{expr.site}"
            if site not in self.block_sizes:
                self.block_sizes[site] = expr.length
                text = self.program.string_literals.get(expr.site, "")
                for i, ch in enumerate(text):
                    self.heap[(site, i)] = ord(ch)
                self.heap[(site, len(text))] = 0
            return Pointer(AllocLoc(site), 0)
        if isinstance(expr, EUnknown):
            return self.unknown_value
        if isinstance(expr, EUnOp):
            v = self.eval(expr.operand, frame)
            n = self._as_int(v)
            return {"-": -n, "+": n, "!": int(n == 0), "~": ~n}[expr.op]
        if isinstance(expr, EBinOp):
            return self._eval_binop(expr, frame)
        raise InterpError(f"cannot evaluate {expr!r}")

    def _as_int(self, v: Value) -> int:
        if isinstance(v, Pointer):
            return 1  # pointers are truthy; numeric use is unspecified
        return v

    def _eval_binop(self, expr: EBinOp, frame: Frame) -> Value:
        left = self.eval(expr.left, frame)
        right = self.eval(expr.right, frame)
        op = expr.op
        if isinstance(left, Pointer) and isinstance(right, int):
            if op == "+":
                return left + right
            if op == "-":
                return left + (-right)
        if isinstance(right, Pointer) and isinstance(left, int) and op == "+":
            return right + left
        if isinstance(left, Pointer) and isinstance(right, Pointer):
            if op == "-" and left.base == right.base:
                return left.offset - right.offset
            if op in ("==", "!="):
                eq = left == right
                return int(eq if op == "==" else not eq)
        lo, ro = self._as_int(left), self._as_int(right)
        table = {
            "+": lambda: lo + ro,
            "-": lambda: lo - ro,
            "*": lambda: lo * ro,
            "/": lambda: _c_div(lo, ro),
            "%": lambda: _c_mod(lo, ro),
            "<": lambda: int(lo < ro),
            ">": lambda: int(lo > ro),
            "<=": lambda: int(lo <= ro),
            ">=": lambda: int(lo >= ro),
            "==": lambda: int(lo == ro),
            "!=": lambda: int(lo != ro),
            "&&": lambda: int(bool(lo) and bool(ro)),
            "||": lambda: int(bool(lo) or bool(ro)),
            "&": lambda: lo & ro,
            "|": lambda: lo | ro,
            "^": lambda: lo ^ ro,
            "<<": lambda: lo << (ro % 64),
            ">>": lambda: lo >> (ro % 64) if ro >= 0 else lo,
        }
        fn = table.get(op)
        if fn is None:
            raise InterpError(f"unknown operator {op}")
        return fn()

    # -- lvalues ----------------------------------------------------------------------

    def _addr_of(self, lval: Lval, frame: Frame) -> Pointer:
        if isinstance(lval, VarLv):
            loc = VarLoc(lval.name, lval.proc)
            if lval.proc is None and lval.name in self.program.defined_functions():
                return Pointer(FuncLoc(lval.name), 0)
            return Pointer(loc, 0)
        if isinstance(lval, FieldLv):
            base = self._addr_of(lval.base, frame)
            return Pointer(FieldLoc(base.base, lval.fieldname), 0)
        if isinstance(lval, DerefLv):
            target = self.eval(lval.ptr, frame)
            if not isinstance(target, Pointer):
                raise InterpError("dereference of non-pointer")
            if lval.fieldname is not None:
                return Pointer(FieldLoc(target.base, lval.fieldname), target.offset)
            return target
        if isinstance(lval, IndexLv):
            base = self.eval(lval.base, frame)
            index = self._as_int(self.eval(lval.index, frame))
            if not isinstance(base, Pointer):
                raise InterpError("indexing a non-pointer")
            return base + index
        raise InterpError(f"cannot take address of {lval!r}")

    def _read_lval(self, lval: Lval, frame: Frame) -> Value:
        target = self._addr_of(lval, frame)
        if isinstance(target.base, AllocLoc):
            return self._block_read(target.base.site, target.offset)
        return self._cell_read(target.base, frame)

    def _write_lval(self, lval: Lval, value: Value, frame: Frame) -> None:
        target = self._addr_of(lval, frame)
        if isinstance(target.base, AllocLoc):
            self._block_write(target.base.site, target.offset, value)
        else:
            self._cell_write(target.base, value, frame)

    # -- execution ------------------------------------------------------------------------

    def run(self) -> Value | None:
        """Execute from the init procedure; returns main's return value."""
        entry = self.program.entry_node()
        frame = Frame(INIT_PROC)
        self._run_proc(entry, frame)
        return self.globals.get(RetLoc(self.program.main))

    def _run_proc(self, entry: Node, frame: Frame) -> Value | None:
        """Execute one activation. Observations are taken *after* a node's
        command executes, matching the analyzers' convention that the state
        at ``c`` is ``f♯_c`` applied to the incoming state."""
        cfg = self.program.cfgs[frame.proc]
        self._stack.append(frame)
        try:
            return self._run_frame(cfg, entry, frame)
        finally:
            self._stack.pop()

    def _run_frame(self, cfg, entry: Node, frame: Frame) -> Value | None:
        node: Node | None = entry
        ret: Value | None = None
        while node is not None:
            self.fuel -= 1
            if self.fuel <= 0:
                raise OutOfFuel("execution budget exhausted")
            cmd = node.cmd
            if isinstance(cmd, (CSkip, CEntry, CAssume)):
                # Assume nodes are only ever entered via _next, which already
                # checked the condition.
                pass
            elif isinstance(cmd, CExit):
                self._observe(node, frame)
                return ret
            elif isinstance(cmd, CSet):
                if _is_string_content_marker(cmd):
                    pass  # abstract-only store; EStrAddr fills real content
                else:
                    self._write_lval(cmd.lval, self.eval(cmd.expr, frame), frame)
            elif isinstance(cmd, CAlloc):
                size = self._as_int(self.eval(cmd.size, frame))
                self.block_sizes[cmd.site] = max(size, 0)
                self._write_lval(cmd.lval, Pointer(AllocLoc(cmd.site), 0), frame)
            elif isinstance(cmd, CReturn):
                value = (
                    self.eval(cmd.value, frame) if cmd.value is not None else 0
                )
                self.globals[RetLoc(frame.proc)] = value
                ret = value
                self._observe(node, frame)
                exit_node = cfg.exit
                assert exit_node is not None
                self._observe(exit_node, frame)
                return ret
            elif isinstance(cmd, CCall):
                # Observe before descending: the abstract state at a call
                # node is f♯_call(in) — argument binding only, not the
                # callee's effects (those appear at the return site).
                self._observe(node, frame)
                self._do_call(node, cmd, frame)
                node = self._next(cfg, node, frame)
                continue
            elif isinstance(cmd, CRetBind):
                call_node = self.program.node(cmd.call_node)
                callee = self._callee_of(call_node, frame)
                if cmd.lval is not None:
                    if callee is not None:
                        value = self.globals.get(RetLoc(callee), 0)
                    else:
                        value = self.unknown_value
                    self._write_lval(cmd.lval, value, frame)
            else:
                raise InterpError(f"unknown command {cmd!r}")
            self._observe(node, frame)
            node = self._next(cfg, node, frame)
        return ret

    def _next(self, cfg, node: Node, frame: Frame) -> Node | None:
        succs = cfg.succs.get(node.nid, [])
        if not succs:
            return None
        if len(succs) == 1:
            return cfg.node(succs[0])
        # Branch: pick the assume successor whose condition holds.
        fallback = None
        for s in succs:
            succ = cfg.node(s)
            if isinstance(succ.cmd, CAssume):
                truth = bool(self._as_int(self.eval(succ.cmd.cond, frame)))
                if truth == succ.cmd.positive:
                    return succ
            else:
                fallback = succ
        return fallback

    def _callee_of(self, call_node: Node, frame: Frame) -> str | None:
        cmd = call_node.cmd
        assert isinstance(cmd, CCall)
        if cmd.static_callee is not None:
            return (
                cmd.static_callee
                if cmd.static_callee in self.program.cfgs
                else None
            )
        try:
            target = self.eval(cmd.callee, frame)
        except InterpError:
            return None  # undeclared external function designator
        if isinstance(target, Pointer) and isinstance(target.base, FuncLoc):
            name = target.base.name
            return name if name in self.program.cfgs else None
        return None

    def _do_call(self, node: Node, cmd: CCall, frame: Frame) -> None:
        callee = self._callee_of(node, frame)
        args = [self.eval(a, frame) for a in cmd.args]
        if callee is None:
            return  # external call: no effect, unknown result
        info = self.program.proc_infos[callee]
        callee_frame = Frame(callee)
        for i, param in enumerate(info.params):
            value = args[i] if i < len(args) else self.unknown_value
            callee_frame.locals[VarLoc(param, callee)] = value
        callee_cfg = self.program.cfgs[callee]
        assert callee_cfg.entry is not None
        self._run_proc(callee_cfg.entry, callee_frame)

    # -- observation --------------------------------------------------------------------

    def _observe(self, node: Node, frame: Frame) -> None:
        if not self.record:
            return
        env: dict[AbsLoc, Value] = {}
        env.update(self.globals)
        env.update(frame.locals)
        self.observations.append(Observation(node.nid, env))

    def concrete_cells(self) -> Iterable[tuple[AbsLoc, Value]]:
        """Final global memory plus heap summarized by allocation site —
        comparable against the abstract heap abstraction."""
        for loc, value in self.globals.items():
            yield loc, value
        for (site, _index), value in self.heap.items():
            yield AllocLoc(site), value


def _is_string_content_marker(cmd: CSet) -> bool:
    """String literals lower to two summary stores that give the abstract
    block its character range (see repro.ir.lowering); concretely the
    interpreter fills real contents at EStrAddr, so the markers are
    no-ops here."""
    from repro.ir.commands import EUnknown, IndexLv

    return (
        isinstance(cmd.lval, IndexLv)
        and isinstance(cmd.lval.index, EUnknown)
        and cmd.lval.index.reason == "str-content"
    )


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("division by zero")
    return c_div(a, b)


def _c_mod(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("modulo by zero")
    return c_mod(a, b)


def run_program(program: Program, fuel: int = 100_000) -> Value | None:
    """Convenience: execute and return main's result."""
    return Interpreter(program, fuel=fuel, record=False).run()
