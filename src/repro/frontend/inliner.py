"""AST-level function inlining.

Context-insensitive analysis merges every call site of a procedure; the
classical low-tech countermeasure is to *duplicate* small callees into
their call sites before analysis — each copy then gets its own abstract
locations, i.e. bounded context sensitivity by cloning. This pass
implements it on the AST:

* a call ``x = f(a, b)`` to an inlinable function becomes a block that
  binds renamed parameter copies, executes a renamed body copy, and
  assigns the returned expression to a fresh result variable;
* ``return e`` inside the copy becomes ``__ret = e; goto __out;`` —
  multiple returns are supported via a synthetic exit label;
* inlinable = defined, non-recursive, non-variadic, statement count under
  a threshold, and not address-taken (no ``&f``/function-pointer use).

The pass is semantics-preserving (checked against the concrete
interpreter in tests) and composes with every analyzer — an ablation in
``benchmarks/bench_inlining.py`` measures the precision/cost trade.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.frontend import cast as A
from repro.frontend.ctypes import FuncType
from repro.ir.callgraph import CallGraph

#: default body-size cap (statements) for inlining
DEFAULT_MAX_STMTS = 12
#: maximum rounds (nested inlining depth)
DEFAULT_MAX_DEPTH = 2


def _count_stmts(stmt: A.Stmt) -> int:
    total = 1
    if isinstance(stmt, A.Compound):
        return sum(_count_stmts(s) for s in stmt.body)
    for attr in ("then", "otherwise", "body", "stmt", "init"):
        child = getattr(stmt, attr, None)
        if isinstance(child, A.Stmt):
            total += _count_stmts(child)
    if isinstance(stmt, A.Switch):
        for case in stmt.cases:
            total += sum(_count_stmts(s) for s in case.body)
    return total


# The AST walkers below are module functions and methods, never recursive
# closures: a closure that calls itself is a reference cycle, left for the
# cyclic collector on every call.


def _function_addresses_taken(unit: A.TranslationUnit) -> set[str]:
    """Functions referenced other than as a direct call target."""
    names = {f.name for f in unit.functions}
    taken: set[str] = set()
    for fn in unit.functions:
        _taken_in_stmt(fn.body, names, taken)
    for g in unit.globals:
        _taken_in_expr(g.init, names, taken)
    return taken


def _taken_in_expr(
    e: A.Expr | None, names: set[str], taken: set[str], call_target: bool = False
) -> None:
    if e is None:
        return
    if isinstance(e, A.Ident):
        if e.name in names and not call_target:
            taken.add(e.name)
    elif isinstance(e, A.Call):
        _taken_in_expr(e.func, names, taken, isinstance(e.func, A.Ident))
        for a in e.args:
            _taken_in_expr(a, names, taken)
    elif isinstance(e, A.BinOp):
        _taken_in_expr(e.left, names, taken)
        _taken_in_expr(e.right, names, taken)
    elif isinstance(e, (A.UnOp,)):
        _taken_in_expr(e.operand, names, taken)
    elif isinstance(e, A.IncDec):
        _taken_in_expr(e.operand, names, taken)
    elif isinstance(e, A.Assign):
        _taken_in_expr(e.target, names, taken)
        _taken_in_expr(e.value, names, taken)
    elif isinstance(e, A.Conditional):
        _taken_in_expr(e.cond, names, taken)
        _taken_in_expr(e.then, names, taken)
        _taken_in_expr(e.otherwise, names, taken)
    elif isinstance(e, A.Index):
        _taken_in_expr(e.base, names, taken)
        _taken_in_expr(e.index, names, taken)
    elif isinstance(e, A.FieldAccess):
        _taken_in_expr(e.base, names, taken)
    elif isinstance(e, A.Cast):
        _taken_in_expr(e.operand, names, taken)
    elif isinstance(e, A.CommaExpr):
        for p in e.parts:
            _taken_in_expr(p, names, taken)


def _taken_in_stmt(s: A.Stmt | None, names: set[str], taken: set[str]) -> None:
    if s is None:
        return
    if isinstance(s, A.Compound):
        for child in s.body:
            _taken_in_stmt(child, names, taken)
    elif isinstance(s, A.ExprStmt):
        _taken_in_expr(s.expr, names, taken)
    elif isinstance(s, A.DeclStmt):
        for d in s.decls:
            _taken_in_expr(d.init, names, taken)
    elif isinstance(s, A.If):
        _taken_in_expr(s.cond, names, taken)
        _taken_in_stmt(s.then, names, taken)
        _taken_in_stmt(s.otherwise, names, taken)
    elif isinstance(s, (A.While, A.DoWhile)):
        _taken_in_expr(s.cond, names, taken)
        _taken_in_stmt(s.body, names, taken)
    elif isinstance(s, A.For):
        _taken_in_stmt(s.init, names, taken)
        _taken_in_expr(s.cond, names, taken)
        _taken_in_expr(s.step, names, taken)
        _taken_in_stmt(s.body, names, taken)
    elif isinstance(s, A.Switch):
        _taken_in_expr(s.scrutinee, names, taken)
        for case in s.cases:
            for child in case.body:
                _taken_in_stmt(child, names, taken)
    elif isinstance(s, A.Return):
        _taken_in_expr(s.value, names, taken)
    elif isinstance(s, A.Labeled):
        _taken_in_stmt(s.stmt, names, taken)


def _direct_call_graph(unit: A.TranslationUnit) -> dict[str, set[str]]:
    names = {f.name for f in unit.functions}
    graph: dict[str, set[str]] = {f.name: set() for f in unit.functions}
    for fn in unit.functions:
        _calls_in_stmt(fn.body, names, graph[fn.name])
    return graph


def _calls_in_expr(e: A.Expr | None, names: set[str], out: set[str]) -> None:
    if e is None:
        return
    if isinstance(e, A.Call) and isinstance(e.func, A.Ident):
        if e.func.name in names:
            out.add(e.func.name)
    for attr in ("left", "right", "operand", "target", "value", "cond",
                 "then", "otherwise", "base", "index", "func"):
        child = getattr(e, attr, None)
        if isinstance(child, A.Expr):
            _calls_in_expr(child, names, out)
    for attr in ("args", "parts"):
        for child in getattr(e, attr, []) or []:
            _calls_in_expr(child, names, out)


def _calls_in_stmt(s: A.Stmt | None, names: set[str], out: set[str]) -> None:
    if s is None:
        return
    for attr in ("expr", "cond", "step", "scrutinee", "value"):
        child = getattr(s, attr, None)
        if isinstance(child, A.Expr):
            _calls_in_expr(child, names, out)
    for attr in ("then", "otherwise", "body", "stmt", "init"):
        child = getattr(s, attr, None)
        if isinstance(child, A.Stmt):
            _calls_in_stmt(child, names, out)
    if isinstance(s, A.Compound):
        for child in s.body:
            _calls_in_stmt(child, names, out)
    if isinstance(s, A.Switch):
        for case in s.cases:
            for child in case.body:
                _calls_in_stmt(child, names, out)
    if isinstance(s, A.DeclStmt):
        for d in s.decls:
            _calls_in_expr(d.init, names, out)


def _recursive_functions(call_graph: dict[str, set[str]]) -> set[str]:
    cg = CallGraph()
    for caller, callees in call_graph.items():
        cg.callees[caller] = set(callees)
        for callee in callees:
            cg.callers.setdefault(callee, set()).add(caller)
    return cg.recursive_procs()


@dataclass
class Inliner:
    """Performs bounded inlining over a translation unit (in place on a
    deep copy — the input unit is never mutated)."""

    max_stmts: int = DEFAULT_MAX_STMTS
    max_depth: int = DEFAULT_MAX_DEPTH
    inlined_calls: int = 0
    _counter: int = 0
    _unit: A.TranslationUnit = field(default=None, repr=False)  # type: ignore

    def run(self, unit: A.TranslationUnit) -> A.TranslationUnit:
        unit = copy.deepcopy(unit)
        self._unit = unit
        for _round in range(self.max_depth):
            taken = _function_addresses_taken(unit)
            recursive = _recursive_functions(_direct_call_graph(unit))
            candidates = {
                f.name: f
                for f in unit.functions
                if f.name not in taken
                and f.name not in recursive
                and not f.variadic
                # a quarantined body is an *empty placeholder*, not the real
                # code — inlining it would silently erase the havoc stub
                and not f.quarantined
                and _count_stmts(f.body) <= self.max_stmts
            }
            if not candidates:
                break
            before = self.inlined_calls
            for fn in unit.functions:
                fn.body = self._inline_in_stmt(fn.body, candidates, fn.name)
            if self.inlined_calls == before:
                break
        return unit

    # -- statement rewriting -------------------------------------------------------

    def _inline_in_stmt(self, stmt, candidates, current):
        if isinstance(stmt, A.Compound):
            new_body = []
            for s in stmt.body:
                new_body.extend(self._rewrite(s, candidates, current))
            stmt.body = new_body
            return stmt
        rewritten = self._rewrite(stmt, candidates, current)
        if len(rewritten) == 1:
            return rewritten[0]
        return A.Compound(rewritten, pos=stmt.pos)

    def _rewrite(self, stmt, candidates, current) -> list[A.Stmt]:
        """Rewrite one statement; returns replacement statements."""
        prefix: list[A.Stmt] = []

        def lift_calls(e: A.Expr | None) -> A.Expr | None:
            return self._lift_calls(e, candidates, current, prefix)

        if isinstance(stmt, A.ExprStmt):
            stmt.expr = lift_calls(stmt.expr)
        elif isinstance(stmt, A.DeclStmt):
            for d in stmt.decls:
                d.init = lift_calls(d.init)
        elif isinstance(stmt, A.Return):
            stmt.value = lift_calls(stmt.value)
        elif isinstance(stmt, A.If):
            stmt.cond = lift_calls(stmt.cond)
            stmt.then = self._inline_in_stmt(stmt.then, candidates, current)
            if stmt.otherwise is not None:
                stmt.otherwise = self._inline_in_stmt(
                    stmt.otherwise, candidates, current
                )
        elif isinstance(stmt, A.While):
            # Calls in loop conditions stay put (would change trip
            # semantics if lifted once); bodies are fair game.
            stmt.body = self._inline_in_stmt(stmt.body, candidates, current)
        elif isinstance(stmt, A.DoWhile):
            stmt.body = self._inline_in_stmt(stmt.body, candidates, current)
        elif isinstance(stmt, A.For):
            if stmt.init is not None:
                init_rewritten = self._rewrite(stmt.init, candidates, current)
                if len(init_rewritten) == 1:
                    stmt.init = init_rewritten[0]
                else:
                    stmt.init = A.Compound(init_rewritten, pos=stmt.pos)
            stmt.body = self._inline_in_stmt(stmt.body, candidates, current)
        elif isinstance(stmt, A.Switch):
            stmt.scrutinee = lift_calls(stmt.scrutinee)
            for case in stmt.cases:
                new_body: list[A.Stmt] = []
                for s in case.body:
                    new_body.extend(self._rewrite(s, candidates, current))
                case.body = new_body
        elif isinstance(stmt, A.Compound):
            stmt = self._inline_in_stmt(stmt, candidates, current)
        elif isinstance(stmt, A.Labeled):
            stmt.stmt = self._inline_in_stmt(stmt.stmt, candidates, current)
        return prefix + [stmt]

    def _lift_calls(self, e, candidates, current, prefix) -> A.Expr | None:
        """Replace inlinable calls inside ``e`` with result variables,
        emitting the inlined bodies into ``prefix``."""
        if e is None:
            return None
        rest = (candidates, current, prefix)
        if (
            isinstance(e, A.Call)
            and isinstance(e.func, A.Ident)
            and e.func.name in candidates
            and e.func.name != current
        ):
            args = [self._lift_calls(a, *rest) for a in e.args]
            result = self._expand_call(candidates[e.func.name], args, prefix, e.pos)
            self.inlined_calls += 1
            return result
        for attr in ("left", "right", "operand", "target", "value",
                     "cond", "then", "otherwise", "base", "index"):
            child = getattr(e, attr, None)
            if isinstance(child, A.Expr):
                setattr(e, attr, self._lift_calls(child, *rest))
        if isinstance(e, A.Call):
            e.args = [self._lift_calls(a, *rest) for a in e.args]
        if isinstance(e, A.CommaExpr):
            e.parts = [self._lift_calls(p, *rest) for p in e.parts]
        return e

    # -- call expansion ---------------------------------------------------------------

    def _expand_call(
        self,
        callee: A.FuncDef,
        args: list[A.Expr],
        prefix: list[A.Stmt],
        pos,
    ) -> A.Expr:
        self._counter += 1
        tag = f"__inl{self._counter}_{callee.name}"
        rename = {p.name: f"{tag}_{p.name}" for p in callee.params}
        ret_var = f"{tag}_ret"
        out_label = f"{tag}_out"

        # parameter bindings
        decls = []
        for param, arg in zip(callee.params, args):
            decls.append(
                A.VarDecl(
                    name=rename[param.name],
                    ctype=param.ctype,
                    init=arg,
                    pos=pos,
                )
            )
        prefix.append(A.DeclStmt(decls, pos=pos))
        prefix.append(
            A.DeclStmt(
                [A.VarDecl(name=ret_var, ctype=callee.ret_type, init=A.IntLit(0, pos=pos), pos=pos)],
                pos=pos,
            )
        )

        body = copy.deepcopy(callee.body)
        self._rename_and_redirect(body, rename, ret_var, out_label)
        prefix.append(body)
        prefix.append(A.Labeled(out_label, A.EmptyStmt(pos=pos), pos=pos))
        return A.Ident(ret_var, pos=pos)

    def _rename_and_redirect(self, stmt, rename, ret_var, out_label) -> None:
        """In the body copy: rename parameters/locals, and turn returns
        into ``ret_var = e; goto out``."""
        if isinstance(stmt, A.Compound):
            _Redirect(rename, ret_var, out_label).compound(stmt)


@dataclass
class _Redirect:
    """One inlined body's rewrite: ``rename`` maps parameters and locals to
    their fresh names (locals are added as their declarations are met), and
    every return becomes an assignment to ``ret_var`` and a jump to
    ``out_label``."""

    rename: dict[str, str]
    ret_var: str
    out_label: str

    def expr(self, e):
        if e is None:
            return None
        if isinstance(e, A.Ident):
            if e.name in self.rename:
                e.name = self.rename[e.name]
            return e
        for attr in ("left", "right", "operand", "target", "value",
                     "cond", "then", "otherwise", "base", "index",
                     "func"):
            child = getattr(e, attr, None)
            if isinstance(child, A.Expr):
                setattr(e, attr, self.expr(child))
        for attr in ("args", "parts"):
            children = getattr(e, attr, None)
            if children:
                setattr(e, attr, [self.expr(c) for c in children])
        return e

    def compound(self, s: A.Compound) -> None:
        new_body = []
        for child in s.body:
            new_body.extend(self.as_list(child))
        s.body = new_body

    def as_list(self, s) -> list:
        if isinstance(s, A.Return):
            assigns: list[A.Stmt] = []
            if s.value is not None:
                assigns.append(
                    A.ExprStmt(
                        A.Assign(
                            "=",
                            A.Ident(self.ret_var, pos=s.pos),
                            self.expr(s.value),
                            pos=s.pos,
                        ),
                        pos=s.pos,
                    )
                )
            assigns.append(A.Goto(self.out_label, pos=s.pos))
            return assigns
        if isinstance(s, A.DeclStmt):
            for d in s.decls:
                # locals of the copy get fresh names too
                fresh = f"{self.ret_var}_{d.name}"
                self.rename[d.name] = fresh
                d.name = fresh
                d.init = self.expr(d.init)
            return [s]
        if isinstance(s, A.ExprStmt):
            s.expr = self.expr(s.expr)
            return [s]
        if isinstance(s, A.If):
            s.cond = self.expr(s.cond)
            s.then = self.wrap(s.then)
            if s.otherwise is not None:
                s.otherwise = self.wrap(s.otherwise)
            return [s]
        if isinstance(s, (A.While, A.DoWhile)):
            s.cond = self.expr(s.cond)
            s.body = self.wrap(s.body)
            return [s]
        if isinstance(s, A.For):
            if s.init is not None:
                s.init = self.wrap(s.init)
            s.cond = self.expr(s.cond)
            s.step = self.expr(s.step)
            s.body = self.wrap(s.body)
            return [s]
        if isinstance(s, A.Switch):
            s.scrutinee = self.expr(s.scrutinee)
            for case in s.cases:
                new_body = []
                for child in case.body:
                    new_body.extend(self.as_list(child))
                case.body = new_body
            return [s]
        if isinstance(s, A.Compound):
            self.compound(s)
            return [s]
        if isinstance(s, A.Labeled):
            s.stmt = self.wrap(s.stmt)
            return [s]
        return [s]

    def wrap(self, s):
        parts = self.as_list(s)
        if len(parts) == 1:
            return parts[0]
        return A.Compound(parts, pos=s.pos)


def inline_unit(
    unit: A.TranslationUnit,
    max_stmts: int = DEFAULT_MAX_STMTS,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[A.TranslationUnit, int]:
    """Inline small non-recursive callees; returns (new unit, #calls
    inlined). The input unit is not modified."""
    inliner = Inliner(max_stmts=max_stmts, max_depth=max_depth)
    new_unit = inliner.run(unit)
    return new_unit, inliner.inlined_calls
