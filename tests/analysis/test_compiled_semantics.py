"""The compiled transfer functions against the tree-walking oracle.

:mod:`repro.analysis.semantics` compiles each control point's command once
per :class:`AnalysisContext`; ``semantics_oracle.py`` interprets the IR on
every visit. For every node of the codegen rungs, the ``examples/`` files
and random programs, in three input states (⊥, the final pre-analysis
state and the node's final dense state) and four contexts (strict or not,
with or without the pre-analysis call graph), the two must agree on:

* the output state (entry by entry, on ``repr``) or ``None``, with and
  without an :class:`AccessLog`;
* all three :class:`AccessLog` sets;
* ``Evaluator.eval`` of every subexpression and ``Evaluator.lval_locs`` of
  every lvalue of the command — what the checkers evaluate — with the
  reads each logs.
"""

from __future__ import annotations

import gc
import os
import weakref

import pytest

from repro.analysis.dense import run_dense
from repro.analysis.preanalysis import run_preanalysis
from repro.analysis.semantics import AccessLog, AnalysisContext, Evaluator, transfer
from repro.api import analyze
from repro.bench.codegen import default_suite, generate_source, octagon_suite
from repro.domains.state import AbsState
from repro.ir.commands import (
    CAlloc,
    CAssume,
    CCall,
    CRetBind,
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
from repro.ir.program import Program, build_program
from repro.server.session import ServeSession
from tests.analysis import semantics_oracle as oracle
from tests.conftest import EXAMPLE_FILES, program_of_file, random_spec, upto

#: number of random programs; CI's fuzz-smoke step sets it through the
#: environment
N_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "25"))

SUITE = upto(default_suite(), "make-mini") + upto(octagon_suite(), "tar-oct")


def subterms(cmd) -> tuple[list[Expr], list[Lval]]:
    """Every expression and lvalue occurring in a command."""
    exprs: list[Expr] = []
    lvals: list[Lval] = []

    def walk_expr(e: Expr) -> None:
        exprs.append(e)
        if isinstance(e, (ELval, EAddrOf)):
            walk_lval(e.lval)
        elif isinstance(e, EBinOp):
            walk_expr(e.left)
            walk_expr(e.right)
        elif isinstance(e, EUnOp):
            walk_expr(e.operand)

    def walk_lval(lv: Lval) -> None:
        lvals.append(lv)
        if isinstance(lv, DerefLv):
            walk_expr(lv.ptr)
        elif isinstance(lv, IndexLv):
            walk_expr(lv.base)
            walk_expr(lv.index)
        elif isinstance(lv, FieldLv):
            walk_lval(lv.base)

    if isinstance(cmd, CSet):
        walk_lval(cmd.lval)
        walk_expr(cmd.expr)
    elif isinstance(cmd, CAlloc):
        walk_lval(cmd.lval)
        walk_expr(cmd.size)
    elif isinstance(cmd, CAssume):
        walk_expr(cmd.cond)
    elif isinstance(cmd, CCall):
        walk_expr(cmd.callee)
        for arg in cmd.args:
            walk_expr(arg)
    elif isinstance(cmd, CRetBind) and cmd.lval is not None:
        walk_lval(cmd.lval)
    elif isinstance(cmd, CReturn) and cmd.value is not None:
        walk_expr(cmd.value)
    return exprs, lvals


def _logs(log: AccessLog) -> tuple:
    return (
        sorted(map(repr, log.used)),
        sorted(map(repr, log.defined)),
        sorted(map(repr, log.strong_defined)),
    )


def _state_diff(out, ref, base: AbsState) -> list:
    """Where two transfer outputs over ``base`` differ: ``None`` against a
    state, a location present in one only, or an entry whose ``repr``
    differs. Entries both outputs share with ``base`` are equal, so only
    the others are rendered."""
    if out is None or ref is None:
        return [] if out is ref else [("reachability", out is None, ref is None)]
    diffs = []
    keys = set(out.locations())
    if keys != ref.locations():
        diffs.append(("locations", sorted(map(repr, keys ^ ref.locations()))))
    for loc in keys:
        value, want = out.get(loc), ref.get(loc)
        old = base.get(loc)
        if (value is not old or want is not old) and repr(value) != repr(want):
            diffs.append((repr(loc), repr(value), repr(want)))
    return diffs


def mismatches(program: Program) -> list:
    """Every disagreement between the compiled semantics and the oracle."""
    pre = run_preanalysis(program)
    dense = run_dense(program, pre)
    found = []
    for strict in (True, False):
        for site_callees in (None, pre.site_callees):
            ctx = AnalysisContext(program, site_callees, strict=strict)
            where = (strict, site_callees is not None)
            for node in program.nodes():
                exprs, lvals = subterms(node.cmd)
                states = [AbsState(), pre.state]
                if node.nid in dense.table:
                    states.append(dense.table[node.nid])
                for k, state in enumerate(states):
                    at = (*where, node.nid, str(node.cmd), k)
                    log, ref_log = AccessLog(), AccessLog()
                    out = transfer(node, state, ctx, log)
                    plain = transfer(node, state, ctx)
                    ref = oracle.transfer(node, state, ctx, ref_log)
                    for diff in _state_diff(out, ref, state):
                        found.append((*at, "logged", diff))
                    for diff in _state_diff(plain, ref, state):
                        found.append((*at, "unlogged", diff))
                    if _logs(log) != _logs(ref_log):
                        found.append((*at, "log", _logs(log), _logs(ref_log)))
                    for expr in exprs:
                        log, ref_log = AccessLog(), AccessLog()
                        got = repr(Evaluator(ctx, state, log).eval(expr))
                        want = repr(oracle.Evaluator(ctx, state, ref_log).eval(expr))
                        plain_got = repr(Evaluator(ctx, state).eval(expr))
                        if got != want or plain_got != want:
                            found.append((*at, str(expr), got, plain_got, want))
                        if _logs(log) != _logs(ref_log):
                            found.append((*at, str(expr), "log"))
                    for lval in lvals:
                        log, ref_log = AccessLog(), AccessLog()
                        got = Evaluator(ctx, state, log).lval_locs(lval)
                        want = oracle.Evaluator(ctx, state, ref_log).lval_locs(lval)
                        if got != want or _logs(log) != _logs(ref_log):
                            found.append((*at, str(lval), got, want))
    return found


class TestCompiledMatchesOracle:
    @pytest.mark.parametrize("spec", SUITE, ids=lambda s: s.name)
    def test_codegen_rungs(self, spec):
        assert mismatches(build_program(generate_source(spec))) == []

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_example_files(self, path):
        assert mismatches(program_of_file(path)) == []

    @pytest.mark.parametrize("seed", [11 * i + 3 for i in range(N_SEEDS)])
    def test_random_programs(self, seed):
        program = build_program(generate_source(random_spec(seed)))
        assert mismatches(program) == []


def test_context_reuses_compiled_transfer():
    """A node compiles once per context; a different node object under the
    same id (a test-built node, say) gets its own closure."""
    from repro.ir.cfg import Node

    program = build_program("int g; int main(void) { g = 1; return g; }")
    ctx = AnalysisContext(program, {})
    node = next(n for n in program.nodes() if isinstance(n.cmd, CSet))
    first = ctx._transfer_fn(node)
    assert ctx._transfer_fn(node) is first
    stand_in = Node(node.nid, node.proc, CReturn(None))
    assert ctx._transfer_fn(stand_in) is not first
    assert transfer(stand_in, AbsState(), ctx) is not None


class TestCompiledCodeLifetime:
    """Compiled closures belong to their context, which belongs to its
    run or session: none of them may keep an old program alive."""

    SOURCE = generate_source(upto(default_suite(), "bc-mini")[-1])

    def test_analysis_run_releases_its_program(self):
        """Reference counting frees the run's program the moment the run
        is dropped; the cyclic collector is off the whole time."""
        gc.disable()
        try:
            run = analyze(self.SOURCE, domain="interval", mode="sparse")
            program = weakref.ref(run.program)
            del run
            assert program() is None
        finally:
            gc.enable()

    def test_context_is_freed_without_the_cycle_collector(self):
        """No compiled closure refers back to its context, so dropping the
        last reference frees it at once, not at some later full
        collection that may come after the run's memory peak."""
        program = build_program(self.SOURCE)
        pre = run_preanalysis(program)
        gc.disable()
        try:
            ctx = AnalysisContext(program, pre.site_callees)
            for node in program.nodes():
                transfer(node, pre.state, ctx, AccessLog())
            alive = weakref.ref(ctx)
            del ctx
            assert alive() is None
        finally:
            gc.enable()

    def test_serve_session_holds_one_program_across_edits(self):
        """Each edit's replaced program is freed by reference counting,
        with the cyclic collector off for the whole session."""
        gc.disable()
        try:
            before = [obj for obj in gc.get_objects() if isinstance(obj, Program)]
            session = ServeSession(self.SOURCE)
            session.query_interval("f0", "v0")
            for i in range(20):
                function = f"f{i % 10}"
                session.edit(function=function, body=f"  return p0 + {i};")
                assert session.query_interval(function, "p0").solve is not None
            live = [
                obj
                for obj in gc.get_objects()
                if isinstance(obj, Program) and not any(obj is old for old in before)
            ]
            assert len(live) == 1 and live[0] is session.program
        finally:
            gc.enable()
