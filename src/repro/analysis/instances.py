"""Existing sparse analyses as instances of the framework (Section 3.2).

The paper shows two influential sparse pointer analyses are restricted
instances of its design:

* **Semi-sparse flow-sensitive analysis** (Hardekopf & Lin, POPL 2009)
  applies sparseness only to *top-level* variables — those whose address
  is never taken. The paper obtains it by a pre-analysis that maps every
  non-top-level variable to ⊤ points-to information
  (``T̂_pre(c)(x).P̂ = L̂``), which makes their def/use sets maximally
  coarse while top-level variables keep precise chains.

* **Staged flow-sensitive analysis** (Hardekopf & Lin, CGO 2011) uses an
  auxiliary flow-insensitive pointer analysis for def/use information —
  which is exactly our default pre-analysis, so the full-sparse pipeline
  *is* that instance (extended with numeric values).

This module implements the semi-sparse coarsening so the two instances can
be compared head-to-head: same engine, same programs, different D̂/Û
approximations — the framework knob the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.engine import FixpointResult
from repro.analysis.preanalysis import PreAnalysis, run_preanalysis
from repro.analysis.semantics import Evaluator
from repro.analysis.sparse import run_sparse
from repro.domains.absloc import AbsLoc, FieldLoc, VarLoc
from repro.domains.state import AbsState
from repro.domains.value import AbsValue
from repro.ir.commands import EAddrOf, VarLv
from repro.ir.program import Program


def address_taken_variables(program: Program) -> set[AbsLoc]:
    """Variables whose address is taken anywhere (``&x``) — the complement
    of Hardekopf/Lin's *top-level* variables."""
    from repro.ir.commands import (
        CAlloc,
        CAssume,
        CCall,
        CReturn,
        CSet,
        DerefLv,
        EBinOp,
        ELval,
        EUnOp,
        Expr,
        FieldLv,
        IndexLv,
        Lval,
    )

    taken: set[AbsLoc] = set()

    def walk_expr(e: Expr) -> None:
        if isinstance(e, EAddrOf):
            lv = e.lval
            base = lv
            while isinstance(base, FieldLv):
                base = base.base
            if isinstance(base, VarLv):
                taken.add(VarLoc(base.name, base.proc))
            walk_lval(lv)
        elif isinstance(e, ELval):
            walk_lval(e.lval)
        elif isinstance(e, EBinOp):
            walk_expr(e.left)
            walk_expr(e.right)
        elif isinstance(e, EUnOp):
            walk_expr(e.operand)

    def walk_lval(lv: Lval) -> None:
        if isinstance(lv, DerefLv):
            walk_expr(lv.ptr)
        elif isinstance(lv, IndexLv):
            walk_expr(lv.base)
            walk_expr(lv.index)
        elif isinstance(lv, FieldLv):
            walk_lval(lv.base)

    for node in program.nodes():
        cmd = node.cmd
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
            for a in cmd.args:
                walk_expr(a)
        elif isinstance(cmd, CReturn) and cmd.value is not None:
            walk_expr(cmd.value)
    return taken


def all_memory_locations(program: Program, pre: PreAnalysis) -> set[AbsLoc]:
    """The location universe ``L̂`` the coarsened pre-analysis points into:
    everything the precise pre-analysis ever materialized."""
    universe: set[AbsLoc] = set(pre.state.locations())
    for value_loc in list(universe):
        if isinstance(value_loc, FieldLoc):
            universe.add(value_loc.base)
    return universe


def semi_sparse_preanalysis(program: Program) -> PreAnalysis:
    """The semi-sparse instance's pre-analysis: identical to the precise
    one for top-level variables, ⊤ points-to for address-taken variables
    (the paper's ``T̂_pre(c)(x).P̂ = L̂``)."""
    precise = run_preanalysis(program)
    taken = address_taken_variables(program)
    universe = frozenset(
        loc
        for loc in all_memory_locations(program, precise)
        if not _is_code_location(loc)
    )

    coarse = AbsState()
    for loc, value in precise.state.items():
        if loc in taken or loc.is_summary():
            # the paper's construction: P̂ becomes the whole location
            # universe for every non-top-level variable, unconditionally
            coarse.set(
                loc,
                AbsValue(itv=value.itv, ptsto=universe, arrays=value.arrays),
            )
        else:
            coarse.set(loc, value)

    out = PreAnalysis(
        program, coarse, rounds=precise.rounds, visits=precise.visits
    )
    out.site_callees = dict(precise.site_callees)
    return out


def _is_code_location(loc: AbsLoc) -> bool:
    from repro.domains.absloc import FuncLoc, RetLoc

    return isinstance(loc, (FuncLoc, RetLoc))


@dataclass
class InstanceComparison:
    """Head-to-head numbers for the framework instances on one program."""

    full_deps: int
    semi_deps: int
    full_avg_d: float
    semi_avg_d: float
    full_avg_u: float
    semi_avg_u: float
    full: FixpointResult
    semi: FixpointResult


def compare_instances(program: Program) -> InstanceComparison:
    """Run the full-sparse pipeline and the semi-sparse instance on the
    same program. The semi-sparse D̂/Û are coarser (address-taken
    variables get blown-up def/use sets), so it generates more
    dependencies — quantifying what the paper's finer-grained framework
    buys."""
    full = run_sparse(program)
    semi_pre = semi_sparse_preanalysis(program)
    semi = run_sparse(program, pre=semi_pre)
    fd, fu = full.defuse.average_sizes()
    sd, su = semi.defuse.average_sizes()
    return InstanceComparison(
        full_deps=full.stats.dep_count,
        semi_deps=semi.stats.dep_count,
        full_avg_d=fd,
        semi_avg_d=sd,
        full_avg_u=fu,
        semi_avg_u=su,
        full=full,
        semi=semi,
    )
