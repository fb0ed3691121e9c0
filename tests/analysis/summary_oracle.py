"""Test oracle for the procedure summaries of :mod:`repro.analysis.defuse`.

The analysis closes ``proc_{defs,uses,callees}_trans`` and solves the
must-def greatest fixpoint bottom-up over the call graph's SCCs. This
oracle does both the plain way: chaotic iteration over every caller/callee
pair until the summaries stop growing, then re-solving every procedure's
must-defs until none shrinks. The least and the greatest fixpoints are
unique, so both must agree field by field.
"""

from __future__ import annotations

from repro.analysis.defuse import _proc_must
from repro.ir.commands import CCall


def summaries_oracle(program, pre, info) -> dict[str, dict]:
    """The closed summary fields of ``info``, recomputed from its
    node-level ``defs``/``uses``."""
    procs = program.procedures()
    own_defs = {p: set() for p in procs}
    own_uses = {p: set() for p in procs}
    calls = {p: set() for p in procs}
    for node in program.nodes():
        own_defs[node.proc].update(info.defs[node.nid])
        own_uses[node.proc].update(info.uses[node.nid])
        if isinstance(node.cmd, CCall):
            calls[node.proc].update(pre.site_callees.get(node.nid, ()))

    trans_defs = {p: set(s) for p, s in own_defs.items()}
    trans_uses = {p: set(s) for p, s in own_uses.items()}
    trans_callees = {p: {p} | calls[p] for p in procs}
    changed = True
    while changed:
        changed = False
        for caller, callees in calls.items():
            for callee in callees:
                for table in (trans_defs, trans_uses, trans_callees):
                    before = len(table[caller])
                    table[caller].update(table.get(callee, ()))
                    changed |= len(table[caller]) != before

    def frozen(table):
        return {p: frozenset(s) for p, s in table.items()}

    return {
        "proc_defs": frozen(own_defs),
        "proc_uses": frozen(own_uses),
        "proc_defs_trans": frozen(trans_defs),
        "proc_uses_trans": frozen(trans_uses),
        "proc_callees_trans": frozen(trans_callees),
    }


def must_defs_oracle(program, pre, info) -> dict[str, frozenset]:
    """``proc_must_defs``: every procedure starts at its may-def summary
    and all of them are re-solved until none shrinks."""
    must = {p: info.proc_defs_trans[p] for p in program.procedures()}
    changed = True
    while changed:
        changed = False
        for proc in program.cfgs:
            new = _proc_must(program, pre, info, must, proc)
            if new != must[proc]:
                must[proc] = new
                changed = True
    return must
