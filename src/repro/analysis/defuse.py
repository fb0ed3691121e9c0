"""Safe approximation of definition and use sets (Sections 2.5, 3.2).

``D̂(c)``/``Û(c)`` are derived *semantically*: each command's abstract
transfer function runs once over the pre-analysis state ``T̂_pre`` with an
:class:`AccessLog` attached, so every location it may read or write —
including implicit uses of weakly-updated targets — is recorded. This is
exactly the derivation of Section 3.2 and satisfies Definition 5
(Lemma 3): writes against a conservative input over-approximate writes
against any reachable input, and spurious definitions are weak updates,
which the log also marks as uses.

Procedure-level summaries (all locations defined/used by a procedure and
its transitive callees) feed both the interprocedural dependency generation
of Section 5 and the access-based localization of the baseline analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.preanalysis import PreAnalysis
from repro.analysis.schedule import _tarjan_sccs
from repro.analysis.semantics import AccessLog, AnalysisContext, transfer
from repro.domains.absloc import AbsLoc, RetLoc, VarLoc
from repro.ir.commands import CCall, CRetBind
from repro.ir.program import Program


@dataclass
class DefUseInfo:
    """Per-node and per-procedure def/use sets."""

    defs: dict[int, frozenset[AbsLoc]] = field(default_factory=dict)
    uses: dict[int, frozenset[AbsLoc]] = field(default_factory=dict)
    #: killing (strong) writes per node — seeds of the must-def analysis
    strong_defs: dict[int, frozenset[AbsLoc]] = field(default_factory=dict)
    #: locations strongly defined on *every* path through a procedure
    proc_must_defs: dict[str, frozenset[AbsLoc]] = field(default_factory=dict)
    #: locations defined by a procedure's own body
    proc_defs: dict[str, frozenset[AbsLoc]] = field(default_factory=dict)
    proc_uses: dict[str, frozenset[AbsLoc]] = field(default_factory=dict)
    #: closed under transitive callees
    proc_defs_trans: dict[str, frozenset[AbsLoc]] = field(default_factory=dict)
    proc_uses_trans: dict[str, frozenset[AbsLoc]] = field(default_factory=dict)
    #: transitive callees of each procedure (including itself)
    proc_callees_trans: dict[str, frozenset[str]] = field(default_factory=dict)

    def d(self, nid: int) -> frozenset[AbsLoc]:
        return self.defs.get(nid, frozenset())

    def u(self, nid: int) -> frozenset[AbsLoc]:
        return self.uses.get(nid, frozenset())

    def accessed_by(self, proc: str) -> frozenset[AbsLoc]:
        """All locations the procedure (with callees) may touch."""
        return self.proc_defs_trans.get(proc, frozenset()) | self.proc_uses_trans.get(
            proc, frozenset()
        )

    def average_sizes(self) -> tuple[float, float]:
        """Average |D̂(c)| and |Û(c)| — the Table 2/3 sparsity columns."""
        n = max(len(self.defs), 1)
        d = sum(len(s) for s in self.defs.values()) / n
        u = sum(len(s) for s in self.uses.values()) / n
        return d, u


def compute_defuse(program: Program, pre: PreAnalysis) -> DefUseInfo:
    """Compute node-level D̂/Û from the pre-analysis, then close
    procedure summaries over the call graph.

    The derivation runs the non-strict transfer functions: an assume that
    looks infeasible under the coarse pre-state must still be recorded as
    defining/using what it refines, or dependency chains would bypass the
    refinement point.
    """
    ctx = AnalysisContext(program, pre.site_callees, strict=False)
    info = DefUseInfo()

    for node in program.nodes():
        log = AccessLog()
        transfer(node, pre.state, ctx, log)
        info.defs[node.nid] = frozenset(log.defined)
        info.uses[node.nid] = frozenset(log.used)
        info.strong_defs[node.nid] = frozenset(log.strong_defined)

    sccs = close_proc_summaries(program, pre, info)
    _compute_must_defs(program, pre, info, sccs)
    return info


def close_proc_summaries(
    program: Program, pre: PreAnalysis, info: DefUseInfo
) -> list[tuple[list[str], bool]]:
    """Fill the procedure summaries from the node-level D̂/Û: each body's
    own definitions and uses, then their closure over transitive callees.

    The closure is one bottom-up pass over the SCCs of the call graph,
    callees first; the members of a recursive SCC reach each other, so they
    share one summary. Returns those SCCs as ``(members, recursive)``."""
    procs = program.procedures()
    own_defs: dict[str, set] = {p: set() for p in procs}
    own_uses: dict[str, set] = {p: set() for p in procs}
    calls: dict[str, set[str]] = {p: set() for p in procs}
    for node in program.nodes():
        own_defs[node.proc].update(info.defs[node.nid])
        own_uses[node.proc].update(info.uses[node.nid])
        if isinstance(node.cmd, CCall):
            calls[node.proc].update(pre.site_callees.get(node.nid, ()))
    info.proc_defs = {p: frozenset(s) for p, s in own_defs.items()}
    info.proc_uses = {p: frozenset(s) for p, s in own_uses.items()}

    trans_defs: dict[str, frozenset] = {}
    trans_uses: dict[str, frozenset] = {}
    trans_callees: dict[str, frozenset[str]] = {}
    sccs = _tarjan_sccs(procs, calls, None)
    for members, _recursive in sccs:
        defs: set = set()
        uses: set = set()
        callees: set[str] = set(members)
        for proc in members:
            defs.update(own_defs.get(proc, ()))
            uses.update(own_uses.get(proc, ()))
            for callee in calls.get(proc, ()):
                if callee in trans_callees:  # a finished, lower SCC
                    defs.update(trans_defs[callee])
                    uses.update(trans_uses[callee])
                    callees.update(trans_callees[callee])
        frozen = (frozenset(defs), frozenset(uses), frozenset(callees))
        for proc in members:
            trans_defs[proc], trans_uses[proc], trans_callees[proc] = frozen
    info.proc_defs_trans = {p: trans_defs[p] for p in procs}
    info.proc_uses_trans = {p: trans_uses[p] for p in procs}
    info.proc_callees_trans = {p: trans_callees[p] for p in procs}
    return sccs


def _compute_must_defs(
    program: Program,
    pre: PreAnalysis,
    info: DefUseInfo,
    sccs: list[tuple[list[str], bool]],
) -> None:
    """Interprocedural must-def analysis.

    ``proc_must_defs[p]`` under-approximates the locations *strongly*
    defined on every entry→exit path of ``p`` (including through callees).
    A call kills exactly these, so a definition before a call that always
    overwrites ``l`` does not spuriously flow past the return site.

    Greatest fixpoint, solved bottom-up over the call graph's SCCs: a
    procedure outside recursion reads only finished callee summaries and
    is solved once; the members of a recursive SCC start at their may-def
    sets and shrink together. Within a procedure a standard all-paths
    forward intersection runs over the CFG.
    """
    must: dict[str, frozenset[AbsLoc]] = {
        p: info.proc_defs_trans.get(p, frozenset()) for p in program.procedures()
    }
    for members, recursive in sccs:
        members = [p for p in members if p in program.cfgs]
        changed = True
        while changed:
            changed = False
            for proc in members:
                new = _proc_must(program, pre, info, must, proc)
                if new != must[proc]:
                    must[proc] = new
                    changed = recursive
    info.proc_must_defs = must


def _proc_must(
    program: Program,
    pre: PreAnalysis,
    info: DefUseInfo,
    must: dict[str, frozenset[AbsLoc]],
    proc: str,
) -> frozenset[AbsLoc]:
    cfg = program.cfgs[proc]
    if cfg.entry is None or cfg.exit is None:
        return frozenset()
    universe = info.proc_defs_trans.get(proc, frozenset())
    out: dict[int, frozenset[AbsLoc]] = {
        n.nid: universe for n in cfg.nodes
    }
    out[cfg.entry.nid] = info.strong_defs.get(cfg.entry.nid, frozenset())
    changed = True
    while changed:
        changed = False
        for node in cfg.nodes:
            nid = node.nid
            if nid == cfg.entry.nid:
                continue
            preds = cfg.preds.get(nid, [])
            if preds:
                acc: frozenset[AbsLoc] | None = None
                for p in preds:
                    acc = out[p] if acc is None else acc & out[p]
                in_set = acc if acc is not None else frozenset()
            else:
                in_set = frozenset()
            gen = set(info.strong_defs.get(nid, frozenset()))
            if isinstance(node.cmd, CRetBind):
                call_node = program.node(node.cmd.call_node)
                callees = pre.site_callees.get(call_node.nid, ())
                if callees:
                    callee_must: frozenset[AbsLoc] | None = None
                    for k in callees:
                        m = must.get(k, frozenset())
                        callee_must = m if callee_must is None else callee_must & m
                    gen |= callee_must or frozenset()
            new = frozenset(in_set | gen)
            if new != out[nid]:
                out[nid] = new
                changed = True
    return out[cfg.exit.nid]


def localization_set(
    program: Program, info: DefUseInfo, callee: str
) -> frozenset[AbsLoc]:
    """The locations the access-based localization [38] passes into
    ``callee``: everything the callee may (transitively) access, plus the
    formals and return cells of every procedure along the call chain."""
    acc: set[AbsLoc] = set(info.accessed_by(callee))
    for proc in info.proc_callees_trans.get(callee, frozenset({callee})):
        pinfo = program.proc_infos.get(proc)
        if pinfo is not None:
            acc.update(VarLoc(p, proc) for p in pinfo.params)
        acc.add(RetLoc(proc))
    return frozenset(acc)
