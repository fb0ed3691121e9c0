"""Data-dependency generation (Sections 2.6, 2.8 and 5).

A data dependency ``c0 —l→ cn`` (Definition 4, over approximated D̂/Û)
means: some path from ``c0`` to ``cn`` carries the value of abstract
location ``l`` from its definition at ``c0`` to its use at ``cn`` with no
intermediate (approximated) definition. The sparse engine propagates values
along these edges only.

Following Section 5, dependencies are generated **per procedure** to avoid
the spurious interprocedural dependencies of the naïve whole-graph approach:

* a call node counts as a *use* of everything its callees (transitively)
  use, a return-site node as a *definition* of everything they define;
* the entry of a procedure counts as a definition of everything the body
  uses; the exit as a use of everything the body defines;
* after per-procedure generation, interprocedural edges connect call sites
  to callee entries (for used locations) and callee exits to return sites
  (for defined locations);
* finally the **bypass optimization** removes pass-through nodes: when
  ``a —l→ b`` and ``b —l→ c`` with ``l`` neither really defined nor used at
  ``b``, the pair is replaced by ``a —l→ c`` — this is what makes the
  analysis *fully* sparse across call chains. Rather than rewriting pairs,
  the generators write each location's raw edges into an in-adjacency and
  one memoised closure per location connects every real use to the real
  definitions reaching it through pass-through nodes; the raw relation is
  never materialised, and each location's adjacency is freed once closed.

Intra-procedural chains come from SSA construction: dominance frontiers
for phi placement and a renaming walk (the paper's choice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.defuse import DefUseInfo
from repro.analysis.preanalysis import PreAnalysis
from repro.domains.absloc import AbsLoc
from repro.ir.cfg import ProcCFG
from repro.ir.commands import CCall, CRetBind
from repro.ir.dominators import compute_dominators, iterated_frontier
from repro.ir.program import Program


class DataDeps:
    """The ternary dependency relation ``↝ ⊆ C × L̂ × C`` with adjacency
    indexes in both directions. Both indexes hold the *same* location set
    for a pair ``(src, dst)``."""

    def __init__(self) -> None:
        self._out: dict[int, dict[int, set[AbsLoc]]] = {}
        self._in: dict[int, dict[int, set[AbsLoc]]] = {}
        self._count = 0

    def add(self, src: int, dst: int, loc: AbsLoc) -> None:
        by_dst = self._out.get(src)
        if by_dst is None:
            by_dst = self._out[src] = {}
        locs = by_dst.get(dst)
        if locs is None:
            locs = by_dst[dst] = set()
            self._in.setdefault(dst, {})[src] = locs
        if loc not in locs:
            locs.add(loc)
            self._count += 1

    def remove(self, src: int, dst: int, loc: AbsLoc) -> None:
        locs = self._out.get(src, {}).get(dst)
        if locs is None or loc not in locs:
            return
        locs.remove(loc)
        self._count -= 1
        if not locs:
            del self._out[src][dst]
            del self._in[dst][src]

    def has(self, src: int, dst: int, loc: AbsLoc) -> bool:
        return loc in self._out.get(src, {}).get(dst, ())

    def out_edges(self, src: int) -> list[tuple[int, frozenset[AbsLoc]]]:
        return [
            (dst, frozenset(locs)) for dst, locs in self._out.get(src, {}).items()
        ]

    def in_edges(self, dst: int) -> list[tuple[int, frozenset[AbsLoc]]]:
        return [
            (src, frozenset(locs)) for src, locs in self._in.get(dst, {}).items()
        ]

    def triples(self) -> Iterator[tuple[int, int, AbsLoc]]:
        for src, by_dst in self._out.items():
            for dst, locs in by_dst.items():
                for loc in locs:
                    yield src, dst, loc

    def __len__(self) -> int:
        return self._count

    def node_succs(self) -> dict[int, list[int]]:
        """Projection to a plain node graph (for widening-point detection)."""
        return {src: list(by_dst.keys()) for src, by_dst in self._out.items()}

    def all_locations(self) -> set[AbsLoc]:
        out: set[AbsLoc] = set()
        for _src, _dst, loc in self.triples():
            out.add(loc)
        return out


@dataclass
class AugmentedDefUse:
    """Per-node D̂/Û augmented with the Section 5 procedure summaries."""

    defs: dict[int, set[AbsLoc]] = field(default_factory=dict)
    uses: dict[int, set[AbsLoc]] = field(default_factory=dict)
    #: per-node uses satisfied *only* by interprocedural edges (callee
    #: exit → retbind); the intraprocedural chain generators must not
    #: connect a caller-side reaching definition to them, or the sparse
    #: engine would join the stale pre-call value with the callee's
    #: result — the dense engines route the whole state through the
    #: callee, never around it
    routed: dict[int, set[AbsLoc]] = field(default_factory=dict)


def augment_defuse(
    program: Program,
    pre: PreAnalysis,
    defuse: DefUseInfo,
) -> AugmentedDefUse:
    """Fold callee summaries into call/return/entry/exit nodes."""
    aug = AugmentedDefUse(
        defs={nid: set(s) for nid, s in defuse.defs.items()},
        uses={nid: set(s) for nid, s in defuse.uses.items()},
    )
    for proc, cfg in program.cfgs.items():
        body_uses = defuse.proc_uses_trans.get(proc, frozenset())
        body_defs = defuse.proc_defs_trans.get(proc, frozenset())
        if cfg.entry is not None:
            aug.defs.setdefault(cfg.entry.nid, set()).update(body_uses)
        if cfg.exit is not None:
            aug.uses.setdefault(cfg.exit.nid, set()).update(body_defs)
        for node in cfg.nodes:
            if isinstance(node.cmd, CCall):
                for callee in pre.site_callees.get(node.nid, ()):
                    aug.uses.setdefault(node.nid, set()).update(
                        defuse.proc_uses_trans.get(callee, frozenset())
                    )
            elif isinstance(node.cmd, CRetBind):
                call_node = program.node(node.cmd.call_node)
                callees = pre.site_callees.get(call_node.nid, ())
                all_defs: set[AbsLoc] = set()
                for callee in callees:
                    all_defs |= defuse.proc_defs_trans.get(callee, frozenset())
                aug.defs.setdefault(node.nid, set()).update(all_defs)
                # A location must additionally be *used* at the return site
                # when some callee neither kills it on every path (must-def)
                # nor carries the caller's value through its body (use):
                # then the pre-call value survives around the call and must
                # flow to later uses via this node.
                bypass_needed = {
                    loc
                    for loc in all_defs
                    if any(
                        loc not in defuse.proc_must_defs.get(k, frozenset())
                        and loc not in defuse.proc_uses_trans.get(k, frozenset())
                        for k in callees
                    )
                }
                aug.uses.setdefault(node.nid, set()).update(bypass_needed)
                # The complementary case: every callee routes the location
                # through its body (kills it on all paths, or reads it so
                # its value travels the callee's own chains to the exit).
                # The callee-exit edge then carries everything the return
                # site needs; chaining the caller-side definition here too
                # would re-introduce the stale pre-call value. This matters
                # for pack-granular (octagon) dependencies, where the call
                # node's parameter binding *defines* a pack the callee then
                # refines — joining both versions loses the refinement.
                routed = {
                    loc
                    for loc in all_defs
                    if callees
                    and all(
                        loc in defuse.proc_defs_trans.get(k, frozenset())
                        and (
                            loc in defuse.proc_must_defs.get(k, frozenset())
                            or loc
                            in defuse.proc_uses_trans.get(k, frozenset())
                        )
                        for k in callees
                    )
                }
                if routed:
                    aug.routed.setdefault(node.nid, set()).update(routed)
    return aug


# --------------------------------------------------------------------------
# Intraprocedural chain generation: SSA renaming walk
# --------------------------------------------------------------------------

#: One location's raw edges by destination: ``preds[dst]`` is the ``src``
#: of ``src —l→ dst``. Most uses have one reaching definition, stored as a
#: bare node id; a set appears only with a second source (far fewer
#: objects for the allocator and the cyclic garbage collector to track).
Preds = dict[int, int | set[int]]
#: The raw relation before bypassing, indexed for the per-location closure.
InAdjacency = dict[AbsLoc, Preds]


def _link(adj: InAdjacency, src: int, dst: int, loc: AbsLoc) -> None:
    preds = adj.get(loc)
    if preds is None:
        adj[loc] = {dst: src}
        return
    srcs = preds.get(dst)
    if srcs is None:
        preds[dst] = src
    elif type(srcs) is int:
        if srcs != src:
            preds[dst] = {srcs, src}
    else:
        srcs.add(src)


def _sources(preds: Preds, dst: int) -> tuple[int, ...] | set[int]:
    srcs = preds.get(dst, ())
    return (srcs,) if type(srcs) is int else srcs


def _ssa_chains(cfg: ProcCFG, aug: AugmentedDefUse, adj: InAdjacency) -> None:
    """Generate def-use chains within one procedure via SSA construction.

    Phi placement at iterated dominance frontiers adds ``l`` to both the
    definition and use set of the join node (a safe approximation by
    Definition 5), after which every use has a unique reaching definition
    found by a single renaming walk over the dominator tree.
    """
    assert cfg.entry is not None
    dom = compute_dominators(cfg.entry.nid, cfg.succs, cfg.preds)
    reachable = set(dom.rpo)

    defs_of_loc: dict[AbsLoc, set[int]] = {}
    for nid in reachable:
        for loc in aug.defs.get(nid, ()):
            defs_of_loc.setdefault(loc, set()).add(nid)

    phis: dict[int, set[AbsLoc]] = {nid: set() for nid in reachable}
    for loc, def_sites in defs_of_loc.items():
        for site in iterated_frontier(dom, def_sites):
            phis[site].add(loc)

    stacks: dict[AbsLoc, list[int]] = {}
    uses, routed, succs = aug.uses, aug.routed, cfg.succs
    none: frozenset[AbsLoc] = frozenset()

    # Iterative preorder walk over the dominator tree with explicit
    # push/pop bookkeeping (Cytron renaming); a finished node carries the
    # locations it pushed.
    work: list[tuple[int, set[AbsLoc] | None]] = [(cfg.entry.nid, None)]
    while work:
        nid, pushed = work.pop()
        if pushed is not None:
            for loc in pushed:
                stacks[loc].pop()
            continue
        node_phis = phis[nid]
        node_routed = routed.get(nid, none)
        for loc in uses.get(nid, none):  # ordinary uses
            if loc in node_phis:
                continue  # satisfied by the phi (incoming dep edges)
            if loc in node_routed:
                continue  # satisfied by the callee-exit edge alone
            stack = stacks.get(loc)
            if stack:
                _link(adj, stack[-1], nid, loc)
        pushed = aug.defs.get(nid, set()) | node_phis
        for loc in pushed:
            stack = stacks.get(loc)
            if stack is None:
                stacks[loc] = [nid]
            else:
                stack.append(nid)
        for succ in succs.get(nid, ()):
            for loc in phis.get(succ, ()):
                stack = stacks.get(loc)
                if stack:
                    _link(adj, stack[-1], succ, loc)
        work.append((nid, pushed))
        for child in reversed(dom.children.get(nid, [])):
            work.append((child, None))

    # Phi locations behave as simultaneous def+use so downstream safety
    # condition D̂−D ⊆ Û holds; record them in the augmented sets.
    for nid, locs in phis.items():
        if locs:
            aug.defs.setdefault(nid, set()).update(locs)
            aug.uses.setdefault(nid, set()).update(locs)


# --------------------------------------------------------------------------
# Interprocedural edges + bypass optimization
# --------------------------------------------------------------------------


def _add_interproc_edges(
    program: Program,
    pre: PreAnalysis,
    defuse: DefUseInfo,
    adj: InAdjacency,
) -> None:
    for node in program.nodes():
        if not isinstance(node.cmd, CCall):
            continue
        cfg = program.cfgs[node.proc]
        retbind = next(
            (
                s
                for s in cfg.succs.get(node.nid, ())
                if isinstance(cfg.node(s).cmd, CRetBind)
            ),
            None,
        )
        for callee in pre.site_callees.get(node.nid, ()):
            callee_cfg = program.cfgs[callee]
            if callee_cfg.entry is not None:
                for loc in defuse.proc_uses_trans.get(callee, frozenset()):
                    _link(adj, node.nid, callee_cfg.entry.nid, loc)
            if callee_cfg.exit is not None and retbind is not None:
                for loc in defuse.proc_defs_trans.get(callee, frozenset()):
                    _link(adj, callee_cfg.exit.nid, retbind, loc)


def bypass_optimization(
    deps: DataDeps, defuse: DefUseInfo, keep: set[int] | None = None
) -> DataDeps:
    """Rewrite ``a—l→b—l→c`` into ``a—l→c`` whenever ``l`` is neither
    really defined nor used at ``b`` (Section 5), on an explicit raw
    relation. :func:`generate_datadeps` runs the same closure without
    materialising ``deps``; see :func:`_bypass_closure`."""
    adj: InAdjacency = {}
    for src, dst, loc in deps.triples():
        _link(adj, src, dst, loc)
    return _bypass_closure(adj, defuse, keep or set())


def _bypass_closure(
    adj: InAdjacency, defuse: DefUseInfo, keep: set[int]
) -> DataDeps:
    """The bypassed relation: each real destination of ``l`` depends on
    the real sources that reach it through pass-through nodes only.

    The result equals the paper's pairwise rewriting iterated to
    convergence, computed as one memoised closure per location. A node is
    *pass-through* for ``l`` when it is not in ``keep`` (widening points
    are never bypassed — values must keep flowing through them so the
    sparse engine widens exactly where the dense one does) and ``l`` is in
    neither its D̂ nor its Û; the real sources reaching a pass-through node
    are resolved once per location (:func:`_resolve`). ``adj`` is consumed:
    each location's adjacency is dropped as soon as it is closed.
    """
    real_at: dict[AbsLoc, set[int]] = {}
    for table in (defuse.defs, defuse.uses):
        for nid, locs in table.items():
            for loc in locs:
                nodes = real_at.get(loc)
                if nodes is None:
                    real_at[loc] = {nid}
                else:
                    nodes.add(nid)
    out = DataDeps()
    add = out.add
    while adj:
        loc, preds = adj.popitem()
        real = keep | real_at.get(loc, set())
        resolved: dict[int, set[int]] = {}
        for dst in preds:
            if dst not in real:
                continue
            for src in _sources(preds, dst):
                if src in real:
                    add(src, dst, loc)
                    continue
                sources = resolved.get(src)
                if sources is None:
                    sources = _resolve(src, preds, real, resolved)
                for real_src in sources:
                    add(real_src, dst, loc)
    return out


def _resolve(
    root: int,
    preds: Preds,
    real: set[int],
    resolved: dict[int, set[int]],
) -> set[int]:
    """Real sources reaching pass-through node ``root`` through pass-through
    nodes only, memoised in ``resolved`` for every node visited.

    An iterative Tarjan walk over the pass-through predecessors: without
    widening barriers, loop-head phis and recursion form pass-through
    cycles, and every node of such a cycle resolves to the same set."""
    number = {root: 0}
    low = [0]
    acc: list[set[int]] = [set()]
    stack = [root]
    frames = [(root, 0, iter(_sources(preds, root)))]
    while frames:
        node, i, it = frames[-1]
        mine = acc[i]
        for src in it:
            if src in real:
                mine.add(src)
                continue
            done = resolved.get(src)
            if done is not None:
                mine |= done
                continue
            j = number.get(src)
            if j is not None:  # still on the stack: a pass-through cycle
                if j < low[i]:
                    low[i] = j
                continue
            j = len(low)
            number[src] = j
            low.append(j)
            acc.append(set())
            stack.append(src)
            frames.append((src, j, iter(_sources(preds, src))))
            break
        else:
            frames.pop()
            if low[i] == i:  # ``node`` heads a component: close it
                member = stack.pop()
                while member != node:
                    mine |= acc[number[member]]
                    resolved[member] = mine
                    member = stack.pop()
                resolved[node] = mine
                if frames:
                    acc[frames[-1][1]] |= mine
            elif low[i] < low[frames[-1][1]]:
                low[frames[-1][1]] = low[i]
    return resolved[root]


@dataclass
class DataDepResult:
    """Generated dependencies plus the augmented def/use view."""

    deps: DataDeps
    aug: AugmentedDefUse
    raw_dep_count: int = 0  # before bypass


def generate_datadeps(
    program: Program,
    pre: PreAnalysis,
    defuse: DefUseInfo,
    bypass: bool = True,
    widening_points: set[int] | None = None,
    telemetry=None,
) -> DataDepResult:
    """Generate the full interprocedural data-dependency relation.

    ``widening_points`` (loop heads / recursive entries of the control
    graph) become barriers: they count as definition-and-use of every
    location flowing through their procedure, so dependency chains are cut
    there and the sparse engine widens on exactly the same streams as the
    dense engine — preserving precision *including* widening behaviour.
    """
    wps = widening_points or set()
    aug = augment_defuse(program, pre, defuse)
    adj: InAdjacency = {}
    for cfg in program.cfgs.values():
        if cfg.entry is None:
            continue
        proc_wps = [n.nid for n in cfg.nodes if n.nid in wps]
        if proc_wps:
            proc_locs: set[AbsLoc] = set()
            for node in cfg.nodes:
                proc_locs.update(aug.defs.get(node.nid, ()))
            for wp in proc_wps:
                aug.defs.setdefault(wp, set()).update(proc_locs)
                aug.uses.setdefault(wp, set()).update(proc_locs)
        _ssa_chains(cfg, aug, adj)
    _add_interproc_edges(program, pre, defuse, adj)
    raw = sum(
        1 if type(srcs) is int else len(srcs)
        for preds in adj.values()
        for srcs in preds.values()
    )
    if bypass:
        deps = _bypass_closure(adj, defuse, wps)
    else:
        deps = DataDeps()
        for loc, preds in adj.items():
            for dst in preds:
                for src in _sources(preds, dst):
                    deps.add(src, dst, loc)
    if telemetry is not None and telemetry.enabled:
        telemetry.count("dep.generated", raw)
        telemetry.count("dep.bypassed", raw - len(deps))
        telemetry.gauge("dep.final", len(deps))
        telemetry.gauge("dep.widening_barriers", len(wps))
    return DataDepResult(deps, aug, raw_dep_count=raw)
