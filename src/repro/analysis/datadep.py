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
  analysis *fully* sparse across call chains.

Intra-procedural chains come from SSA construction: dominance frontiers
for phi placement and a renaming walk (the paper's choice).

**Location masks.** The raw relation has many triples on few node pairs
(vim-mini: 380k triples on 7.7k pairs), so every step works per node pair
on sets of locations, stored as Python-int bit masks. Each
:func:`generate_datadeps` call numbers the locations it meets in a local
:class:`_LocIndex`; the numbering lives only as long as the call and is not
a location identity. The raw relation is an in-adjacency
``raw[dst][src]`` = mask of the locations ``l`` with ``src —l→ dst``.

* *Phi placement* is the iterated dominance frontier of every location at
  once: the least ``phi`` with ``phi[f] ⊇ def[n] | phi[n]`` for each ``f``
  in the frontier of ``n``, a mask dataflow over the frontier graph.
* *Renaming* walks the dominator tree keeping, per definition node, the
  mask of locations whose innermost reaching definition it is, with an
  undo log; a use links to every live entry it intersects.
* *Bypassing* propagates *demand* backwards from real uses (which
  locations each pass-through node must resolve), then resolves each
  demanded node once into a map real source → mask, in dependency order.
  Nodes on a pass-through cycle are resolved together by semi-naïve
  propagation inside their strongly connected component.
* :class:`DataDeps` is built in bulk, with one frozenset per node pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.defuse import DefUseInfo
from repro.analysis.preanalysis import PreAnalysis
from repro.analysis.schedule import _tarjan_sccs
from repro.domains.absloc import AbsLoc
from repro.ir.cfg import ProcCFG
from repro.ir.commands import CCall, CRetBind
from repro.ir.dominators import compute_dominators
from repro.ir.program import Program


class DataDeps:
    """The ternary dependency relation ``↝ ⊆ C × L̂ × C`` with adjacency
    indexes in both directions. Both indexes hold the *same* frozenset for
    a pair ``(src, dst)``; :meth:`out_edges` and :meth:`in_edges` return it
    without copying, and :meth:`add`/:meth:`remove` replace it."""

    def __init__(self) -> None:
        self._out: dict[int, dict[int, frozenset[AbsLoc]]] = {}
        self._in: dict[int, dict[int, frozenset[AbsLoc]]] = {}
        self._count = 0

    @classmethod
    def _from_masks(
        cls, by_dst: dict[int, dict[int, int]], index: _LocIndex
    ) -> DataDeps:
        """The relation of the masks ``by_dst[dst][src]``."""
        deps = cls()
        out, in_, decode = deps._out, deps._in, index.decode
        count = 0
        for dst, preds in by_dst.items():
            row = {}
            for src, mask in preds.items():
                locs = decode(mask)
                row[src] = locs
                succs = out.get(src)
                if succs is None:
                    out[src] = {dst: locs}
                else:
                    succs[dst] = locs
                count += len(locs)
            in_[dst] = row
        deps._count = count
        return deps

    def add(self, src: int, dst: int, loc: AbsLoc) -> None:
        locs = self._out.get(src, {}).get(dst)
        if locs is None:
            locs = frozenset((loc,))
        elif loc in locs:
            return
        else:
            locs = locs | {loc}
        self._out.setdefault(src, {})[dst] = locs
        self._in.setdefault(dst, {})[src] = locs
        self._count += 1

    def remove(self, src: int, dst: int, loc: AbsLoc) -> None:
        locs = self._out.get(src, {}).get(dst)
        if locs is None or loc not in locs:
            return
        self._count -= 1
        locs = locs - {loc}
        if locs:
            self._out[src][dst] = self._in[dst][src] = locs
        else:
            del self._out[src][dst]
            del self._in[dst][src]

    def has(self, src: int, dst: int, loc: AbsLoc) -> bool:
        return loc in self._out.get(src, {}).get(dst, ())

    def out_edges(self, src: int) -> list[tuple[int, frozenset[AbsLoc]]]:
        return list(self._out.get(src, {}).items())

    def in_edges(self, dst: int) -> list[tuple[int, frozenset[AbsLoc]]]:
        return list(self._in.get(dst, {}).items())

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


class _LocIndex:
    """Bit masks for the locations of one dependency generation: the first
    location met gets bit 0, the next bit 1, and so on."""

    def __init__(self) -> None:
        #: location → its single-bit mask
        self._bit: dict[AbsLoc, int] = {}
        self._locs: list[AbsLoc] = []
        #: mask → its locations, shared by every pair with that mask
        self._decoded: dict[int, frozenset[AbsLoc]] = {}

    def mask(self, locs: Iterable[AbsLoc]) -> int:
        """The mask of ``locs``, numbering the ones not met before."""
        bit, mask = self._bit, 0
        for loc in locs:
            b = bit.get(loc)
            if b is None:
                b = bit[loc] = 1 << len(self._locs)
                self._locs.append(loc)
            mask |= b
        return mask

    def decode(self, mask: int) -> frozenset[AbsLoc]:
        locs = self._decoded.get(mask)
        if locs is None:
            members, rest, table = [], mask, self._locs
            while rest:
                low = rest & -rest
                members.append(table[low.bit_length() - 1])
                rest ^= low
            locs = self._decoded[mask] = frozenset(members)
        return locs


#: The raw relation as an in-adjacency: ``raw[dst][src]`` is the mask of
#: the locations ``l`` with ``src —l→ dst``.
Masks = dict[int, dict[int, int]]


def _link(raw: Masks, src: int, dst: int, mask: int) -> None:
    preds = raw.get(dst)
    if preds is None:
        raw[dst] = {src: mask}
    else:
        preds[src] = preds.get(src, 0) | mask


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
    none: frozenset[AbsLoc] = frozenset()
    defs_trans, uses_trans = defuse.proc_defs_trans, defuse.proc_uses_trans
    for proc, cfg in program.cfgs.items():
        if cfg.entry is not None:
            aug.defs.setdefault(cfg.entry.nid, set()).update(
                uses_trans.get(proc, none)
            )
        if cfg.exit is not None:
            aug.uses.setdefault(cfg.exit.nid, set()).update(
                defs_trans.get(proc, none)
            )
        for node in cfg.nodes:
            if isinstance(node.cmd, CCall):
                for callee in pre.site_callees.get(node.nid, ()):
                    aug.uses.setdefault(node.nid, set()).update(
                        uses_trans.get(callee, none)
                    )
            elif isinstance(node.cmd, CRetBind):
                call_node = program.node(node.cmd.call_node)
                callees = list(pre.site_callees.get(call_node.nid, ()))
                all_defs = set().union(*(defs_trans.get(k, none) for k in callees))
                aug.defs.setdefault(node.nid, set()).update(all_defs)
                uses = aug.uses.setdefault(node.nid, set())
                if not callees:
                    continue
                # What callee ``k`` covers: it kills the location on every
                # path (must-def) or carries the caller's value through its
                # body (use).
                covered = [
                    defuse.proc_must_defs.get(k, none) | uses_trans.get(k, none)
                    for k in callees
                ]
                # A location must additionally be *used* at the return site
                # when some callee does not cover it: then the pre-call
                # value survives around the call and must flow to later
                # uses via this node.
                uses.update(all_defs - covered[0].intersection(*covered[1:]))
                # The complementary case: every callee defines the
                # location and covers it, so its value travels the callee's
                # own chains to the exit. The callee-exit edge then carries
                # everything the return site needs; chaining the caller-side
                # definition here too would re-introduce the stale pre-call
                # value. This matters for pack-granular (octagon)
                # dependencies, where the call node's parameter binding
                # *defines* a pack the callee then refines — joining both
                # versions loses the refinement.
                routed = all_defs.intersection(
                    *(defs_trans.get(k, none) & c for k, c in zip(callees, covered))
                )
                if routed:
                    aug.routed.setdefault(node.nid, set()).update(routed)
    return aug


# --------------------------------------------------------------------------
# Intraprocedural chain generation: SSA over location masks
# --------------------------------------------------------------------------


def _ssa_chains(
    cfg: ProcCFG, aug: AugmentedDefUse, index: _LocIndex, raw: Masks
) -> None:
    """Generate def-use chains within one procedure via SSA construction.

    Phi placement at iterated dominance frontiers adds ``l`` to both the
    definition and use set of the join node (a safe approximation by
    Definition 5), after which every use has a unique reaching definition
    found by a single renaming walk over the dominator tree.
    """
    assert cfg.entry is not None
    dom = compute_dominators(cfg.entry.nid, cfg.succs, cfg.preds)
    mask = index.mask
    defs = {nid: mask(aug.defs.get(nid, ())) for nid in dom.rpo}

    # Iterated dominance frontiers of all locations at once.
    phis = dict.fromkeys(dom.rpo, 0)
    frontier = dom.frontier
    work = [nid for nid in dom.rpo if defs[nid] and frontier[nid]]
    while work:
        nid = work.pop()
        flow = defs[nid] | phis[nid]
        for site in frontier[nid]:
            old = phis[site]
            if flow & ~old:
                phis[site] = old | flow
                if frontier[site]:
                    work.append(site)

    # Cytron renaming: ``live[d]`` holds the locations whose innermost
    # definition on the current dominator-tree path is node ``d``. A
    # finished node restores what it shadowed from its undo log.
    live: dict[int, int] = {}
    uses, routed, succs = aug.uses, aug.routed, cfg.succs
    none: frozenset[AbsLoc] = frozenset()
    stack: list[tuple[int, list[tuple[int, int]] | None]] = [
        (cfg.entry.nid, None)
    ]
    while stack:
        nid, undo = stack.pop()
        if undo is not None:
            live.pop(nid, None)
            for d, shadowed in undo:
                live[d] = live.get(d, 0) | shadowed
            continue
        node_phis = phis[nid]
        # ordinary uses: not those satisfied by the phi (incoming dep
        # edges) or by the callee-exit edge alone
        want = mask(uses.get(nid, none)) & ~node_phis & ~mask(routed.get(nid, none))
        if want:
            _link_live(raw, live, nid, want)
        pushed = defs[nid] | node_phis
        undo = []
        if pushed:
            for d, have in list(live.items()):
                shadowed = have & pushed
                if shadowed:
                    undo.append((d, shadowed))
                    if have == shadowed:
                        del live[d]
                    else:
                        live[d] = have ^ shadowed
            live[nid] = pushed
        for succ in succs.get(nid, ()):
            want = phis[succ]
            if want:
                _link_live(raw, live, succ, want)
        stack.append((nid, undo))
        for child in reversed(dom.children.get(nid, [])):
            stack.append((child, None))

    # Phi locations behave as simultaneous def+use so downstream safety
    # condition D̂−D ⊆ Û holds; record them in the augmented sets.
    for nid, phi in phis.items():
        if phi:
            locs = index.decode(phi)
            aug.defs.setdefault(nid, set()).update(locs)
            aug.uses.setdefault(nid, set()).update(locs)


def _link_live(raw: Masks, live: dict[int, int], dst: int, want: int) -> None:
    """Link ``dst``'s uses ``want`` to their live definitions."""
    for d, have in live.items():
        hit = have & want
        if hit:
            _link(raw, d, dst, hit)
            want ^= hit
            if not want:
                return


# --------------------------------------------------------------------------
# Interprocedural edges + bypass optimization
# --------------------------------------------------------------------------


def _add_interproc_edges(
    program: Program,
    pre: PreAnalysis,
    defuse: DefUseInfo,
    index: _LocIndex,
    raw: Masks,
) -> None:
    uses_of: dict[str, int] = {}
    defs_of: dict[str, int] = {}
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
                used = uses_of.get(callee)
                if used is None:
                    used = uses_of[callee] = index.mask(
                        defuse.proc_uses_trans.get(callee, ())
                    )
                if used:
                    _link(raw, node.nid, callee_cfg.entry.nid, used)
            if callee_cfg.exit is not None and retbind is not None:
                defined = defs_of.get(callee)
                if defined is None:
                    defined = defs_of[callee] = index.mask(
                        defuse.proc_defs_trans.get(callee, ())
                    )
                if defined:
                    _link(raw, callee_cfg.exit.nid, retbind, defined)


def bypass_optimization(
    deps: DataDeps, defuse: DefUseInfo, keep: set[int] | None = None
) -> DataDeps:
    """Rewrite ``a—l→b—l→c`` into ``a—l→c`` whenever ``l`` is neither
    really defined nor used at ``b`` (Section 5), on an explicit raw
    relation. :func:`generate_datadeps` runs the same closure on its masks
    without materialising ``deps``; see :func:`_bypass_closure`."""
    index = _LocIndex()
    masks: dict[frozenset[AbsLoc], int] = {}
    raw: Masks = {}
    for dst, preds in deps._in.items():
        row = raw[dst] = {}
        for src, locs in preds.items():
            mask = masks.get(locs)
            if mask is None:
                mask = masks[locs] = index.mask(locs)
            row[src] = mask
    return _bypass_closure(raw, defuse, keep or set(), index)


def _bypass_closure(
    raw: Masks, defuse: DefUseInfo, keep: set[int], index: _LocIndex
) -> DataDeps:
    """The bypassed relation: each real destination of ``l`` depends on
    the real sources that reach it through pass-through nodes only.

    The result equals the paper's pairwise rewriting iterated to
    convergence. A node is *pass-through* for ``l`` when it is not in
    ``keep`` (widening points are never bypassed — values must keep flowing
    through them so the sparse engine widens exactly where the dense one
    does) and ``l`` is in neither its D̂ nor its Û.
    """
    mask = index.mask
    real: dict[int, int] = {}
    for nid in {src for preds in raw.values() for src in preds}.union(raw):
        real[nid] = (
            -1
            if nid in keep
            else mask(defuse.defs.get(nid, ())) | mask(defuse.uses.get(nid, ()))
        )

    # Demand: the locations whose real sources each pass-through node must
    # supply, propagated backwards from the real destinations.
    demand: dict[int, int] = {}
    for dst, preds in raw.items():
        want = real[dst]
        if want:
            for src, mask in preds.items():
                need = mask & want & ~real[src]
                if need:
                    demand[src] = demand.get(src, 0) | need
    work = list(demand)
    while work:
        nid = work.pop()
        want = demand[nid]
        for src, mask in raw.get(nid, {}).items():
            need = mask & want & ~real[src]
            if need:
                old = demand.get(src, 0)
                if need & ~old:
                    demand[src] = old | need
                    work.append(src)

    # Resolve every demanded node once, its dependencies first.
    waits_on = {
        nid: [
            src
            for src, mask in raw.get(nid, {}).items()
            if mask & want & ~real[src]
        ]
        for nid, want in demand.items()
    }
    resolved: dict[int, dict[int, int]] = {}
    for members, cyclic in _tarjan_sccs(list(demand), waits_on, None):
        if cyclic:
            _resolve_cycle(members, raw, real, demand, resolved)
        else:
            nid = members[0]
            resolved[nid] = _sources(raw.get(nid, {}), demand[nid], real, resolved)

    bypassed: Masks = {}
    for dst, preds in raw.items():
        if real[dst]:
            row = _sources(preds, real[dst], real, resolved)
            if row:
                bypassed[dst] = row
    return DataDeps._from_masks(bypassed, index)


def _sources(
    preds: dict[int, int],
    want: int,
    real: dict[int, int],
    resolved: dict[int, dict[int, int]],
    inside: set[int] | frozenset[int] = frozenset(),
) -> dict[int, int]:
    """The real sources of the locations ``want`` over the in-edges
    ``preds``, as masks by source: a real source itself, a pass-through
    one through its resolved sources. Sources in ``inside`` are skipped
    where they pass through."""
    out: dict[int, int] = {}
    for src, mask in preds.items():
        mask &= want
        if not mask:
            continue
        real_src = real[src]
        direct = mask & real_src
        if direct:
            out[src] = out.get(src, 0) | direct
        mask &= ~real_src
        if mask and src not in inside:
            for origin, carried in resolved[src].items():
                carried &= mask
                if carried:
                    out[origin] = out.get(origin, 0) | carried
    return out


def _resolve_cycle(
    members: list[int],
    raw: Masks,
    real: dict[int, int],
    demand: dict[int, int],
    resolved: dict[int, dict[int, int]],
) -> None:
    """Resolve the members of a pass-through cycle together: each starts
    from its sources outside the cycle, then new (source, locations) facts
    flow along the cycle's own edges until none is new (semi-naïve)."""
    inside = set(members)
    succs: dict[int, list[tuple[int, int]]] = {}
    for nid in members:
        want = demand[nid]
        preds = raw.get(nid, {})
        resolved[nid] = _sources(preds, want, real, resolved, inside)
        for src, mask in preds.items():
            if src in inside:
                carried = mask & want & ~real[src]
                if carried:
                    succs.setdefault(src, []).append((nid, carried))
    delta = {nid: dict(resolved[nid]) for nid in members if resolved[nid]}
    work = list(delta)
    while work:
        nid = work.pop()
        facts = delta.pop(nid)
        for dst, mask in succs.get(nid, ()):
            have = resolved[dst]
            fresh = None
            for origin, carried in facts.items():
                carried &= mask
                if carried:
                    old = have.get(origin, 0)
                    carried &= ~old
                    if carried:
                        have[origin] = old | carried
                        if fresh is None:
                            fresh = delta.get(dst)
                            if fresh is None:
                                fresh = delta[dst] = {}
                                work.append(dst)
                        fresh[origin] = fresh.get(origin, 0) | carried


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
    index = _LocIndex()
    raw: Masks = {}
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
        _ssa_chains(cfg, aug, index, raw)
    _add_interproc_edges(program, pre, defuse, index, raw)
    count = sum(mask.bit_count() for preds in raw.values() for mask in preds.values())
    if bypass:
        deps = _bypass_closure(raw, defuse, wps, index)
    else:
        deps = DataDeps._from_masks(raw, index)
    if telemetry is not None and telemetry.enabled:
        telemetry.count("dep.generated", count)
        telemetry.count("dep.bypassed", count - len(deps))
        telemetry.gauge("dep.final", len(deps))
        telemetry.gauge("dep.widening_barriers", len(wps))
    return DataDepResult(deps, aug, raw_dep_count=count)
