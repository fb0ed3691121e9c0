"""Test oracles for dependency generation: the paper's pairwise bypass
rewriting, a reaching-definitions chain generator, and the per-location
generator the analyzer used before it moved to location masks.

**Bypass.** Section 5 rewrites ``a —l→ b —l→ c`` into ``a —l→ c`` whenever ``l`` is
neither really defined nor used at ``b``. This oracle applies that rule
literally, one pair at a time, on its own triple container, until nothing
new appears; only then does it drop every triple with a pass-through
endpoint. Deleting the rewritten pair on the spot would oscillate forever
on a pass-through cycle (``b —l→ b``), which the analysis has whenever
widening is off.

It shares no code with :mod:`repro.analysis.datadep`'s closure, which must
produce the same set of triples.

**Chains.** :func:`reaching_chains` builds a procedure's def-use chains by
classic reaching-definitions dataflow, one location at a time, where the
analyzer uses SSA construction. :func:`chain_generator` swaps it into
:func:`repro.analysis.datadep.generate_datadeps`, so whole analyses can be
run on either generator. The two do not produce equal raw triples (SSA adds
phi nodes as def+use sites), so tests compare the tables they lead to.

**Per location.** :func:`per_location_datadeps` is the generator the
analyzer used before it numbered locations: every step walks one location
at a time. Its augmentation tests membership location by location, its SSA
renaming keeps one definition stack per location and places phis with one
iterated dominance frontier per location, and its bypass closure is one
memoised Tarjan walk per location over a per-location in-adjacency. The
mask-based generator must produce the same triples, raw count and
augmented def/use sets.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Iterable, Iterator

import pytest

from repro.analysis import datadep
from repro.ir.commands import CCall, CRetBind
from repro.ir.dominators import compute_dominators, iterated_frontier


class _Triples:
    """``(src, dst, loc)`` triples indexed by ``(src, loc)`` and
    ``(dst, loc)``."""

    def __init__(self) -> None:
        self.all: set[tuple] = set()
        self.succ: dict[tuple, set[int]] = {}
        self.pred: dict[tuple, set[int]] = {}

    def add(self, src: int, dst: int, loc) -> bool:
        triple = (src, dst, loc)
        if triple in self.all:
            return False
        self.all.add(triple)
        self.succ.setdefault((src, loc), set()).add(dst)
        self.pred.setdefault((dst, loc), set()).add(src)
        return True


def bypass_pairwise(
    triples: Iterable[tuple], defuse, keep: set[int] | None = None
) -> set[tuple]:
    """The bypassed relation of the raw ``(src, dst, loc)`` triples."""
    keep = keep or set()

    def passthrough(nid: int, loc) -> bool:
        return not (nid in keep or loc in defuse.d(nid) or loc in defuse.u(nid))

    current = _Triples()
    work = [t for t in triples if current.add(*t)]
    while work:
        a, b, loc = work.pop()
        if passthrough(b, loc):  # a —l→ b —l→ c  ⇒  a —l→ c
            for c in list(current.succ.get((b, loc), ())):
                if current.add(a, c, loc):
                    work.append((a, c, loc))
        if passthrough(a, loc):  # x —l→ a —l→ b  ⇒  x —l→ b
            for x in list(current.pred.get((a, loc), ())):
                if current.add(x, b, loc):
                    work.append((x, b, loc))
    return {
        (src, dst, loc)
        for src, dst, loc in current.all
        if not passthrough(src, loc) and not passthrough(dst, loc)
    }


def reaching_chains(cfg, aug, index, raw) -> None:
    """Link every use of each location in ``cfg`` to the definitions of it
    that reach the use (same signature as ``datadep._ssa_chains``)."""
    assert cfg.entry is not None
    locs: set = set()
    for nid in cfg.succs:
        locs.update(aug.defs.get(nid, ()))
        locs.update(aug.uses.get(nid, ()))
    for loc in locs:
        _reaching_one(cfg, aug, index.mask((loc,)), raw, loc)


def _reaching_one(cfg, aug, bit, raw, loc) -> None:
    # IN[n] = set of definition nodes of `loc` reaching n.
    in_sets: dict[int, set[int]] = {nid: set() for nid in cfg.succs}
    work = deque(n.nid for n in cfg.nodes)
    queued = set(work)
    while work:
        nid = work.popleft()
        queued.discard(nid)
        out = {nid} if loc in aug.defs.get(nid, ()) else set(in_sets[nid])
        for succ in cfg.succs.get(nid, ()):
            if not out <= in_sets[succ]:
                in_sets[succ] |= out
                if succ not in queued:
                    queued.add(succ)
                    work.append(succ)
    for nid in cfg.succs:
        if loc in aug.uses.get(nid, ()) and loc not in aug.routed.get(nid, ()):
            for d in in_sets[nid]:
                datadep._link(raw, d, nid, bit)


@contextmanager
def chain_generator(method: str) -> Iterator[None]:
    """Within the block, dependency generation builds intra-procedural
    chains with ``method``: ``"ssa"`` (the analyzer's own) or
    ``"reaching"`` (:func:`reaching_chains`)."""
    if method == "ssa":
        yield
        return
    assert method == "reaching", method
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datadep, "_ssa_chains", reaching_chains)
        yield


# -- the per-location generator ------------------------------------------------


def per_location_datadeps(
    program, pre, defuse, bypass: bool = True, widening_points=None
) -> tuple[set[tuple], datadep.AugmentedDefUse, int]:
    """The ``(src, dst, loc)`` triples, augmented def/use sets and raw
    count that :func:`repro.analysis.datadep.generate_datadeps` returns for
    the same arguments, built one location at a time."""
    wps = widening_points or set()
    aug = augment_per_location(program, pre, defuse)
    adj: dict = {}
    for cfg in program.cfgs.values():
        if cfg.entry is None:
            continue
        proc_wps = [n.nid for n in cfg.nodes if n.nid in wps]
        if proc_wps:
            proc_locs: set = set()
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
        triples = set(_bypass_closure(adj, defuse, wps))
    else:
        triples = {
            (src, dst, loc)
            for loc, preds in adj.items()
            for dst in preds
            for src in _sources(preds, dst)
        }
    return triples, aug, raw


def augment_per_location(program, pre, defuse) -> datadep.AugmentedDefUse:
    """Callee summaries folded in with one membership test per location
    and callee."""
    aug = datadep.AugmentedDefUse(
        defs={nid: set(s) for nid, s in defuse.defs.items()},
        uses={nid: set(s) for nid, s in defuse.uses.items()},
    )
    none: frozenset = frozenset()
    for proc, cfg in program.cfgs.items():
        body_uses = defuse.proc_uses_trans.get(proc, none)
        body_defs = defuse.proc_defs_trans.get(proc, none)
        if cfg.entry is not None:
            aug.defs.setdefault(cfg.entry.nid, set()).update(body_uses)
        if cfg.exit is not None:
            aug.uses.setdefault(cfg.exit.nid, set()).update(body_defs)
        for node in cfg.nodes:
            if isinstance(node.cmd, CCall):
                for callee in pre.site_callees.get(node.nid, ()):
                    aug.uses.setdefault(node.nid, set()).update(
                        defuse.proc_uses_trans.get(callee, none)
                    )
            elif isinstance(node.cmd, CRetBind):
                call_node = program.node(node.cmd.call_node)
                callees = pre.site_callees.get(call_node.nid, ())
                all_defs: set = set()
                for callee in callees:
                    all_defs |= defuse.proc_defs_trans.get(callee, none)
                aug.defs.setdefault(node.nid, set()).update(all_defs)
                bypass_needed = {
                    loc
                    for loc in all_defs
                    if any(
                        loc not in defuse.proc_must_defs.get(k, none)
                        and loc not in defuse.proc_uses_trans.get(k, none)
                        for k in callees
                    )
                }
                aug.uses.setdefault(node.nid, set()).update(bypass_needed)
                routed = {
                    loc
                    for loc in all_defs
                    if callees
                    and all(
                        loc in defuse.proc_defs_trans.get(k, none)
                        and (
                            loc in defuse.proc_must_defs.get(k, none)
                            or loc in defuse.proc_uses_trans.get(k, none)
                        )
                        for k in callees
                    )
                }
                if routed:
                    aug.routed.setdefault(node.nid, set()).update(routed)
    return aug


#: One location's raw edges by destination: ``preds[dst]`` is the ``src``
#: of ``src —l→ dst``, a bare node id until a second source appears.
Preds = dict[int, "int | set[int]"]


def _link(adj: dict, src: int, dst: int, loc) -> None:
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


def _sources(preds: Preds, dst: int):
    srcs = preds.get(dst, ())
    return (srcs,) if type(srcs) is int else srcs


def _ssa_chains(cfg, aug, adj: dict) -> None:
    """SSA construction with one iterated dominance frontier and one
    renaming stack per location."""
    assert cfg.entry is not None
    dom = compute_dominators(cfg.entry.nid, cfg.succs, cfg.preds)
    reachable = set(dom.rpo)

    defs_of_loc: dict = {}
    for nid in reachable:
        for loc in aug.defs.get(nid, ()):
            defs_of_loc.setdefault(loc, set()).add(nid)

    phis: dict[int, set] = {nid: set() for nid in reachable}
    for loc, def_sites in defs_of_loc.items():
        for site in iterated_frontier(dom, def_sites):
            phis[site].add(loc)

    stacks: dict = {}
    uses, routed, succs = aug.uses, aug.routed, cfg.succs
    none: frozenset = frozenset()
    work: list = [(cfg.entry.nid, None)]
    while work:
        nid, pushed = work.pop()
        if pushed is not None:
            for loc in pushed:
                stacks[loc].pop()
            continue
        node_phis = phis[nid]
        node_routed = routed.get(nid, none)
        for loc in uses.get(nid, none):
            if loc in node_phis or loc in node_routed:
                continue
            stack = stacks.get(loc)
            if stack:
                _link(adj, stack[-1], nid, loc)
        pushed = aug.defs.get(nid, set()) | node_phis
        for loc in pushed:
            stacks.setdefault(loc, []).append(nid)
        for succ in succs.get(nid, ()):
            for loc in phis.get(succ, ()):
                stack = stacks.get(loc)
                if stack:
                    _link(adj, stack[-1], succ, loc)
        work.append((nid, pushed))
        for child in reversed(dom.children.get(nid, [])):
            work.append((child, None))

    for nid, locs in phis.items():
        if locs:
            aug.defs.setdefault(nid, set()).update(locs)
            aug.uses.setdefault(nid, set()).update(locs)


def _add_interproc_edges(program, pre, defuse, adj: dict) -> None:
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


def _bypass_closure(adj: dict, defuse, keep: set[int]) -> Iterator[tuple]:
    """The bypassed triples: one memoised closure per location, which
    consumes ``adj``."""
    real_at: dict = {}
    for table in (defuse.defs, defuse.uses):
        for nid, locs in table.items():
            for loc in locs:
                real_at.setdefault(loc, set()).add(nid)
    while adj:
        loc, preds = adj.popitem()
        real = keep | real_at.get(loc, set())
        resolved: dict[int, set[int]] = {}
        for dst in preds:
            if dst not in real:
                continue
            for src in _sources(preds, dst):
                if src in real:
                    yield src, dst, loc
                    continue
                sources = resolved.get(src)
                if sources is None:
                    sources = _resolve(src, preds, real, resolved)
                for real_src in sources:
                    yield real_src, dst, loc


def _resolve(root: int, preds: Preds, real: set[int], resolved: dict) -> set[int]:
    """Real sources reaching pass-through node ``root`` through pass-through
    nodes only, memoised for every node visited: an iterative Tarjan walk
    whose components share one source set."""
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
