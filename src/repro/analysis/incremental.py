"""Incremental reanalysis: program diffing, dirty closure, cone solving.

The query server (:mod:`repro.server`) keeps a *resident* fixpoint per
engine×domain combo and patches it instead of re-solving from scratch.
This module supplies the three pieces that make that sound:

* **Diffing** (:func:`diff_programs` / :func:`clean_nodes`): after an edit
  the new program is matched against the old one procedure by procedure —
  a node is *clean* when its whole fixpoint equation is unchanged: same
  command, same resolved callees, same D̂/Û sets, same dependency (or
  control) in-edges through the node correspondence, and — for the modes
  whose transfer consults the pre-analysis — the same pointer targets and
  localization sets. Anything else is seed-dirty.

* **Invalidation** (:func:`dirty_closure` / :func:`surviving_state`): the
  dep graph (Definition 3) encodes exactly what a changed definition can
  reach, so the retained region is the complement of the *forward* closure
  of the seed-dirty set — over dependency edges for the sparse engine
  (plus control edges in strict mode, where reachability bits also flow),
  over control edges for the dense engines. The complement is backward-
  closed with unchanged equations, so the restricted fixpoint over it is
  untouched by the edit and its old values are exactly the new ones.

* **Cone solving** (:func:`backward_cone` / :func:`solve_cone`): a point
  query only needs the backward slice that reaches it. The slice is
  predecessor-closed, so running the existing :class:`FixpointEngine`
  over ``slice ∩ unsolved`` — preloaded with the retained table, push
  caches rebuilt via ``CellOps.assemble_cache``, gated by a
  :class:`ConeSpace` membrane so nothing outside the cone is ever visited
  — computes values identical to a from-scratch global fixpoint whenever
  the cone is widening-free (:func:`cone_is_exact`). Otherwise the caller
  falls back to a whole-program :func:`~repro.analysis.plan.run_plan` and
  caches the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.analysis.engine import FixpointEngine, FixpointStats, PropagationSpace
from repro.analysis.plan import EnginePlan, _engine_for
from repro.ir.commands import CAlloc, CCall, CRetBind, CSet
from repro.ir.program import Program
from repro.runtime.budget import Budget


# --------------------------------------------------------------------------
# Program diffing
# --------------------------------------------------------------------------


@dataclass
class ProgramDiff:
    """A node correspondence between two versions of a program.

    ``to_old`` maps new→old node ids for every node of a *matched*
    procedure: same name, same node count, positionally equal commands
    (``CRetBind.call_node`` compared through the position map) and the
    same intraprocedural edge structure. Procedures failing any of that —
    plus procedures present in only one version — are ``changed_procs``;
    their nodes have no counterpart and are unconditionally dirty."""

    old: Program
    new: Program
    changed_procs: frozenset[str]
    to_old: dict[int, int] = field(default_factory=dict)
    to_new: dict[int, int] = field(default_factory=dict)


def _commands_match(old_node, new_node, old_pos, new_pos) -> bool:
    oc, nc = old_node.cmd, new_node.cmd
    if type(oc) is not type(nc):
        return False
    if isinstance(oc, CRetBind):
        # call_node is a global nid; compare through intra-proc positions
        if old_pos.get(oc.call_node) != new_pos.get(nc.call_node):
            return False
        return oc.lval == nc.lval
    return oc == nc


def _proc_matches(old_cfg, new_cfg) -> bool:
    old_nodes, new_nodes = old_cfg.nodes, new_cfg.nodes
    if len(old_nodes) != len(new_nodes):
        return False
    old_pos = {n.nid: i for i, n in enumerate(old_nodes)}
    new_pos = {n.nid: i for i, n in enumerate(new_nodes)}
    for o, n in zip(old_nodes, new_nodes):
        if not _commands_match(o, n, old_pos, new_pos):
            return False
        old_succs = sorted(old_pos[s] for s in old_cfg.succs.get(o.nid, ()))
        new_succs = sorted(new_pos[s] for s in new_cfg.succs.get(n.nid, ()))
        if old_succs != new_succs:
            return False
    return True


def diff_programs(old: Program, new: Program) -> ProgramDiff:
    changed: set[str] = set(old.cfgs.keys()) ^ set(new.cfgs.keys())
    to_old: dict[int, int] = {}
    to_new: dict[int, int] = {}
    for proc in set(old.cfgs) & set(new.cfgs):
        old_cfg, new_cfg = old.cfgs[proc], new.cfgs[proc]
        if not _proc_matches(old_cfg, new_cfg):
            changed.add(proc)
            continue
        for o, n in zip(old_cfg.nodes, new_cfg.nodes):
            to_old[n.nid] = o.nid
            to_new[o.nid] = n.nid
    return ProgramDiff(old, new, frozenset(changed), to_old, to_new)


# --------------------------------------------------------------------------
# Clean-node computation
# --------------------------------------------------------------------------


def _packs_signature(packs) -> tuple | None:
    if packs is None:
        return None
    return tuple(sorted(p.sort_key() for p in packs.packs))


def _target_signature(plan: EnginePlan, node) -> tuple | None:
    """Pointer targets of an indirect store, resolved against the
    pre-analysis (the octagon transfer's one pre-sensitive input that the
    logged D̂/Û sets cannot always distinguish)."""
    cmd = node.cmd
    if not isinstance(cmd, (CSet, CAlloc)):
        return None
    try:
        targets = plan.ctx.pointer_targets(node, cmd.lval)
    except Exception:
        return ("<unresolved>",)
    return tuple(sorted(str(t) for t in targets))


def _localization_sets(plan: EnginePlan) -> dict[str, frozenset] | None:
    """Per-callee passed/accessed sets for the localized (``base``) modes —
    the ingredient of their edge transforms."""
    if plan.mode != "base" or plan.defuse is None:
        return None
    if plan.domain == "interval":
        from repro.analysis.defuse import localization_set

        return {
            callee: localization_set(plan.program, plan.defuse, callee)
            for callee in plan.program.procedures()
        }
    return {
        callee: frozenset(plan.defuse.accessed_by(callee))
        for callee in plan.program.procedures()
    }


def clean_nodes(
    diff: ProgramDiff, old_plan: EnginePlan, new_plan: EnginePlan
) -> set[int]:
    """New-program node ids whose fixpoint equation is unchanged by the
    edit. Empty set = everything dirty (the conservative answer used when
    whole-program transfer inputs shifted: recursion structure, octagon
    packs). Any node this returns satisfies: same command, same resolved
    callees, same D̂/Û, same (mapped) in-edges, same localization inputs."""
    old_rec = getattr(old_plan.ctx, "recursive_procs", None)
    new_rec = getattr(new_plan.ctx, "recursive_procs", None)
    if old_rec != new_rec:
        return set()
    if new_plan.domain == "octagon" and _packs_signature(
        old_plan.packs
    ) != _packs_signature(new_plan.packs):
        return set()

    old_local = _localization_sets(old_plan)
    new_local = _localization_sets(new_plan)
    relocalized: set[str] = set()
    if old_local is not None or new_local is not None:
        old_local = old_local or {}
        new_local = new_local or {}
        for proc in set(old_local) | set(new_local):
            if old_local.get(proc) != new_local.get(proc):
                relocalized.add(proc)

    old_pre, new_pre = old_plan.pre, new_plan.pre
    old_defuse, new_defuse = old_plan.defuse, new_plan.defuse
    old_nodes = diff.old.factory.nodes
    new_nodes = diff.new.factory.nodes
    entry_proc_of = {
        cfg.entry.nid: proc
        for proc, cfg in diff.new.cfgs.items()
        if cfg.entry is not None
    }

    clean: set[int] = set()
    for new_nid, old_nid in diff.to_old.items():
        node = new_nodes[new_nid]
        old_node = old_nodes[old_nid]
        callees = tuple(new_pre.site_callees.get(new_nid, ()))
        if callees != tuple(old_pre.site_callees.get(old_nid, ())):
            continue
        if old_defuse is not None and new_defuse is not None:
            if new_defuse.d(new_nid) != old_defuse.d(old_nid):
                continue
            if new_defuse.u(new_nid) != old_defuse.u(old_nid):
                continue
            if new_defuse.strong_defs.get(new_nid) != old_defuse.strong_defs.get(
                old_nid
            ):
                continue
        if new_plan.domain == "octagon" and _target_signature(
            new_plan, node
        ) != _target_signature(old_plan, old_node):
            continue
        if new_plan.sparse:
            old_in = {
                (src, locs) for src, locs in old_plan.deps.in_edges(old_nid)
            }
            new_in = set()
            unmapped = False
            for src, locs in new_plan.deps.in_edges(new_nid):
                mapped = diff.to_old.get(src)
                if mapped is None:
                    unmapped = True
                    break
                new_in.add((mapped, locs))
            if unmapped or new_in != old_in:
                continue
        old_preds = sorted(old_plan.graph.preds.get(old_nid, ()))
        new_preds = []
        unmapped = False
        for p in new_plan.graph.preds.get(new_nid, ()):
            mapped = diff.to_old.get(p)
            if mapped is None:
                unmapped = True
                break
            new_preds.append(mapped)
        if unmapped or sorted(new_preds) != old_preds:
            continue
        if relocalized:
            # Edge-transform inputs: a callee entry restricts by its own
            # localization set; a return site strips/overlays by the union
            # over its call's callees.
            owner = entry_proc_of.get(new_nid)
            if owner is not None and owner in relocalized:
                continue
            if isinstance(node.cmd, CRetBind) and any(
                c in relocalized
                for p in new_plan.graph.preds.get(new_nid, ())
                for c in new_pre.site_callees.get(p, ())
                if isinstance(new_nodes[p].cmd, CCall)
            ):
                continue
        clean.add(new_nid)
    return clean


# --------------------------------------------------------------------------
# Closures
# --------------------------------------------------------------------------


def _forward_maps(plan: EnginePlan) -> list[Mapping[int, Iterable[int]]]:
    """Edges a changed value (or reachability bit) can travel forward on."""
    if plan.sparse:
        maps = [plan.deps.node_succs()]
        if plan.strict:
            maps.append(plan.graph.succs)
        return maps
    return [plan.graph.succs]


def dirty_closure(plan: EnginePlan, seeds: Iterable[int]) -> set[int]:
    """Forward closure of the seed-dirty set: every node whose fixpoint
    value could differ after the edit (includes the seeds)."""
    maps = _forward_maps(plan)
    out = set(seeds)
    frontier = list(out)
    while frontier:
        nid = frontier.pop()
        for succs in maps:
            for s in succs.get(nid, ()):
                if s not in out:
                    out.add(s)
                    frontier.append(s)
    return out


def backward_cone(plan: EnginePlan, targets: Iterable[int]) -> set[int]:
    """Predecessor closure of the queried nodes over dependency *and*
    control edges — everything a point answer at the targets can read
    (cone values via the dep graph, reaching-definition walks and dense
    inputs via control predecessors). Predecessor-closedness is what makes
    a restricted solve over ``cone ∩ unsolved`` self-contained: dirty
    predecessors of cone nodes are themselves in the cone."""
    preds_maps: list = [plan.graph.preds]
    dep_in = plan.deps.in_edges if plan.sparse else None
    out = set(targets)
    frontier = list(out)
    while frontier:
        nid = frontier.pop()
        for p in preds_maps[0].get(nid, ()):
            if p not in out:
                out.add(p)
                frontier.append(p)
        if dep_in is not None:
            for src, _locs in dep_in(nid):
                if src not in out:
                    out.add(src)
                    frontier.append(src)
    return out


def demand_region(plan: EnginePlan, nid: int, keys: Iterable) -> set[int]:
    """Control points a reaching-definition walk from ``nid`` for ``keys``
    can possibly read (sparse plans only). The facade's walk stops at the
    nearest state carrying the key; every runtime carrier of a key is
    either a D̂ site of it or a point the key's value flowed *through* —
    so walking control predecessors and stopping at static def sites
    yields a superset of the nodes any such walk can touch."""
    region = {nid}
    d = plan.defuse.d
    preds = plan.graph.preds
    for key in keys:
        seen = {nid}
        frontier = [nid]
        while frontier:
            n = frontier.pop()
            region.add(n)
            if key in d(n):
                continue  # a definition shadows everything above it
            for p in preds.get(n, ()):
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
    return region


def dep_closure(plan: EnginePlan, seeds: Iterable[int]) -> set[int]:
    """Backward closure over dependency edges only — the inputs a
    non-strict sparse solve of ``seeds`` actually consumes (values travel
    exclusively on dependency edges there; control edges carry only the
    reachability bit, which the non-strict formulation grants globally)."""
    out = set(seeds)
    frontier = list(out)
    while frontier:
        n = frontier.pop()
        for src, _locs in plan.deps.in_edges(n):
            if src not in out:
                out.add(src)
                frontier.append(src)
    return out


def surviving_state(
    diff: ProgramDiff,
    old_table: Mapping[int, object],
    old_solved: set[int],
    old_plan: EnginePlan,
    new_plan: EnginePlan,
) -> tuple[dict[int, object], set[int], int]:
    """Carry the resident fixpoint across an edit.

    Returns ``(table, solved, seed_dirty_count)`` in new-program node ids:
    every retained node is clean, outside the dirty forward closure, and
    was solved before — so its old value *is* its new-fixpoint value (the
    retained region is backward-closed under the edges values travel on,
    and every equation in it is unchanged)."""
    clean = clean_nodes(diff, old_plan, new_plan)
    all_new = set(new_plan.node_ids)
    seed_dirty = all_new - clean
    closure = dirty_closure(new_plan, seed_dirty)
    table: dict[int, object] = {}
    solved: set[int] = set()
    for new_nid, old_nid in diff.to_old.items():
        if new_nid in closure or old_nid not in old_solved:
            continue
        solved.add(new_nid)
        state = old_table.get(old_nid)
        if state is not None:
            table[new_nid] = state.copy()
    return table, solved, len(seed_dirty)


# --------------------------------------------------------------------------
# Cone-restricted solving
# --------------------------------------------------------------------------


def cone_is_exact(plan: EnginePlan, pending: set[int], narrowing: int) -> bool:
    """Whether a restricted solve over ``pending`` is guaranteed to equal
    the global fixpoint restricted to it. Requires the non-strict
    formulation (strict reachability bits flow globally from the entry), no
    narrowing (narrowing is a global descending pass), and a widening-free
    cone — without widening points the pending subgraph is acyclic-by-
    construction (every dependency/control cycle is cut at a WTO head), so
    the restricted least fixpoint is unique and visit-order independent."""
    if plan.strict or narrowing:
        return False
    return not (plan.widening_points & pending)


class ConeSpace(PropagationSpace):
    """A membrane around a whole-program space restricting the solve to a
    fixed node set. Seeding delegates to the inner space first (non-strict
    dep spaces mark global reachability there) but enqueues only the cone;
    ``runnable`` gates every pop, so ``stats.visited ⊆ cone`` is an engine
    invariant — the invalidation-precision tests assert exactly that."""

    def __init__(self, inner: PropagationSpace, cone: set[int]) -> None:
        self.inner = inner
        self.cone = set(cone)

    def bind(self, engine: "FixpointEngine") -> None:
        self.engine = engine
        self.inner.bind(engine)

    def seeds(self):
        self.inner.seeds()
        return sorted(self.cone)

    def runnable(self, nid: int) -> bool:
        return nid in self.cone and self.inner.runnable(nid)

    def schedule_roots(self):
        return self.inner.schedule_roots()

    def schedule_succs(self):
        return self.inner.schedule_succs()

    def input_for(self, nid: int):
        return self.inner.input_for(nid)

    def assemble_input(self, nid: int):
        return self.inner.assemble_input(nid)

    def install(self, out):
        return self.inner.install(out)

    def after_transfer(self, nid: int, work) -> None:
        self.inner.after_transfer(nid, work)

    def propagate(self, nid: int, out, changed, work) -> None:
        self.inner.propagate(nid, out, changed, work)

    def absorb_degraded(self, newly: set[int], work) -> None:
        self.inner.absorb_degraded(newly, work)

    def record_stats(self, stats: FixpointStats) -> None:
        self.inner.record_stats(stats)


def solve_cone(
    plan: EnginePlan,
    cone: set[int],
    base_table: Mapping[int, object],
    *,
    budget: Budget | None = None,
    telemetry=None,
) -> tuple[dict[int, object], FixpointStats]:
    """Solve only ``cone``, warm-started from the retained ``base_table``
    (clean nodes only — dirty nodes restart from ⊥/⊤-default). Sparse push
    caches are rebuilt from the retained source states via
    ``assemble_cache`` (states only grow during ascent, so the join over a
    push history equals the join of its final values); dirty sources are
    absent from the base table and contribute through live pushes instead.
    Raises :class:`repro.runtime.errors.BudgetExceeded` past the per-query
    budget — the server degrades to the global solve then."""
    if plan.strict:
        raise ValueError("cone solving requires the non-strict formulation")
    engine = _engine_for(
        plan,
        lambda inner: ConeSpace(inner, cone),
        budget=budget,
        telemetry=telemetry,
    )
    engine.preload_table(dict(base_table))
    if plan.sparse:
        inner = engine.space.inner
        cells = inner.cells
        for nid in cone:
            inner.in_cache[nid] = cells.assemble_cache(
                plan.deps.in_edges(nid), engine.table
            )
    table = engine.solve()
    return table, engine.stats
