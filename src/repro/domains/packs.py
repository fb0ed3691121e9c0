"""Variable packs for the packed relational analysis (Sections 4, 6.2).

A *pack* is a small, semantically related set of scalar variables analyzed
together by one octagon. The packing strategy follows the paper's
syntax-directed heuristic ("similar to Miné's approach"):

* variables appearing in the same statement (linear expressions, loop
  conditions) are grouped — syntactic locality, scoped per procedure;
* actual and formal parameters are grouped per call site, plus return
  values with the expressions that produce/consume them — "necessary to
  capture relations across procedure boundaries";
* packs exceeding the size threshold (10 in the paper) are split;
* every variable also gets a singleton pack, which the projection ``p_x``
  of Section 4.1 reads interval values from.

Packs are hash-consed like abstract locations (:mod:`repro.domains.absloc`):
``Pack(members)`` returns the one canonical pack per members tuple, from a
per-process table that is never cleared, so pack-keyed dicts hash and
compare by identity. The sort key is computed once, at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.domains.absloc import AbsLoc, RetLoc, VarLoc
from repro.frontend.ctypes import IntType
from repro.ir.commands import (
    CAlloc,
    CAssume,
    CCall,
    CRetBind,
    CReturn,
    CSet,
    VarLv,
    expr_vars,
)
from repro.ir.program import Program

#: Paper: "Large packs whose sizes exceed a threshold (10) were split".
PACK_SIZE_THRESHOLD = 10


#: members tuple -> the canonical pack; never cleared, like the location
#: table in :mod:`repro.domains.absloc`
_UNIQUE_PACKS: dict[tuple, "Pack"] = {}


@dataclass(frozen=True, eq=False, init=False)
class Pack:
    """An ordered tuple of pack members (VarLoc/RetLoc), duplicate-free;
    one canonical instance per members tuple."""

    members: tuple[AbsLoc, ...]

    def __new__(cls, members: tuple[AbsLoc, ...]) -> "Pack":
        found = _UNIQUE_PACKS.get(members)
        if found is not None:
            return found
        pack = object.__new__(cls)
        object.__setattr__(pack, "members", members)
        object.__setattr__(
            pack, "_sort_key", ("Pack", tuple(str(m) for m in members))
        )
        return _UNIQUE_PACKS.setdefault(members, pack)

    def __reduce__(self):
        return (Pack, (self.members,))

    @staticmethod
    def of(locs: Iterable[AbsLoc]) -> "Pack":
        return Pack(tuple(sorted(set(locs), key=lambda l: l.sort_key())))

    def index(self, loc: AbsLoc) -> int:
        return self.members.index(loc)

    def __contains__(self, loc: AbsLoc) -> bool:
        return loc in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def sort_key(self) -> tuple:
        return self._sort_key  # type: ignore[attr-defined]

    def __lt__(self, other: "Pack") -> bool:
        return self._sort_key < other._sort_key  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return "⟪" + ", ".join(str(m) for m in self.members) + "⟫"


@dataclass
class PackSet:
    """All packs of a program plus lookup indexes."""

    packs: list[Pack]
    by_var: dict[AbsLoc, list[Pack]]
    singleton: dict[AbsLoc, Pack]

    def packs_of(self, loc: AbsLoc) -> list[Pack]:
        return self.by_var.get(loc, [])

    def average_size(self) -> float:
        multi = [p for p in self.packs if len(p) > 1]
        if not multi:
            return 1.0
        return sum(len(p) for p in multi) / len(multi)


def _scalar_locs(program: Program, proc: str, lv_or_expr) -> set[AbsLoc]:
    """Scalar VarLocs mentioned in an IR expression/lvalue (packs track
    numeric variables only)."""
    from repro.ir.commands import ELval, Expr, Lval

    out: set[AbsLoc] = set()
    if isinstance(lv_or_expr, Expr):
        lvs = expr_vars(lv_or_expr)
    else:
        lvs = expr_vars(ELval(lv_or_expr))
    for lv in lvs:
        if isinstance(lv, VarLv):
            loc = VarLoc(lv.name, lv.proc)
            if _is_scalar(program, loc):
                out.add(loc)
    return out


def _is_scalar(program: Program, loc: VarLoc) -> bool:
    if loc.proc is None:
        ctype = program.global_types.get(loc.name)
    else:
        info = program.proc_infos.get(loc.proc)
        ctype = info.var_types.get(loc.name) if info else None
    if ctype is None:
        return True  # compiler temporaries are numeric
    return isinstance(ctype, IntType)


def build_packs(
    program: Program, threshold: int = PACK_SIZE_THRESHOLD
) -> PackSet:
    """Syntax-directed packing over the lowered IR."""
    groups: list[set[AbsLoc]] = []
    all_vars: set[AbsLoc] = set()

    for node in program.nodes():
        cmd = node.cmd
        group: set[AbsLoc] = set()
        if isinstance(cmd, CSet):
            group |= _scalar_locs(program, node.proc, cmd.lval)
            group |= _scalar_locs(program, node.proc, cmd.expr)
        elif isinstance(cmd, CAssume):
            group |= _scalar_locs(program, node.proc, cmd.cond)
        elif isinstance(cmd, CCall):
            # actual arguments ∪ formal parameters, per call site
            for arg in cmd.args:
                group |= _scalar_locs(program, node.proc, arg)
            callee = cmd.static_callee
            if callee and callee in program.proc_infos:
                info = program.proc_infos[callee]
                group |= {
                    VarLoc(p, callee)
                    for p in info.params
                    if _is_scalar(program, VarLoc(p, callee))
                }
        elif isinstance(cmd, CReturn) and cmd.value is not None:
            group |= _scalar_locs(program, node.proc, cmd.value)
            group.add(RetLoc(node.proc))
        elif isinstance(cmd, CRetBind) and cmd.lval is not None:
            if isinstance(cmd.lval, VarLv):
                loc = VarLoc(cmd.lval.name, cmd.lval.proc)
                if _is_scalar(program, loc):
                    group.add(loc)
            call_node = program.node(cmd.call_node)
            callee = getattr(call_node.cmd, "static_callee", None)
            if callee:
                group.add(RetLoc(callee))
        elif isinstance(cmd, CAlloc):
            group |= _scalar_locs(program, node.proc, cmd.size)
        all_vars |= group
        if len(group) > 1:
            groups.append(group)

    merged = _merge_groups(groups, threshold)

    packs: list[Pack] = []
    seen: set[tuple] = set()
    for group in merged:
        pack = Pack.of(group)
        if pack.members and pack.members not in seen:
            seen.add(pack.members)
            packs.append(pack)
    for var in sorted(all_vars, key=lambda l: l.sort_key()):
        single = Pack.of([var])
        if single.members not in seen:
            seen.add(single.members)
            packs.append(single)

    by_var: dict[AbsLoc, list[Pack]] = {}
    singleton: dict[AbsLoc, Pack] = {}
    for pack in packs:
        for member in pack:
            by_var.setdefault(member, []).append(pack)
        if len(pack) == 1:
            singleton[pack.members[0]] = pack
    return PackSet(packs, by_var, singleton)


def _merge_groups(
    groups: list[set[AbsLoc]], threshold: int
) -> list[set[AbsLoc]]:
    """Union-merge overlapping statement groups, respecting the size cap:
    a merge that would exceed the threshold is skipped (the paper splits
    oversized packs)."""
    merged: list[set[AbsLoc]] = []
    for group in groups:
        fresh = False
        if len(group) > threshold:
            group = set(sorted(group, key=lambda l: l.sort_key())[:threshold])
            fresh = True  # already our own set — no second copy needed
        target = None
        for existing in merged:
            if existing & group and len(existing | group) <= threshold:
                target = existing
                break
        if target is not None:
            target |= group
        else:
            merged.append(group if fresh else set(group))
    return merged
