"""Test oracles for dependency generation: the paper's pairwise bypass
rewriting, and a reaching-definitions chain generator.

**Bypass.** Section 5 rewrites ``a —l→ b —l→ c`` into ``a —l→ c`` whenever ``l`` is
neither really defined nor used at ``b``. This oracle applies that rule
literally, one pair at a time, on its own triple container, until nothing
new appears; only then does it drop every triple with a pass-through
endpoint. Deleting the rewritten pair on the spot would oscillate forever
on a pass-through cycle (``b —l→ b``), which the analysis has whenever
widening is off.

It shares no code with :mod:`repro.analysis.datadep`'s memoised closure,
which must produce the same set of triples.

**Chains.** :func:`reaching_chains` builds a procedure's def-use chains by
classic reaching-definitions dataflow, one location at a time, where the
analyzer uses SSA construction. :func:`chain_generator` swaps it into
:func:`repro.analysis.datadep.generate_datadeps`, so whole analyses can be
run on either generator. The two do not produce equal raw triples (SSA adds
phi nodes as def+use sites), so tests compare the tables they lead to.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Iterable, Iterator

import pytest

from repro.analysis import datadep


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


def reaching_chains(cfg, aug, adj) -> None:
    """Link every use of each location in ``cfg`` to the definitions of it
    that reach the use (same signature as ``datadep._ssa_chains``)."""
    assert cfg.entry is not None
    locs: set = set()
    for nid in cfg.succs:
        locs.update(aug.defs.get(nid, ()))
        locs.update(aug.uses.get(nid, ()))
    for loc in locs:
        _reaching_one(cfg, aug, adj, loc)


def _reaching_one(cfg, aug, adj, loc) -> None:
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
                datadep._link(adj, d, nid, loc)


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
