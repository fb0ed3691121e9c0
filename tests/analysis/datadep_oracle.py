"""Test oracle for the bypass optimization: the paper's pairwise rewriting.

Section 5 rewrites ``a —l→ b —l→ c`` into ``a —l→ c`` whenever ``l`` is
neither really defined nor used at ``b``. This oracle applies that rule
literally, one pair at a time, on its own triple container, until nothing
new appears; only then does it drop every triple with a pass-through
endpoint. Deleting the rewritten pair on the spot would oscillate forever
on a pass-through cycle (``b —l→ b``), which the analysis has whenever
widening is off.

It shares no code with :mod:`repro.analysis.datadep`'s memoised closure,
which must produce the same set of triples.
"""

from __future__ import annotations

from typing import Iterable


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
