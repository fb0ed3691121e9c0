"""Abstract values (the paper's ``V̂``).

An abstract value is the product of:

* an :class:`Interval` abstracting the numeric part,
* a points-to set (``P̂ = 2^L̂``) of plain locations,
* a set of *array blocks*: the paper's array abstraction "a set of tuples of
  base address, offset, and size". Blocks with equal bases are merged by
  joining their offset/size intervals, so the set stays small.

The paper's value domain is ``V̂ = Ẑ × P̂`` with arrays folded into the
pointer part; we keep array blocks separate so the buffer-overrun checker
can reason about offsets and sizes.

**Hash-consing**: like abstract locations and packs, values are
interned so that structurally-equal values are pointer-equal — equality
checks short-circuit on identity, the state layer can skip no-op joins
with an ``is`` test, and binary join/widen results are memoized by operand
identity in a bounded cache. Interning happens at the two choke points
where values enter long-lived structures (:meth:`AbsValue.join`/``widen``
results and :meth:`repro.domains.state.AbsState.set`), so transfer-function
scratch values cost nothing extra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.domains.absloc import AbsLoc
from repro.domains.interval import BOT as ITV_BOT
from repro.domains.interval import TOP as ITV_TOP
from repro.domains.interval import Interval


@dataclass(frozen=True)
class ArrayBlock:
    """One array block: base summary location, offset and size intervals."""

    base: AbsLoc
    offset: Interval = field(default_factory=lambda: Interval.const(0))
    size: Interval = field(default_factory=Interval.top)

    def shift(self, delta: Interval) -> "ArrayBlock":
        """Pointer arithmetic: move the offset by ``delta``."""
        return ArrayBlock(self.base, self.offset.add(delta), self.size)

    def join(self, other: "ArrayBlock") -> "ArrayBlock":
        assert self.base == other.base
        return ArrayBlock(
            self.base, self.offset.join(other.offset), self.size.join(other.size)
        )

    def widen(self, other: "ArrayBlock") -> "ArrayBlock":
        assert self.base == other.base
        return ArrayBlock(
            self.base, self.offset.widen(other.offset), self.size.widen(other.size)
        )

    def leq(self, other: "ArrayBlock") -> bool:
        return (
            self.base == other.base
            and self.offset.leq(other.offset)
            and self.size.leq(other.size)
        )

    def __str__(self) -> str:
        return f"⟨{self.base}, off={self.offset}, sz={self.size}⟩"


def merge_blocks(
    a: tuple[ArrayBlock, ...],
    b: tuple[ArrayBlock, ...],
    combine,
) -> tuple[ArrayBlock, ...]:
    """The blocks of ``a`` and ``b`` in normal form — one block per base
    (same-base pairs ``combine``d), sorted by base. Join and widen absorb
    a smaller operand exactly only on values in this form."""
    by_base: dict[AbsLoc, ArrayBlock] = {blk.base: blk for blk in a}
    for blk in b:
        if blk.base in by_base:
            by_base[blk.base] = combine(by_base[blk.base], blk)
        else:
            by_base[blk.base] = blk
    return tuple(sorted(by_base.values(), key=lambda x: x.base.sort_key()))


# -- hash-consing ----------------------------------------------------------

#: table bounds — clearing on overflow only loses sharing, never soundness
_INTERN_LIMIT = 1 << 16
_MEMO_LIMIT = 1 << 15

_interned: dict["AbsValue", "AbsValue"] = {}
_interned_ptsto: dict[frozenset, frozenset] = {}
#: (id(a), id(b)[, thresholds]) → (a, b, result); the stored operands keep
#: the keyed objects alive, so an id can never be reused while its entry
#: exists — hits verify identity against the stored operands.
_join_memo: dict[tuple[int, int], tuple] = {}
_widen_memo: dict[tuple, tuple] = {}

_memo_hits = 0
_memo_misses = 0


def clear_intern_tables() -> None:
    _interned.clear()
    _interned_ptsto.clear()
    _clear_memos()


def _clear_memos() -> None:
    """Drop the join/widen memos together with any intern-table clear.
    A memo entry maps *canonical* operands to a *canonical* result; once a
    table clears, a structurally-equal value can be re-interned as a
    different object, so keeping the old entries would hand out stale
    non-canonical results — correct, but it defeats every identity fast
    path downstream and pins dead generations of values alive."""
    _join_memo.clear()
    _widen_memo.clear()


def cache_stats() -> tuple[int, int]:
    """Cumulative (hits, misses) of the join/widen memo caches — solvers
    snapshot this around a run to report per-run hit rates."""
    return _memo_hits, _memo_misses


def intern_value(value: "AbsValue") -> "AbsValue":
    """The canonical instance structurally equal to ``value`` — after this,
    equality of interned values is pointer equality. The points-to set is
    canonicalized too (intervals are canonical from construction), so even
    distinct values share their equal parts."""
    found = _interned.get(value)
    if found is not None:
        return found
    if len(_interned) >= _INTERN_LIMIT:
        _interned.clear()
        _clear_memos()
    ptsto = value.ptsto
    if ptsto:
        cached_pts = _interned_ptsto.get(ptsto)
        if cached_pts is None:
            if len(_interned_ptsto) >= _INTERN_LIMIT:
                _interned_ptsto.clear()
                _clear_memos()
            _interned_ptsto[ptsto] = ptsto
        elif cached_pts is not ptsto:
            ptsto = cached_pts
    if ptsto is not value.ptsto:
        value = AbsValue(value.itv, ptsto, value.arrays)
    _interned[value] = value
    return value


@dataclass(frozen=True, eq=False)
class AbsValue:
    """Product value: interval × points-to set × array blocks.

    Equality short-circuits on identity and the hash is computed once per
    instance — both matter because interning makes repeated values
    pointer-equal on the fixpoint hot paths.
    """

    itv: Interval = ITV_BOT
    ptsto: frozenset[AbsLoc] = frozenset()
    arrays: tuple[ArrayBlock, ...] = ()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not AbsValue:
            return NotImplemented
        return (
            self.itv == other.itv
            and self.ptsto == other.ptsto
            and self.arrays == other.arrays
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.itv, self.ptsto, self.arrays))
            object.__setattr__(self, "_hash", h)
            return h

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def bottom() -> "AbsValue":
        return BOT

    @staticmethod
    def top() -> "AbsValue":
        """Unknown scalar: any number, but no valid pointer — matching the
        paper's treatment of unknown external values."""
        return TOP_NUM

    @staticmethod
    def of_interval(itv: Interval) -> "AbsValue":
        return AbsValue(itv=itv)

    @staticmethod
    def of_const(n: int) -> "AbsValue":
        return AbsValue(itv=Interval.const(n))

    @staticmethod
    def of_locs(locs: frozenset[AbsLoc] | set[AbsLoc]) -> "AbsValue":
        return AbsValue(ptsto=frozenset(locs))

    @staticmethod
    def of_block(block: ArrayBlock) -> "AbsValue":
        return AbsValue(arrays=(block,))

    # -- lattice ------------------------------------------------------------------

    def is_bottom(self) -> bool:
        return self.itv.is_bottom() and not self.ptsto and not self.arrays

    def leq(self, other: "AbsValue") -> bool:
        if self is other:
            return True
        if not self.itv.leq(other.itv):
            return False
        if not self.ptsto <= other.ptsto:
            return False
        others = {blk.base: blk for blk in other.arrays}
        for blk in self.arrays:
            o = others.get(blk.base)
            if o is None or not blk.leq(o):
                return False
        return True

    def join(self, other: "AbsValue") -> "AbsValue":
        if self is other:
            return self
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        global _memo_hits, _memo_misses
        key = (id(self), id(other))
        hit = _join_memo.get(key)
        if hit is not None and hit[0] is self and hit[1] is other:
            _memo_hits += 1
            return hit[2]
        _memo_misses += 1
        result = AbsValue(
            itv=self.itv.join(other.itv),
            ptsto=self.ptsto | other.ptsto,
            arrays=merge_blocks(
                self.arrays, other.arrays, lambda x, y: x.join(y)
            ),
        )
        result = intern_value(result)
        if len(_join_memo) >= _MEMO_LIMIT:
            _join_memo.clear()
        _join_memo[key] = (self, other, result)
        return result

    def widen(
        self, other: "AbsValue", thresholds: tuple[int, ...] | None = None
    ) -> "AbsValue":
        if self is other:
            return self
        global _memo_hits, _memo_misses
        key = (id(self), id(other), thresholds)
        hit = _widen_memo.get(key)
        if hit is not None and hit[0] is self and hit[1] is other:
            _memo_hits += 1
            return hit[2]
        _memo_misses += 1
        result = AbsValue(
            itv=self.itv.widen(other.itv, thresholds),
            ptsto=self.ptsto | other.ptsto,
            arrays=merge_blocks(
                self.arrays, other.arrays, lambda x, y: x.widen(y)
            ),
        )
        result = intern_value(result)
        if len(_widen_memo) >= _MEMO_LIMIT:
            _widen_memo.clear()
        _widen_memo[key] = (self, other, result)
        return result

    def narrow(self, other: "AbsValue") -> "AbsValue":
        return AbsValue(
            itv=self.itv.narrow(other.itv),
            ptsto=self.ptsto & other.ptsto
            if self.ptsto and other.ptsto
            else other.ptsto | self.ptsto,
            arrays=self.arrays if self.arrays else other.arrays,
        )

    # -- accessors -------------------------------------------------------------------

    def all_pointees(self) -> set[AbsLoc]:
        """Every location a dereference of this value may touch: plain
        points-to targets plus array-block summary elements."""
        out = set(self.ptsto)
        out.update(blk.base for blk in self.arrays)
        return out

    def with_itv(self, itv: Interval) -> "AbsValue":
        return AbsValue(itv=itv, ptsto=self.ptsto, arrays=self.arrays)

    def only_itv(self) -> "AbsValue":
        return AbsValue(itv=self.itv)

    def has_pointers(self) -> bool:
        return bool(self.ptsto) or bool(self.arrays)

    def truthiness(self) -> Interval:
        """Boolean interval for branch decisions: pointers count as
        non-zero, the numeric part decides otherwise."""
        if self.has_pointers():
            if self.itv.is_bottom() or self.itv == Interval.const(0):
                from repro.domains.interval import ONE

                return ONE
            from repro.domains.interval import BOOL

            return BOOL
        return _truthiness_of_itv(self.itv)

    def __str__(self) -> str:
        parts = []
        if not self.itv.is_bottom():
            parts.append(str(self.itv))
        if self.ptsto:
            locs = ", ".join(sorted(str(l) for l in self.ptsto))
            parts.append("{" + locs + "}")
        for blk in self.arrays:
            parts.append(str(blk))
        return "(" + (" , ".join(parts) if parts else "⊥") + ")"


def _truthiness_of_itv(itv: Interval) -> Interval:
    from repro.domains.interval import BOOL, BOT, ONE, ZERO

    if itv.is_bottom():
        return BOT
    if itv == ZERO:
        return ZERO
    if itv.must_be_nonzero():
        return ONE
    return BOOL


BOT = intern_value(AbsValue())
TOP_NUM = intern_value(AbsValue(itv=ITV_TOP))
