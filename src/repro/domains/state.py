"""Abstract states: finite maps ``L̂ → V̂`` with missing entries = ⊥.

:class:`AbsState` is the state the fixpoint engines update in place at one
control point while joining copies across edges. ``join_with``/``widen_with``
return whether anything changed, which drives worklist convergence.

The store is a dict of hash-consed values (DESIGN.md §13): a stored value
is never ⊥ and always the canonical instance, so the lattice operations
short-circuit on ``is`` before comparing structurally, and the per-visit
operations cost time in the locations they touch, not in the state's size.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.domains.absloc import AbsLoc
from repro.domains.value import BOT, AbsValue, intern_value

#: sentinel for the single-location fast path in :meth:`AbsState.update_locs`
_NO_MORE = object()


class AbsState:
    """A map from abstract locations to abstract values.

    Stored values are hash-consed (see :mod:`repro.domains.value`), so
    structurally-equal values across states are pointer-equal; the lattice
    operations exploit that with ``is`` fast paths before falling back to
    structural comparison.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[AbsLoc, AbsValue] | None = None) -> None:
        self._map: dict[AbsLoc, AbsValue] = {}
        if mapping:
            for loc, value in mapping.items():
                self.set(loc, value)

    @classmethod
    def _adopt(cls, mapping: dict[AbsLoc, AbsValue]) -> "AbsState":
        """Wrap a freshly-built dict of stored values without the
        constructor's per-entry checks (copy/restrict/remove build their
        mapping themselves)."""
        out = object.__new__(cls)
        out._map = mapping
        return out

    # -- access --------------------------------------------------------------

    def get(self, loc: AbsLoc) -> AbsValue:
        return self._map.get(loc, BOT)

    def set(self, loc: AbsLoc, value: AbsValue) -> None:
        """Strong update."""
        if value.is_bottom():
            self._map.pop(loc, None)
        else:
            self._map[loc] = intern_value(value)

    def weak_set(self, loc: AbsLoc, value: AbsValue) -> None:
        """Weak update: join with the existing value (the paper's ``[l ↪w v]``)."""
        self.set(loc, self.get(loc).join(value))

    def update_locs(self, locs: Iterable[AbsLoc], value: AbsValue) -> None:
        """The paper's store semantics: a strong update when the target is a
        single non-summary location, a weak update otherwise. The common
        single-location case is detected without materializing a list."""
        it = iter(locs)
        first = next(it, _NO_MORE)
        if first is _NO_MORE:
            return
        second = next(it, _NO_MORE)
        if second is _NO_MORE:
            if first.is_summary():
                self.weak_set(first, value)
            else:
                self.set(first, value)
            return
        self.weak_set(first, value)
        self.weak_set(second, value)
        for loc in it:
            self.weak_set(loc, value)

    def locations(self) -> set[AbsLoc]:
        return set(self._map)

    def items(self) -> Iterator[tuple[AbsLoc, AbsValue]]:
        return iter(self._map.items())

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, loc: AbsLoc) -> bool:
        return loc in self._map

    def __bool__(self) -> bool:
        # An empty state is a real state (everything ⊥), not "no state" —
        # `if state:` must not silently mean `if len(state):`.
        return True

    def copy(self) -> "AbsState":
        return AbsState._adopt(dict(self._map))

    def delta_items(self, base: "AbsState") -> Iterator[tuple[AbsLoc, AbsValue]]:
        """Entries of this state that are not the *same object* as in
        ``base`` — cheap change detection for states derived by
        copy-then-update (the pre-analysis's once-per-round diff)."""
        base_map = base._map
        for loc, value in self._map.items():
            if base_map.get(loc) is not value:
                yield loc, value

    # -- domain restriction (the paper's f|C and f\C) -------------------------

    def restrict(self, locs: Iterable[AbsLoc]) -> "AbsState":
        """``s|locs`` — keep only the given locations."""
        keep = set(locs)
        return AbsState._adopt({l: v for l, v in self._map.items() if l in keep})

    def remove(self, locs: Iterable[AbsLoc]) -> "AbsState":
        """``s\\locs`` — drop the given locations."""
        drop = set(locs)
        return AbsState._adopt(
            {l: v for l, v in self._map.items() if l not in drop}
        )

    # -- lattice --------------------------------------------------------------

    def is_bottom(self) -> bool:
        return not self._map

    def leq(self, other: "AbsState") -> bool:
        if self is other:
            return True
        other_map = other._map
        for loc, value in self._map.items():
            ov = other_map.get(loc, BOT)
            if ov is value:
                continue
            if not value.leq(ov):
                return False
        return True

    def join(self, other: "AbsState") -> "AbsState":
        out = self.copy()
        out.join_with(other)
        return out

    def join_with(self, other: "AbsState") -> bool:
        """In-place join; returns True when this state grew."""
        return bool(self.join_changed(other))

    def widen_with(
        self, other: "AbsState", thresholds: tuple[int, ...] | None = None
    ) -> bool:
        """In-place widening (pointwise); returns True when this state grew."""
        return bool(self.widen_changed(other, thresholds))

    def join_changed(self, other: "AbsState") -> set[AbsLoc]:
        """In-place join returning exactly the locations that changed —
        lets the sparse engine propagate per location, not per node."""
        changed: set[AbsLoc] = set()
        self_map = self._map
        for loc, value in other._map.items():
            old = self_map.get(loc)
            if old is None:
                self_map[loc] = intern_value(value)
                changed.add(loc)
            elif old is value:
                continue
            else:
                new = old.join(value)
                if new is not old and new != old:
                    self_map[loc] = new
                    changed.add(loc)
        return changed

    def widen_changed(
        self, other: "AbsState", thresholds: tuple[int, ...] | None = None
    ) -> set[AbsLoc]:
        changed: set[AbsLoc] = set()
        self_map = self._map
        for loc, value in other._map.items():
            old = self_map.get(loc)
            if old is None:
                self_map[loc] = intern_value(value)
                changed.add(loc)
            elif old is value:
                continue
            else:
                new = old.widen(value, thresholds)
                if new is not old and new != old:
                    self_map[loc] = new
                    changed.add(loc)
        return changed

    def join_entries_from(self, other: "AbsState", locs: Iterable[AbsLoc]) -> bool:
        """Join ``other``'s values for the given locations into this state;
        True when this state grew — the sparse engines' per-dependency-edge
        push primitive (see ``engine.IntervalCells.push``)."""
        grew = False
        self_map = self._map
        other_get = other._map.get
        for loc in locs:
            value = other_get(loc)
            if value is None:
                continue  # ⊥ on the source side: nothing to push
            old = self_map.get(loc)
            if old is None:
                self_map[loc] = intern_value(value)
                grew = True
            elif old is not value:
                new = old.join(value)
                if new is not old and new != old:
                    self_map[loc] = new
                    grew = True
        return grew

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AbsState):
            return NotImplemented
        return self._map == other._map

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{l} ↦ {v}"
            for l, v in sorted(self._map.items(), key=lambda kv: kv[0].sort_key())
        )
        return "{" + entries + "}"
