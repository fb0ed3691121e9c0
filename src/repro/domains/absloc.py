"""Abstract locations (the paper's ``L̂``).

The interval analysis of Section 6.1 uses:

* program variables (locals qualified by procedure, globals unqualified),
* allocation sites for heap/array blocks (arrays are *smashed*: one summary
  location per block holds the join of all elements),
* struct fields — the analysis is field-sensitive, so ``p.f`` and heap
  fields get their own locations,
* a return location per procedure (carries the callee's return value to
  the caller),
* function designators (for function-pointer points-to sets).

Locations are immutable and totally ordered (useful for stable
iteration). They are also *hash-consed*: each constructor
returns the one canonical instance for its class and fields, made once per
process in a unique table that is never cleared. Equality is therefore
identity and the hash is CPython's built-in identity hash, so the many
dicts and sets keyed by locations never call a Python-level equality or
hash method. ``__reduce__`` goes back through the constructor, so pickle,
``copy`` and ``deepcopy`` hand back the canonical object too. The sort key
is computed once, at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

#: (class, *fields) -> the canonical location. Never cleared or evicted:
#: identity equality is only sound if no location is ever built twice.
_UNIQUE: dict[tuple, "AbsLoc"] = {}


def _canonical(cls: type, fields: tuple) -> "AbsLoc":
    """The canonical ``cls`` location with ``fields``, made on first use.
    ``setdefault`` keeps racing constructors on one instance."""
    key = (cls, *fields)
    found = _UNIQUE.get(key)
    if found is not None:
        return found
    loc = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(loc, name, value)
    object.__setattr__(loc, "_sort_key", (cls.__name__, str(loc)))
    return _UNIQUE.setdefault(key, loc)


class AbsLoc:
    """Base class for abstract locations."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        return self._sort_key  # type: ignore[attr-defined]

    def __lt__(self, other: "AbsLoc") -> bool:
        return self._sort_key < other._sort_key  # type: ignore[attr-defined]

    def __reduce__(self):
        fields = self.__dataclass_fields__  # type: ignore[attr-defined]
        return (type(self), tuple(getattr(self, name) for name in fields))

    def is_summary(self) -> bool:
        """Summary locations abstract several concrete cells (array blocks,
        heap sites) and therefore only admit weak updates."""
        return False


@dataclass(frozen=True, eq=False, init=False)
class VarLoc(AbsLoc):
    """A program variable; ``proc`` None means global."""

    name: str
    proc: str | None = None

    def __new__(cls, name: str, proc: str | None = None) -> "VarLoc":
        return _canonical(cls, (name, proc))  # type: ignore[return-value]

    def __str__(self) -> str:
        return self.name if self.proc is None else f"{self.proc}::{self.name}"


@dataclass(frozen=True, eq=False, init=False)
class AllocLoc(AbsLoc):
    """An allocation site — the summary element of the allocated block."""

    site: str

    def __new__(cls, site: str) -> "AllocLoc":
        return _canonical(cls, (site,))  # type: ignore[return-value]

    def is_summary(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"alloc<{self.site}>"


@dataclass(frozen=True, eq=False, init=False)
class FieldLoc(AbsLoc):
    """Field ``fieldname`` of the object at ``base``."""

    base: AbsLoc
    fieldname: str

    def __new__(cls, base: AbsLoc, fieldname: str) -> "FieldLoc":
        return _canonical(cls, (base, fieldname))  # type: ignore[return-value]

    def is_summary(self) -> bool:
        return self.base.is_summary()

    def __str__(self) -> str:
        return f"{self.base}.{self.fieldname}"


@dataclass(frozen=True, eq=False, init=False)
class RetLoc(AbsLoc):
    """The return-value cell of a procedure."""

    proc: str

    def __new__(cls, proc: str) -> "RetLoc":
        return _canonical(cls, (proc,))  # type: ignore[return-value]

    def __str__(self) -> str:
        return f"ret<{self.proc}>"


@dataclass(frozen=True, eq=False, init=False)
class FuncLoc(AbsLoc):
    """A function designator — what ``&f`` points to."""

    name: str

    def __new__(cls, name: str) -> "FuncLoc":
        return _canonical(cls, (name,))  # type: ignore[return-value]

    def __str__(self) -> str:
        return f"fun<{self.name}>"
