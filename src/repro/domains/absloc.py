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

Locations are immutable, hashable and totally ordered (useful for stable
iteration and BDD bit-encoding).
"""

from __future__ import annotations

from dataclasses import dataclass


class AbsLoc:
    """Base class for abstract locations."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        return (type(self).__name__, str(self))

    def __lt__(self, other: "AbsLoc") -> bool:
        return self.sort_key() < other.sort_key()

    def is_summary(self) -> bool:
        """Summary locations abstract several concrete cells (array blocks,
        heap sites) and therefore only admit weak updates."""
        return False


@dataclass(frozen=True, order=False)
class VarLoc(AbsLoc):
    """A program variable; ``proc`` None means global."""

    name: str
    proc: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("V", self.name, self.proc)))

    def __hash__(self) -> int:  # cached: locations are hot dict keys
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return self.name if self.proc is None else f"{self.proc}::{self.name}"


@dataclass(frozen=True, order=False)
class AllocLoc(AbsLoc):
    """An allocation site — the summary element of the allocated block."""

    site: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("A", self.site)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def is_summary(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"alloc<{self.site}>"


@dataclass(frozen=True, order=False)
class FieldLoc(AbsLoc):
    """Field ``fieldname`` of the object at ``base``."""

    base: AbsLoc
    fieldname: str

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash(("F", self.base, self.fieldname))
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def is_summary(self) -> bool:
        return self.base.is_summary()

    def __str__(self) -> str:
        return f"{self.base}.{self.fieldname}"


@dataclass(frozen=True, order=False)
class RetLoc(AbsLoc):
    """The return-value cell of a procedure."""

    proc: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("R", self.proc)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return f"ret<{self.proc}>"


@dataclass(frozen=True, order=False)
class FuncLoc(AbsLoc):
    """A function designator — what ``&f`` points to."""

    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("X", self.name)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return f"fun<{self.name}>"
