"""A small C type system for the supported subset.

Types matter to the analyzer mostly for three things: distinguishing scalars
from pointers/arrays/structs (which decide abstract-location shapes),
computing array extents for the buffer-overrun checker, and resolving struct
field references. All numeric types collapse onto :class:`IntType`, matching
the paper's value domain ``V = Z + L``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def c_div(a: int, b: int) -> int:
    """C integer division of ``a`` by a nonzero ``b``: the quotient
    truncates toward zero (C99 6.5.5), where Python's ``//`` floors."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def c_mod(a: int, b: int) -> int:
    """C remainder for a nonzero ``b``: ``a == c_div(a, b) * b + c_mod(a, b)``,
    so it takes the sign of ``a``."""
    return a - c_div(a, b) * b


class CType:
    """Base class for C types. Instances are immutable and comparable."""

    def is_scalar(self) -> bool:
        return False

    def is_pointer(self) -> bool:
        return False

    def is_array(self) -> bool:
        return False

    def is_struct(self) -> bool:
        return False


@dataclass(frozen=True)
class IntType(CType):
    """Any integral/floating scalar (int, char, long, double, ...)."""

    name: str = "int"

    def is_scalar(self) -> bool:
        return True

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class VoidType(CType):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType

    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(CType):
    """Array with optionally-known constant length (None = unsized)."""

    element: CType
    length: int | None = None

    def is_array(self) -> bool:
        return True

    def __str__(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.element}[{n}]"


@dataclass(frozen=True)
class StructType(CType):
    """Reference to a struct by tag; field layout lives in the program's
    struct table so recursive structs need no special casing."""

    tag: str

    def is_struct(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"struct {self.tag}"


@dataclass(frozen=True)
class FuncType(CType):
    ret: CType
    params: tuple[CType, ...] = ()
    variadic: bool = False

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        if self.variadic:
            ps = f"{ps}, ..." if ps else "..."
        return f"{self.ret}({ps})"


@dataclass
class StructLayout:
    """Field names and types of a defined struct, in declaration order."""

    tag: str
    fields: list[tuple[str, CType]] = field(default_factory=list)

    def field_type(self, name: str) -> CType | None:
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        return None

    def field_names(self) -> list[str]:
        return [fname for fname, _ in self.fields]


INT = IntType("int")
CHAR = IntType("char")
VOID = VoidType()


def strip_arrays(ty: CType) -> CType:
    """Decay an array type to a pointer to its element type (C semantics)."""
    if isinstance(ty, ArrayType):
        return PointerType(ty.element)
    return ty
