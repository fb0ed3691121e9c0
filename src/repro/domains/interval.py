"""The interval abstract domain (Cousot & Cousot 1977).

``Interval(lo, hi)`` with ``lo, hi ∈ Z ∪ {-∞, +∞}`` and ``lo ≤ hi``; the
empty interval is the distinguished :data:`BOT`. Infinite bounds are
represented by ``None`` on the low/high side, which keeps arithmetic exact
(Python ints are unbounded — no float-infinity rounding surprises).

The module provides the full transfer-function kit: lattice operations,
widening/narrowing, sound arithmetic (+, -, *, /, %, <<, >>, bitops are
over-approximated where exact bounds are hard), comparisons returning
boolean intervals, and condition filters used by ``assume``.

Intervals are *canonical at construction*: the constructor looks its
``(lo, hi, empty)`` up in a bounded unique table and hands back the
instance already there, so equal intervals made since the table last
filled are one object. The table is emptied when it reaches
:data:`_UNIQUE_LIMIT` entries (keeping the module constants), which only
loses sharing: equality short-circuits on identity and falls back to
comparing the three fields, and the hash is ``hash((lo, hi, empty))``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

#: (lo, hi, empty) -> the canonical interval; bounded, see the docstring
_UNIQUE: dict[tuple, "Interval"] = {}
_UNIQUE_LIMIT = 1 << 16
#: the entries a clear keeps: the module constants stay canonical
_PINNED: dict[tuple, "Interval"] = {}


class Interval:
    """A (possibly empty/unbounded) integer interval.

    ``lo=None`` means -∞ and ``hi=None`` means +∞. ``empty=True`` is ⊥ —
    bounds are meaningless then. Immutable; pickling and copying go back
    through the constructor.
    """

    __slots__ = ("lo", "hi", "empty")

    lo: int | None
    hi: int | None
    empty: bool

    def __new__(
        cls, lo: int | None = None, hi: int | None = None, empty: bool = False
    ) -> "Interval":
        key = (lo, hi, empty)
        found = _UNIQUE.get(key)
        if found is not None:
            return found
        if len(_UNIQUE) >= _UNIQUE_LIMIT:
            _UNIQUE.clear()
            _UNIQUE.update(_PINNED)
        itv = object.__new__(cls)
        _set_lo(itv, lo)
        _set_hi(itv, hi)
        _set_empty(itv, empty)
        _UNIQUE[key] = itv
        return itv

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Interval, (self.lo, self.hi, self.empty))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Interval:
            return NotImplemented
        return (
            self.lo == other.lo  # type: ignore[attr-defined]
            and self.hi == other.hi  # type: ignore[attr-defined]
            and self.empty == other.empty  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.empty))

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r}, empty={self.empty!r})"

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def const(n: int) -> "Interval":
        return Interval(n, n)

    @staticmethod
    def range(lo: int | None, hi: int | None) -> "Interval":
        if lo is not None and hi is not None and lo > hi:
            return BOT
        return Interval(lo, hi)

    @staticmethod
    def top() -> "Interval":
        return TOP

    @staticmethod
    def bottom() -> "Interval":
        return BOT

    # -- lattice -----------------------------------------------------------------

    def is_bottom(self) -> bool:
        return self.empty

    def is_top(self) -> bool:
        return not self.empty and self.lo is None and self.hi is None

    def leq(self, other: "Interval") -> bool:
        if self.empty:
            return True
        if other.empty:
            return False
        lo_ok = other.lo is None or (self.lo is not None and self.lo >= other.lo)
        hi_ok = other.hi is None or (self.hi is not None and self.hi <= other.hi)
        return lo_ok and hi_ok

    def join(self, other: "Interval") -> "Interval":
        if self.empty:
            return other
        if other.empty:
            return self
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> "Interval":
        if self.empty or other.empty:
            return BOT
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        if lo is not None and hi is not None and lo > hi:
            return BOT
        return Interval(lo, hi)

    def widen(
        self, other: "Interval", thresholds: tuple[int, ...] | None = None
    ) -> "Interval":
        """Interval widening: unstable bounds jump to ±∞ — or, with
        ``thresholds`` (a sorted tuple of landmark constants, typically the
        comparison constants of the program), to the nearest enclosing
        threshold first. Threshold widening trades a few extra iterations
        for loop bounds that survive without narrowing."""
        if self.empty:
            return other
        if other.empty:
            return self
        if self.lo is None or (other.lo is not None and other.lo >= self.lo):
            lo = self.lo
        else:
            lo = _threshold_below(other.lo, thresholds)
        if self.hi is None or (other.hi is not None and other.hi <= self.hi):
            hi = self.hi
        else:
            hi = _threshold_above(other.hi, thresholds)
        return Interval(lo, hi)

    def narrow(self, other: "Interval") -> "Interval":
        """Standard narrowing: refine only infinite bounds."""
        if self.empty or other.empty:
            return BOT
        lo = other.lo if self.lo is None else self.lo
        hi = other.hi if self.hi is None else self.hi
        if lo is not None and hi is not None and lo > hi:
            return BOT
        return Interval(lo, hi)

    # -- predicates ----------------------------------------------------------------

    def contains(self, n: int) -> bool:
        if self.empty:
            return False
        return (self.lo is None or self.lo <= n) and (self.hi is None or n <= self.hi)

    def is_const(self) -> bool:
        return not self.empty and self.lo is not None and self.lo == self.hi

    def may_be_zero(self) -> bool:
        return self.contains(0)

    def must_be_nonzero(self) -> bool:
        return not self.empty and not self.contains(0)

    # -- arithmetic ------------------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.empty or other.empty:
            return BOT
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def neg(self) -> "Interval":
        if self.empty:
            return BOT
        lo = None if self.hi is None else -self.hi
        hi = None if self.lo is None else -self.lo
        return Interval(lo, hi)

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def mul(self, other: "Interval") -> "Interval":
        if self.empty or other.empty:
            return BOT
        if self.is_top() or other.is_top():
            # ⊤ * [0,0] is still 0; handle the exact-zero case.
            if other == ZERO or self == ZERO:
                return ZERO
            return TOP
        products = []
        unbounded = False
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                if a is None or b is None:
                    unbounded = True
                else:
                    products.append(a * b)
        if unbounded:
            # One side is half-unbounded: compute the reachable sign bound.
            return _mul_unbounded(self, other)
        return Interval(min(products), max(products))

    def div(self, other: "Interval") -> "Interval":
        """C integer division (truncation toward zero), over-approximated."""
        if self.empty or other.empty:
            return BOT
        if other == ZERO:
            return BOT  # division by exactly zero: no defined result
        # Split the divisor around zero to keep bounds meaningful.
        out = BOT
        pos = other.meet(Interval(1, None))
        neg = other.meet(Interval(None, -1))
        for d in (pos, neg):
            if d.is_bottom():
                continue
            out = out.join(_div_nonzero(self, d))
        return out

    def mod(self, other: "Interval") -> "Interval":
        """C remainder; result magnitude < |divisor| with the sign of the
        dividend — conservatively bounded."""
        if self.empty or other.empty:
            return BOT
        if other == ZERO:
            return BOT
        bounds = [abs(b) for b in (other.lo, other.hi) if b is not None]
        if not bounds or (other.lo is None or other.hi is None):
            max_mag = None
        else:
            max_mag = max(bounds)
        if max_mag is None:
            return TOP
        lo = 0 if (self.lo is not None and self.lo >= 0) else -(max_mag - 1)
        hi = 0 if (self.hi is not None and self.hi <= 0) else max_mag - 1
        result = Interval(lo, hi)
        # Exact case: a non-negative dividend strictly below every possible
        # divisor magnitude is unchanged by %.
        if self.lo is not None and self.lo >= 0 and self.hi is not None:
            if other.lo is not None and other.lo >= 1:
                min_mag = other.lo
            elif other.hi is not None and other.hi <= -1:
                min_mag = -other.hi
            else:
                min_mag = 1  # divisor straddles zero (0 itself excluded)
            if self.hi < min_mag:
                return self
        return result

    def shl(self, other: "Interval") -> "Interval":
        if self.empty or other.empty:
            return BOT
        if other.is_const() and other.lo is not None and 0 <= other.lo <= 64:
            return self.mul(Interval.const(1 << other.lo))
        return TOP

    def shr(self, other: "Interval") -> "Interval":
        if self.empty or other.empty:
            return BOT
        if (
            other.is_const()
            and other.lo is not None
            and 0 <= other.lo <= 64
            and self.lo is not None
            and self.lo >= 0
        ):
            lo = self.lo >> other.lo
            hi = None if self.hi is None else self.hi >> other.lo
            return Interval(lo, hi)
        return TOP

    def bitand(self, other: "Interval") -> "Interval":
        if self.empty or other.empty:
            return BOT
        if (
            self.lo is not None
            and self.lo >= 0
            and other.lo is not None
            and other.lo >= 0
        ):
            # Non-negative & non-negative is bounded by the smaller operand.
            hi_candidates = [h for h in (self.hi, other.hi) if h is not None]
            hi = min(hi_candidates) if hi_candidates else None
            return Interval(0, hi)
        return TOP

    def bitor(self, other: "Interval") -> "Interval":
        if self.empty or other.empty:
            return BOT
        if (
            self.lo is not None
            and self.lo >= 0
            and other.lo is not None
            and other.lo >= 0
            and self.hi is not None
            and other.hi is not None
        ):
            # Bounded above by the next power of two of max(hi) minus one.
            bound = max(self.hi, other.hi)
            hi = (1 << bound.bit_length()) - 1 if bound > 0 else 0
            return Interval(0, hi)
        return TOP

    def bitxor(self, other: "Interval") -> "Interval":
        return self.bitor(other)

    def lnot(self) -> "Interval":
        """Logical not: 1 if definitely zero, 0 if definitely nonzero."""
        if self.empty:
            return BOT
        if self == ZERO:
            return ONE
        if self.must_be_nonzero():
            return ZERO
        return BOOL

    def bnot(self) -> "Interval":
        """Bitwise complement: ~x = -x - 1."""
        return self.neg().sub(ONE)

    # -- comparisons (return boolean intervals) -----------------------------------

    def cmp(self, op: str, other: "Interval") -> "Interval":
        """Evaluate ``self op other`` to a boolean interval ([0,0], [1,1],
        or [0,1] when undecided)."""
        return CMP_OPS[op](self, other)

    def _always_lt(self, other: "Interval") -> bool:
        return (
            self.hi is not None and other.lo is not None and self.hi < other.lo
        )

    def _always_le(self, other: "Interval") -> bool:
        return (
            self.hi is not None and other.lo is not None and self.hi <= other.lo
        )

    # -- condition filters (assume transfer functions) ------------------------------

    def filter(self, op: str, other: "Interval") -> "Interval":
        """Refine ``self`` assuming ``self op other`` holds."""
        refine = FILTER_OPS.get(op)
        if refine is None:
            return BOT if self.empty or other.empty else self
        return refine(self, other)

    # -- misc ---------------------------------------------------------------------

    def __str__(self) -> str:
        if self.empty:
            return "⊥"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


# -- comparisons and filters, one function per operator ---------------------
#
# ``cmp`` answers ONE when the relation always holds, else ZERO when it
# never does, else BOOL; a filter meets ``a`` with the values that can
# satisfy the relation against ``b``. Callers that know the operator in
# advance (compiled transfer functions) look the function up once.


def _cmp_lt(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOT
    if a._always_lt(b):
        return ONE
    if b._always_le(a):
        return ZERO
    return BOOL


def _cmp_gt(a: Interval, b: Interval) -> Interval:
    return _cmp_lt(b, a)


def _cmp_le(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOT
    if a._always_le(b):
        return ONE
    if b._always_lt(a):
        return ZERO
    return BOOL


def _cmp_ge(a: Interval, b: Interval) -> Interval:
    return _cmp_le(b, a)


def _cmp_eq(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOT
    if a.is_const() and b.is_const() and a.lo == b.lo:
        return ONE
    if a.meet(b).empty:
        return ZERO
    return BOOL


def _cmp_ne(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOT
    if a.meet(b).empty:
        return ONE
    if a.is_const() and b.is_const() and a.lo == b.lo:
        return ZERO
    return BOOL


CMP_OPS = {
    "<": _cmp_lt,
    ">": _cmp_gt,
    "<=": _cmp_le,
    ">=": _cmp_ge,
    "==": _cmp_eq,
    "!=": _cmp_ne,
}


def _filter_lt(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOT
    if b.hi is None:
        return a
    return a.meet(Interval(None, b.hi - 1))


def _filter_le(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOT
    return a.meet(Interval(None, b.hi))


def _filter_gt(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOT
    if b.lo is None:
        return a
    return a.meet(Interval(b.lo + 1, None))


def _filter_ge(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOT
    return a.meet(Interval(b.lo, None))


def _filter_eq(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOT
    return a.meet(b)


def _filter_ne(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return BOT
    if b.is_const() and b.lo is not None:
        n = b.lo
        if a.lo == n and a.hi == n:
            return BOT
        if a.lo == n:
            return Interval(n + 1, a.hi)
        if a.hi == n:
            return Interval(a.lo, n - 1)
    return a


FILTER_OPS = {
    "<": _filter_lt,
    "<=": _filter_le,
    ">": _filter_gt,
    ">=": _filter_ge,
    "==": _filter_eq,
    "!=": _filter_ne,
}


def _div_nonzero(num: Interval, den: Interval) -> Interval:
    """Division by a sign-constant divisor interval (all > 0 or all < 0).

    For such divisors truncated division is monotone in each bound, so
    evaluating at finite corners is exact; infinite bounds map through the
    divisor's sign.
    """
    if num.lo is None and num.hi is None:
        return TOP

    def q(a: int, b: int) -> int:
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b > 0) else -quotient

    den_pos = den.lo is not None and den.lo >= 1
    finite_bs = [b for b in (den.lo, den.hi) if b is not None]
    candidates = [
        q(a, b) for a in (num.lo, num.hi) if a is not None for b in finite_bs
    ]
    if den.lo is None or den.hi is None:
        candidates.append(0)  # |den| unbounded: quotients approach 0
    lo_unbounded = (num.lo is None and den_pos) or (num.hi is None and not den_pos)
    hi_unbounded = (num.hi is None and den_pos) or (num.lo is None and not den_pos)
    lo = None if lo_unbounded else min(candidates)
    hi = None if hi_unbounded else max(candidates)
    return Interval(lo, hi)


def _mul_unbounded(a: Interval, b: Interval) -> Interval:
    """Multiplication where at least one bound is infinite: track signs."""
    a_nonneg = a.lo is not None and a.lo >= 0
    a_nonpos = a.hi is not None and a.hi <= 0
    b_nonneg = b.lo is not None and b.lo >= 0
    b_nonpos = b.hi is not None and b.hi <= 0
    if (a_nonneg and b_nonneg) or (a_nonpos and b_nonpos):
        return Interval(0 if (a.contains(0) or b.contains(0)) else 1, None)
    if (a_nonneg and b_nonpos) or (a_nonpos and b_nonneg):
        return Interval(None, 0)
    return TOP


def _threshold_above(bound: int | None, thresholds: tuple[int, ...] | None) -> int | None:
    """Smallest threshold ≥ bound, or None (+∞) when none encloses it."""
    if bound is None or not thresholds:
        return None
    for t in thresholds:
        if t >= bound:
            return t
    return None


def _threshold_below(bound: int | None, thresholds: tuple[int, ...] | None) -> int | None:
    """Largest threshold ≤ bound, or None (−∞)."""
    if bound is None or not thresholds:
        return None
    best: int | None = None
    for t in thresholds:
        if t <= bound:
            best = t
        else:
            break
    return best


# The slot descriptors' setters: they bypass the ``__setattr__`` that makes
# intervals immutable, so only the constructor may use them.
_set_lo = Interval.lo.__set__  # type: ignore[attr-defined]
_set_hi = Interval.hi.__set__  # type: ignore[attr-defined]
_set_empty = Interval.empty.__set__  # type: ignore[attr-defined]

BOT = Interval(empty=True)
TOP = Interval(None, None)
ZERO = Interval(0, 0)
ONE = Interval(1, 1)
BOOL = Interval(0, 1)
_PINNED.update(_UNIQUE)  # exactly the five constants above
