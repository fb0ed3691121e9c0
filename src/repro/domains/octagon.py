"""The octagon abstract domain (Miné, HOSC 2006), stored sparsely.

Constraints of the form ``±x ± y ≤ c`` over a fixed, ordered tuple of
variables, read as a difference-bound matrix (DBM) over the doubled
variable set: index ``2k`` stands for ``+x_k`` and ``2k+1`` for ``-x_k``;
entry ``m[i, j]`` bounds ``v_j − v_i ≤ m[i, j]``.

Following Jourdan ("Sparsity Preserving Algorithms for Octagons"), an
octagon stores only its *finite* entries, as a dict ``{(i, j): bound}``.
A missing off-diagonal entry is +∞ and a missing diagonal entry is 0, so
⊤ is the empty dict (one shared instance per dimension) and every
operation costs time proportional to the constraints it actually holds.
Pack octagons are almost all ⊤, which is what makes this pay.

Provides the operations the packed relational analysis of Section 4 needs:

* strong closure (Floyd–Warshall + unary tightening, with integer
  rounding), emptiness test;
* lattice: ``leq``, ``join``, ``meet``, ``widen``, ``narrow``;
* transfer functions: interval assignment, ``x := ±y + [l, u]`` (exact),
  general forget, and comparison tests (``x ⋈ c``, ``x ⋈ y + c``);
* projection of one variable to an :class:`Interval` (the paper's ``π_x``).

Instances are immutable: every operation returns a fresh octagon and a
constraint dict is never mutated once it backs an instance.

Every result is bit-for-bit the one Miné's dense algorithm gives on the
full matrix, down to the sign of zero bounds (the renderers print cells
with ``repr``). Minima and maxima therefore break ties towards the
*second* operand, as numpy's ``minimum``/``maximum`` do: a relaxation or
strong step takes the new value when ``new <= cur``, ``meet`` keeps the
left bound only when it is strictly smaller and ``join`` only when it is
strictly larger.
"""

from __future__ import annotations

import math

from repro.domains.interval import Interval

INF = math.inf

Constraints = dict[tuple[int, int], float]


def _even_floor(u: float) -> float:
    """``2·⌊u/2⌋`` as a float, keeping the sign of a zero bound."""
    return 2.0 * math.floor(u / 2) if u else u


def _relax(m: Constraints, diag: dict[int, float], k: int) -> bool:
    """One Floyd–Warshall step through index ``k``, in place: every
    ``m[i, j]`` against ``m[i, k] + m[k, j]``, all sums taken from the
    values before the step. ``diag`` holds the diagonal entries written so
    far (default 0). Returns False once a diagonal entry goes negative."""
    dkk = diag.get(k, 0.0)
    ins = [(k, dkk)]
    outs = [(k, dkk)]
    for (i, j), v in m.items():
        if j == k:
            ins.append((i, v))
        elif i == k:
            outs.append((j, v))
    if len(ins) == 1 and len(outs) == 1:
        return True  # only the zero diagonal: 0 + 0 changes nothing
    for i, a in ins:
        for j, b in outs:
            v = a + b
            if i == j:
                if v <= diag.get(i, 0.0):
                    if v < 0:
                        return False
                    diag[i] = v
            else:
                cur = m.get((i, j))
                if cur is None or v <= cur:
                    m[i, j] = v
    return True


def _tighten_and_strong(m: Constraints, diag: dict[int, float]) -> bool:
    """Integer tightening of the unary bounds (``m[i, ī]`` is 2·bound(±x))
    followed by Miné's strong step, in place, over the finite unary bounds
    only. Returns False on a negative diagonal entry."""
    unary = {i: _even_floor(v) for (i, j), v in m.items() if j == i ^ 1}
    if not unary:
        return True
    for i, u in unary.items():
        m[i, i ^ 1] = u
    # m[i,j] ← min(m[i,j], (m[i,ī] + m[j̄,j]) / 2) where both are finite
    for i, ui in unary.items():
        for jbar, uj in unary.items():
            j = jbar ^ 1
            v = (ui + uj) / 2
            if i == j:
                if v <= diag.get(i, 0.0):
                    if v < 0:
                        return False
                    diag[i] = v
            else:
                cur = m.get((i, j))
                if cur is None or v <= cur:
                    m[i, j] = v
    return True


def _off_diagonal(c: Constraints) -> Constraints | None:
    """A mutable copy of ``c`` without its diagonal, or None when ``c``
    stores a diagonal entry: stored diagonal entries are negative, so the
    system is infeasible."""
    out = {}
    for key, v in c.items():
        if key[0] == key[1]:
            return None
        out[key] = v
    return out


def _strong_closure(c: Constraints, dim: int) -> Constraints | None:
    """The full strong closure: rounds of relaxation through every index
    that carries a finite entry, then tightening and the strong step, until
    no bound moves or the round cap is hit. Indices without finite entries
    are inert in every step, so skipping them changes nothing. Returns
    None when the system is infeasible."""
    m = _off_diagonal(c)
    if m is None:
        return None
    support = sorted({i for i, _ in m} | {j for _, j in m})
    diag: dict[int, float] = {}
    for _round in range(2 * dim + 2):
        before = dict(m)
        for k in support:
            if not _relax(m, diag, k):
                return None
        if not _tighten_and_strong(m, diag):
            return None
        # == treats -0.0 and 0.0 as equal, like a dense array comparison
        if m == before:
            break
    return m


def _close_touched(m: Constraints, touched: tuple[int, ...]) -> Constraints | None:
    """Incremental strong closure (Miné's algorithm) when only the
    ``touched`` variables' constraints changed on a strongly closed
    system: relax through their indices, then tighten + strong step.
    Works in place on ``m`` (no diagonal entries) and returns it, or None
    when the system is infeasible."""
    diag: dict[int, float] = {}
    for _pass in range(2 if len(touched) > 1 else 1):
        for var in touched:
            if not (_relax(m, diag, 2 * var) and _relax(m, diag, 2 * var + 1)):
                return None
        if not _tighten_and_strong(m, diag):
            return None
    return m


def _without_var(c: Constraints, k: int) -> Constraints:
    """The entries of ``c`` that do not mention ``x_k``."""
    return {key: v for key, v in c.items() if key[0] >> 1 != k and key[1] >> 1 != k}


_TOPS: dict[int, "Octagon"] = {}
_BOTTOMS: dict[int, "Octagon"] = {}


class Octagon:
    """An octagon over ``dim`` variables. ``constraints`` maps DBM indices
    ``(i, j)`` to the finite bounds; ⊥ is the distinguished ``empty``.
    ``closed_flag`` records that the constraints are already strongly
    closed, letting the hot transfer-function paths skip redundant
    closures; equality ignores it."""

    __slots__ = ("dim", "constraints", "empty", "closed_flag")

    def __init__(
        self,
        dim: int,
        constraints: Constraints | None = None,
        empty: bool = False,
        closed_flag: bool = False,
    ) -> None:
        self.dim = dim
        self.constraints = {} if constraints is None else constraints
        self.empty = empty
        self.closed_flag = closed_flag

    # -- constructors -------------------------------------------------------------

    @staticmethod
    def top(dim: int) -> "Octagon":
        found = _TOPS.get(dim)
        if found is None:
            found = _TOPS[dim] = Octagon(dim, {}, closed_flag=True)
        return found

    @staticmethod
    def bottom(dim: int) -> "Octagon":
        found = _BOTTOMS.get(dim)
        if found is None:
            found = _BOTTOMS[dim] = Octagon(dim, {}, empty=True, closed_flag=True)
        return found

    @staticmethod
    def _from_closure(dim: int, m: Constraints | None) -> "Octagon":
        """Wrap a closure result (None means infeasible)."""
        if m is None:
            return Octagon.bottom(dim)
        if not m:
            return Octagon.top(dim)
        return Octagon(dim, m, closed_flag=True)

    @property
    def matrix(self):
        """The dense DBM (numpy ``float64``, +∞ for absent entries), built
        on demand for renderers (the layered benchmark's oracle and the
        tests); None for ⊥. numpy is imported here, on first use, so no
        analysis loads it."""
        if self.empty:
            return None
        import numpy as np

        n = 2 * self.dim
        m = np.full((n, n), np.inf)
        np.fill_diagonal(m, 0.0)
        for (i, j), v in self.constraints.items():
            m[i, j] = v
        return m

    # -- closure --------------------------------------------------------------------

    def closed(self) -> "Octagon":
        """Strong closure: shortest paths + unary tightening + integer
        rounding. Returns ⊥ if the constraint system is infeasible."""
        if self.empty or self.closed_flag:
            return self
        return Octagon._from_closure(self.dim, _strong_closure(self.constraints, self.dim))

    def is_bottom(self) -> bool:
        return self.empty

    def is_top(self) -> bool:
        if self.empty:
            return False
        # no finite off-diagonal entry; like the dense matrix, a raw
        # negative diagonal entry does not count
        return all(i == j for i, j in self.constraints)

    # -- lattice ---------------------------------------------------------------------

    def leq(self, other: "Octagon") -> bool:
        if self.empty:
            return True
        if other.empty:
            return False
        if self is other:
            return True
        # only other's finite entries can fail a ≤ b; a's stored diagonal
        # entries are negative, so they sit below other's implicit zeros
        a = self.constraints
        for key, bound in other.constraints.items():
            mine = a.get(key)
            if mine is None:
                if key[0] != key[1]:
                    return False
                mine = 0.0
            if mine > bound:
                return False
        return True

    def join(self, other: "Octagon") -> "Octagon":
        if self.empty:
            return other
        if other.empty:
            return self
        a, b = self.constraints, other.constraints
        # the pointwise max is finite only where both bounds are; a
        # one-sided diagonal entry loses to the other side's implicit 0
        out = {}
        for key, av in a.items():
            bv = b.get(key)
            if bv is not None:
                out[key] = av if av > bv else bv
        # pointwise max of strongly closed DBMs is strongly closed
        closed = self.closed_flag and other.closed_flag
        if not out and closed:
            return Octagon.top(self.dim)
        return Octagon(self.dim, out, closed_flag=closed)

    def meet(self, other: "Octagon") -> "Octagon":
        if self.empty or other.empty:
            return Octagon.bottom(self.dim)
        out = dict(self.constraints)
        for key, bv in other.constraints.items():
            av = out.get(key)
            if av is None or not av < bv:
                out[key] = bv
        return Octagon(self.dim, out).closed()

    def widen(self, other: "Octagon") -> "Octagon":
        """Standard DBM widening: unstable entries go to +∞."""
        if self.empty:
            return other
        if other.empty:
            return self
        b = other.constraints
        out = {}
        for key, av in self.constraints.items():
            bv = b.get(key)
            if bv is not None and bv <= av and key[0] != key[1]:
                out[key] = av
        return Octagon(self.dim, out)

    def narrow(self, other: "Octagon") -> "Octagon":
        if self.empty or other.empty:
            return Octagon.bottom(self.dim)
        out = dict(self.constraints)
        for key, bv in other.constraints.items():
            if key not in out and key[0] != key[1]:
                out[key] = bv
        return Octagon(self.dim, out).closed()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Octagon):
            return NotImplemented
        if self.empty or other.empty:
            return self.empty == other.empty
        # == on floats treats -0.0 and 0.0 as equal, like the dense DBMs
        return self.dim == other.dim and self.constraints == other.constraints

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.dim, self.empty))

    def __repr__(self) -> str:
        if self.empty:
            return f"Octagon.bottom({self.dim})"
        return f"Octagon({self.dim}, {self.constraints!r}, closed_flag={self.closed_flag})"

    # -- constraint entry points ---------------------------------------------------------

    def with_upper(self, k: int, c: float) -> "Octagon":
        """Add ``x_k ≤ c``."""
        return self._with((2 * k + 1, 2 * k, 2 * c))

    def with_lower(self, k: int, c: float) -> "Octagon":
        """Add ``x_k ≥ c``."""
        return self._with((2 * k, 2 * k + 1, -2 * c))

    def with_diff(self, j: int, i: int, c: float) -> "Octagon":
        """Add ``x_j − x_i ≤ c``."""
        return self._with((2 * i, 2 * j, c), (2 * j + 1, 2 * i + 1, c))

    def with_sum_upper(self, i: int, j: int, c: float) -> "Octagon":
        """Add ``x_i + x_j ≤ c``."""
        return self._with((2 * i + 1, 2 * j, c), (2 * j + 1, 2 * i, c))

    def _with(self, *entries: tuple[int, int, float]) -> "Octagon":
        """Tighten the given entries (unclosed result)."""
        if self.empty:
            return self
        m = dict(self.constraints)
        for i, j, c in entries:
            cur = m.get((i, j))
            if cur is None:
                cur = 0.0 if i == j else INF
            if c < cur:
                m[i, j] = float(c)
        return Octagon(self.dim, m)

    # -- transfer functions -----------------------------------------------------------------

    def forget(self, k: int) -> "Octagon":
        """Drop every constraint mentioning ``x_k`` (havoc). Wiping a
        variable of a strongly closed system keeps it strongly closed."""
        if self.empty:
            return self
        base = self.closed()
        if base.empty:
            return base
        c = base.constraints
        out = _without_var(c, k)
        if len(out) == len(c):
            return base
        return Octagon._from_closure(self.dim, out)

    def assign_interval(self, k: int, itv: Interval) -> "Octagon":
        """``x_k := [l, u]`` — forget then bound, with the incremental
        closure (only ``x_k``'s constraints changed)."""
        if self.empty:
            return self
        if itv.is_bottom():
            return Octagon.bottom(self.dim)
        base = self.closed()
        if base.empty:
            return base
        m = _without_var(base.constraints, k)
        if itv.hi is not None:
            m[2 * k + 1, 2 * k] = 2.0 * itv.hi
        if itv.lo is not None:
            m[2 * k, 2 * k + 1] = -2.0 * itv.lo
        return Octagon._from_closure(self.dim, _close_touched(m, (k,)))

    def assign_var_plus(
        self, k: int, src: int, delta: Interval, negate: bool = False
    ) -> "Octagon":
        """``x_k := ±x_src + [l, u]`` — the exact octagonal assignment."""
        if self.empty:
            return self
        if delta.is_bottom():
            return Octagon.bottom(self.dim)
        lo = -INF if delta.lo is None else float(delta.lo)
        hi = INF if delta.hi is None else float(delta.hi)
        if k == src:
            return self._assign_self_shift(k, lo, hi, negate)
        out = self.forget(k)
        if out.empty:
            return out
        m = dict(out.constraints)
        pk, nk, ps, ns = 2 * k, 2 * k + 1, 2 * src, 2 * src + 1
        if not negate:
            # x_k − x_src ≤ hi ; x_src − x_k ≤ −lo
            if math.isfinite(hi):
                m[ps, pk] = hi
                m[nk, ns] = hi
            if math.isfinite(lo):
                m[pk, ps] = -lo
                m[ns, nk] = -lo
        else:
            # x_k + x_src ≤ hi ; −x_k − x_src ≤ −lo
            if math.isfinite(hi):
                m[ns, pk] = hi
                m[nk, ps] = hi
            if math.isfinite(lo):
                m[pk, ns] = -lo
                m[ps, nk] = -lo
        # the new x_k↔x_src edges compose with x_src's old bounds, so the
        # incremental closure must relax through both variables' indices
        return Octagon._from_closure(self.dim, _close_touched(m, (src, k)))

    def _assign_self_shift(
        self, k: int, lo: float, hi: float, negate: bool
    ) -> "Octagon":
        """``x_k := ±x_k + [lo, hi]`` without forgetting (translation)."""
        base = self.closed()
        if base.empty:
            return base
        pos, neg = 2 * k, 2 * k + 1
        m = {}
        for (i, j), v in base.constraints.items():
            if negate:  # swap the ±x_k rows and columns
                if i >> 1 == k:
                    i ^= 1
                if j >> 1 == k:
                    j ^= 1
            # x grows by δ ∈ [lo, hi]: bounds on v_j − (±x) and (±x) − v_i
            # shift by the matching end of δ
            if i >> 1 == k and j >> 1 == k:
                # unary pair: x ≤ u becomes x ≤ u + hi; −x ≤ −l becomes −x ≤ −l − lo
                v += 2 * hi if i == neg else -2 * lo
            elif i == pos or j == neg:
                v += -lo
            elif i == neg or j == pos:
                v += hi
            if v != INF:
                m[i, j] = v
        out = Octagon(self.dim, m)
        if math.isinf(hi) or math.isinf(lo):
            return out.forget(k)
        return out.closed()

    # -- tests (assume transfer) ----------------------------------------------------------------

    def _test_incremental(self, raw: "Octagon", touched: tuple[int, ...]) -> "Octagon":
        """Close a test result incrementally when the receiver was already
        strongly closed; fall back to the full closure otherwise."""
        if raw.empty:
            return raw
        if not self.closed_flag:
            return raw.closed()
        m = _off_diagonal(raw.constraints)
        if m is None:
            return Octagon.bottom(self.dim)
        return Octagon._from_closure(self.dim, _close_touched(m, touched))

    def test_upper(self, k: int, c: float) -> "Octagon":
        return self._test_incremental(self.with_upper(k, c), (k,))

    def test_lower(self, k: int, c: float) -> "Octagon":
        return self._test_incremental(self.with_lower(k, c), (k,))

    def test_diff_upper(self, j: int, i: int, c: float) -> "Octagon":
        """Assume ``x_j − x_i ≤ c``."""
        return self._test_incremental(self.with_diff(j, i, c), (i, j))

    def test_eq(self, k: int, c: float) -> "Octagon":
        return self._test_incremental(
            self.with_upper(k, c).with_lower(k, c), (k,)
        )

    def test_var_eq(self, j: int, i: int) -> "Octagon":
        """Assume ``x_j == x_i``."""
        return self._test_incremental(
            self.with_diff(j, i, 0).with_diff(i, j, 0), (i, j)
        )

    # -- projection ---------------------------------------------------------------------------------

    def project(self, k: int) -> Interval:
        """π_k: the interval of variable ``x_k`` (the paper's ``p_x``)."""
        if self.empty:
            return Interval.bottom()
        m = self.closed()
        if m.empty:
            return Interval.bottom()
        c = m.constraints
        upper = c.get((2 * k + 1, 2 * k))
        lower = c.get((2 * k, 2 * k + 1))
        hi = None if upper is None else math.floor(upper / 2)
        lo = None if lower is None else math.ceil(-lower / 2)
        return Interval.range(lo, hi)

    def __str__(self) -> str:
        if self.empty:
            return "⊥oct"
        parts = []
        for k in range(self.dim):
            parts.append(f"x{k}∈{self.project(k)}")
        return "Oct(" + ", ".join(parts) + ")"
