"""Dense reference octagon: Miné's algorithm on full numpy DBMs.

Test-only oracle for :mod:`repro.domains.octagon`. It runs every operation
on the whole ``2n×2n`` float64 matrix, so the constraint-map
implementation can be checked cell by cell (signed zeros included)
against it. It is deliberately the plain textbook algorithm: no support
restriction, no shortcuts.
"""

from __future__ import annotations

import numpy as np

from repro.domains.interval import Interval

INF = np.inf


def _tighten_and_strong(m: np.ndarray, n: int, swap: np.ndarray) -> None:
    """Integer tightening of the unary bounds (m[i, ī] is 2·bound(±x))
    followed by Miné's strong step, in place."""
    idx = np.arange(n)
    unary = m[idx, swap]
    finite = np.isfinite(unary)
    unary[finite] = 2 * np.floor(unary[finite] / 2)
    m[idx, swap] = unary
    # m[i,j] ← min(m[i,j], (m[i,ī] + m[j̄,j]) / 2); ∞/2 stays ∞.
    np.minimum(m, (unary[:, None] + unary[swap][None, :]) / 2, out=m)


def _strong_closure_rounds(m: np.ndarray, rounds: int) -> bool:
    """Floyd–Warshall relaxation + tightening + strong step until stable,
    in place. False when infeasible; on True the diagonal is reset to 0."""
    n = m.shape[0]
    swap = np.arange(n) ^ 1
    for _round in range(rounds):
        before = m.copy()
        for k in range(n):
            np.minimum(m, m[:, k : k + 1] + m[k : k + 1, :], out=m)
        _tighten_and_strong(m, n, swap)
        if np.any(np.diag(m) < 0):
            return False
        if np.array_equal(m, before):
            break
    np.fill_diagonal(m, 0.0)
    return True


def _close_touched(m: np.ndarray, touched: tuple[int, ...]) -> None:
    """Incremental strong closure when only ``touched`` variables'
    constraints were modified on a strongly-closed matrix."""
    n = m.shape[0]
    swap = np.arange(n) ^ 1
    for _pass in range(2 if len(touched) > 1 else 1):
        for var in touched:
            for k in (2 * var, 2 * var + 1):
                np.minimum(m, m[:, k : k + 1] + m[k : k + 1, :], out=m)
        _tighten_and_strong(m, n, swap)


class DenseOctagon:
    """The reference octagon. ``matrix`` is the DBM (None for ⊥)."""

    def __init__(self, dim, matrix=None, empty=False, closed_flag=False):
        self.dim = dim
        self.matrix = matrix
        self.empty = empty
        self.closed_flag = closed_flag

    @staticmethod
    def top(dim: int) -> "DenseOctagon":
        m = np.full((2 * dim, 2 * dim), INF)
        np.fill_diagonal(m, 0.0)
        return DenseOctagon(dim, m, closed_flag=True)

    @staticmethod
    def bottom(dim: int) -> "DenseOctagon":
        return DenseOctagon(dim, None, empty=True, closed_flag=True)

    def _finish(self, m: np.ndarray) -> "DenseOctagon":
        if np.any(np.diag(m) < 0):
            return DenseOctagon.bottom(self.dim)
        np.fill_diagonal(m, 0.0)
        return DenseOctagon(self.dim, m, closed_flag=True)

    # -- closure and lattice ----------------------------------------------------

    def closed(self) -> "DenseOctagon":
        if self.empty or self.closed_flag:
            return self
        m = self.matrix.copy()
        if not _strong_closure_rounds(m, 2 * self.dim + 2):
            return DenseOctagon.bottom(self.dim)
        return DenseOctagon(self.dim, m, closed_flag=True)

    def is_top(self) -> bool:
        if self.empty:
            return False
        return int(np.count_nonzero(np.isfinite(self.matrix))) == self.matrix.shape[0]

    def leq(self, other: "DenseOctagon") -> bool:
        if self.empty:
            return True
        if other.empty:
            return False
        return bool(np.all(self.matrix <= other.matrix))

    def join(self, other: "DenseOctagon") -> "DenseOctagon":
        if self.empty:
            return other
        if other.empty:
            return self
        return DenseOctagon(
            self.dim,
            np.maximum(self.matrix, other.matrix),
            closed_flag=self.closed_flag and other.closed_flag,
        )

    def meet(self, other: "DenseOctagon") -> "DenseOctagon":
        if self.empty or other.empty:
            return DenseOctagon.bottom(self.dim)
        return DenseOctagon(self.dim, np.minimum(self.matrix, other.matrix)).closed()

    def widen(self, other: "DenseOctagon") -> "DenseOctagon":
        if self.empty:
            return other
        if other.empty:
            return self
        out = np.where(other.matrix <= self.matrix, self.matrix, INF)
        np.fill_diagonal(out, 0.0)
        return DenseOctagon(self.dim, out)

    def narrow(self, other: "DenseOctagon") -> "DenseOctagon":
        if self.empty or other.empty:
            return DenseOctagon.bottom(self.dim)
        a = self.matrix
        return DenseOctagon(self.dim, np.where(np.isinf(a), other.matrix, a)).closed()

    # -- constraint entry points ------------------------------------------------

    def with_upper(self, k: int, c: float) -> "DenseOctagon":
        return self._with_entry(2 * k + 1, 2 * k, 2 * c)

    def with_lower(self, k: int, c: float) -> "DenseOctagon":
        return self._with_entry(2 * k, 2 * k + 1, -2 * c)

    def with_diff(self, j: int, i: int, c: float) -> "DenseOctagon":
        return self._with_entry(2 * i, 2 * j, c)._with_entry(2 * j + 1, 2 * i + 1, c)

    def with_sum_upper(self, i: int, j: int, c: float) -> "DenseOctagon":
        return self._with_entry(2 * i + 1, 2 * j, c)._with_entry(2 * j + 1, 2 * i, c)

    def _with_entry(self, i: int, j: int, c: float) -> "DenseOctagon":
        if self.empty:
            return self
        m = self.matrix.copy()
        if c < m[i, j]:
            m[i, j] = c
        return DenseOctagon(self.dim, m)

    # -- transfer functions -----------------------------------------------------

    def forget(self, k: int) -> "DenseOctagon":
        if self.empty:
            return self
        base = self.closed()
        if base.empty:
            return base
        out = base.matrix.copy()
        for idx in (2 * k, 2 * k + 1):
            out[idx, :] = INF
            out[:, idx] = INF
        np.fill_diagonal(out, 0.0)
        return DenseOctagon(self.dim, out, closed_flag=True)

    def assign_interval(self, k: int, itv: Interval) -> "DenseOctagon":
        if self.empty:
            return self
        if itv.is_bottom():
            return DenseOctagon.bottom(self.dim)
        base = self.forget(k)
        if base.empty:
            return base
        m = base.matrix.copy()
        if itv.hi is not None:
            m[2 * k + 1, 2 * k] = 2.0 * itv.hi
        if itv.lo is not None:
            m[2 * k, 2 * k + 1] = -2.0 * itv.lo
        _close_touched(m, (k,))
        return self._finish(m)

    def assign_var_plus(
        self, k: int, src: int, delta: Interval, negate: bool = False
    ) -> "DenseOctagon":
        if self.empty:
            return self
        if delta.is_bottom():
            return DenseOctagon.bottom(self.dim)
        lo = -INF if delta.lo is None else float(delta.lo)
        hi = INF if delta.hi is None else float(delta.hi)
        if k == src:
            return self._assign_self_shift(k, lo, hi, negate)
        out = self.forget(k)
        if out.empty:
            return out
        m = out.matrix.copy()
        if not negate:
            if np.isfinite(hi):
                m[2 * src, 2 * k] = hi
                m[2 * k + 1, 2 * src + 1] = hi
            if np.isfinite(lo):
                m[2 * k, 2 * src] = -lo
                m[2 * src + 1, 2 * k + 1] = -lo
        else:
            if np.isfinite(hi):
                m[2 * src + 1, 2 * k] = hi
                m[2 * k + 1, 2 * src] = hi
            if np.isfinite(lo):
                m[2 * k, 2 * src + 1] = -lo
                m[2 * src, 2 * k + 1] = -lo
        _close_touched(m, (src, k))
        return self._finish(m)

    def _assign_self_shift(
        self, k: int, lo: float, hi: float, negate: bool
    ) -> "DenseOctagon":
        base = self.closed()
        if base.empty:
            return base
        m = base.matrix.copy()
        pos, neg = 2 * k, 2 * k + 1
        if negate:
            m[[pos, neg], :] = m[[neg, pos], :]
            m[:, [pos, neg]] = m[:, [neg, pos]]
        for idx in (pos, neg):
            for j in range(m.shape[0]):
                if j in (pos, neg):
                    continue
                if np.isfinite(m[idx, j]):
                    m[idx, j] += -lo if idx == pos else hi
                if np.isfinite(m[j, idx]):
                    m[j, idx] += hi if idx == pos else -lo
        if np.isfinite(m[neg, pos]):
            m[neg, pos] += 2 * hi
        if np.isfinite(m[pos, neg]):
            m[pos, neg] += -2 * lo
        out = DenseOctagon(self.dim, m)
        if np.isinf(hi) or np.isinf(lo):
            return out.forget(k)
        return out.closed()

    # -- tests ------------------------------------------------------------------

    def _test_incremental(self, raw, touched) -> "DenseOctagon":
        if raw.empty:
            return raw
        if not self.closed_flag:
            return raw.closed()
        m = raw.matrix.copy()
        _close_touched(m, touched)
        return self._finish(m)

    def test_upper(self, k: int, c: float) -> "DenseOctagon":
        return self._test_incremental(self.with_upper(k, c), (k,))

    def test_lower(self, k: int, c: float) -> "DenseOctagon":
        return self._test_incremental(self.with_lower(k, c), (k,))

    def test_diff_upper(self, j: int, i: int, c: float) -> "DenseOctagon":
        return self._test_incremental(self.with_diff(j, i, c), (i, j))

    def test_eq(self, k: int, c: float) -> "DenseOctagon":
        return self._test_incremental(self.with_upper(k, c).with_lower(k, c), (k,))

    def test_var_eq(self, j: int, i: int) -> "DenseOctagon":
        return self._test_incremental(
            self.with_diff(j, i, 0).with_diff(i, j, 0), (i, j)
        )

    def project(self, k: int) -> Interval:
        if self.empty:
            return Interval.bottom()
        m = self.closed()
        if m.empty:
            return Interval.bottom()
        hi_raw = m.matrix[2 * k + 1, 2 * k] / 2
        lo_raw = -m.matrix[2 * k, 2 * k + 1] / 2
        hi = None if np.isinf(hi_raw) else int(np.floor(hi_raw))
        lo = None if np.isinf(lo_raw) else int(np.ceil(lo_raw))
        return Interval.range(lo, hi)
