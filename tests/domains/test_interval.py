"""Interval domain: unit tests + hypothesis lattice/soundness properties."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains.interval import BOOL, BOT, ONE, TOP, ZERO, Interval


def itv(lo, hi):
    return Interval.range(lo, hi)


bounded = st.integers(min_value=-50, max_value=50)


@st.composite
def intervals(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return BOT
    if kind == 1:
        return TOP
    lo = draw(st.one_of(st.none(), bounded))
    hi = draw(st.one_of(st.none(), bounded))
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return Interval.range(lo, hi)


def members(iv: Interval, lo=-60, hi=60):
    return [n for n in range(lo, hi + 1) if iv.contains(n)]


class TestLatticeBasics:
    def test_bottom_leq_everything(self):
        assert BOT.leq(itv(3, 5))
        assert BOT.leq(BOT)

    def test_top_contains_everything(self):
        assert itv(-1000, 1000).leq(TOP)

    def test_const(self):
        c = Interval.const(7)
        assert c.is_const() and c.contains(7) and not c.contains(8)

    def test_range_empty_when_inverted(self):
        assert Interval.range(5, 3).is_bottom()

    def test_join(self):
        assert itv(0, 3).join(itv(5, 9)) == itv(0, 9)

    def test_meet(self):
        assert itv(0, 5).meet(itv(3, 9)) == itv(3, 5)

    def test_meet_disjoint_is_bottom(self):
        assert itv(0, 2).meet(itv(5, 9)).is_bottom()

    def test_widen_blows_unstable_bounds(self):
        assert itv(0, 3).widen(itv(0, 4)) == itv(0, None)
        assert itv(0, 3).widen(itv(-1, 3)) == itv(None, 3)

    def test_widen_keeps_stable_bounds(self):
        assert itv(0, 5).widen(itv(1, 4)) == itv(0, 5)

    def test_narrow_refines_infinite_bounds_only(self):
        assert itv(0, None).narrow(itv(0, 10)) == itv(0, 10)
        assert itv(0, 20).narrow(itv(0, 10)) == itv(0, 20)


class TestArithmeticUnits:
    def test_add(self):
        assert itv(1, 2).add(itv(10, 20)) == itv(11, 22)

    def test_add_unbounded(self):
        assert itv(1, None).add(itv(1, 1)) == itv(2, None)

    def test_neg(self):
        assert itv(2, 5).neg() == itv(-5, -2)
        assert itv(None, 3).neg() == itv(-3, None)

    def test_sub(self):
        assert itv(10, 12).sub(itv(1, 2)) == itv(8, 11)

    def test_mul_signs(self):
        assert itv(-2, 3).mul(itv(-5, 4)) == itv(-15, 12)

    def test_mul_by_zero(self):
        assert TOP.mul(ZERO) == ZERO

    def test_div_positive(self):
        assert itv(10, 20).div(itv(2, 5)) == itv(2, 10)

    def test_div_by_exactly_zero_is_bottom(self):
        assert itv(1, 5).div(ZERO).is_bottom()

    def test_div_straddling_zero_splits(self):
        result = itv(10, 10).div(itv(-2, 2))
        assert result.contains(5) and result.contains(-5)

    def test_mod_non_negative_small(self):
        assert itv(0, 4).mod(itv(5, 5)) == itv(0, 4)  # unchanged: x < m

    def test_mod_bounded_by_divisor(self):
        result = itv(0, 100).mod(itv(7, 7))
        assert result.leq(itv(0, 6))

    def test_shift_left_constant(self):
        assert itv(1, 3).shl(Interval.const(2)) == itv(4, 12)

    def test_bitand_nonneg_bounded(self):
        result = itv(0, 12).bitand(itv(0, 10))
        assert result.leq(itv(0, 10))

    def test_lnot(self):
        assert ZERO.lnot() == ONE
        assert itv(3, 9).lnot() == ZERO
        assert itv(0, 5).lnot() == BOOL

    def test_bnot(self):
        assert Interval.const(0).bnot() == Interval.const(-1)


class TestComparisons:
    def test_definitely_less(self):
        assert itv(0, 3).cmp("<", itv(5, 9)) == ONE

    def test_definitely_not_less(self):
        assert itv(5, 9).cmp("<", itv(0, 3)) == ZERO

    def test_uncertain(self):
        assert itv(0, 9).cmp("<", itv(5, 6)) == BOOL

    def test_eq_consts(self):
        assert Interval.const(4).cmp("==", Interval.const(4)) == ONE
        assert Interval.const(4).cmp("==", Interval.const(5)) == ZERO

    def test_neq_disjoint(self):
        assert itv(0, 1).cmp("!=", itv(5, 6)) == ONE

    @settings(max_examples=300, deadline=None)
    @given(intervals(), intervals())
    def test_per_operator_functions_match_the_relation_table(self, a, b):
        """``cmp`` looks one function up per operator; each must answer
        as the table of always/never relations it replaced."""
        if a.is_bottom() or b.is_bottom():
            assert all(a.cmp(op, b) is BOT for op in ("<", ">", "<=", ">=", "==", "!="))
            return
        lt = a.hi is not None and b.lo is not None and a.hi < b.lo
        gt = b.hi is not None and a.lo is not None and b.hi < a.lo
        le = a.hi is not None and b.lo is not None and a.hi <= b.lo
        ge = b.hi is not None and a.lo is not None and b.hi <= a.lo
        eq = a.is_const() and b.is_const() and a.lo == b.lo
        disjoint = a.meet(b).is_bottom()
        table = {
            "<": (lt, ge),
            ">": (gt, le),
            "<=": (le, gt),
            ">=": (ge, lt),
            "==": (eq, disjoint),
            "!=": (disjoint, eq),
        }
        for op, (always, never) in table.items():
            assert a.cmp(op, b) is (ONE if always else ZERO if never else BOOL)


class TestFilters:
    def test_filter_lt(self):
        assert itv(0, 20).filter("<", Interval.const(10)) == itv(0, 9)

    def test_filter_ge(self):
        assert itv(0, 20).filter(">=", Interval.const(10)) == itv(10, 20)

    def test_filter_eq(self):
        assert itv(0, 20).filter("==", Interval.const(7)) == itv(7, 7)

    def test_filter_neq_shaves_endpoint(self):
        assert itv(0, 10).filter("!=", Interval.const(10)) == itv(0, 9)
        assert itv(0, 10).filter("!=", Interval.const(0)) == itv(1, 10)

    def test_filter_neq_interior_no_change(self):
        assert itv(0, 10).filter("!=", Interval.const(5)) == itv(0, 10)

    def test_filter_contradiction_is_bottom(self):
        assert Interval.const(5).filter("!=", Interval.const(5)).is_bottom()
        assert itv(0, 3).filter(">", Interval.const(9)).is_bottom()


# --------------------------------------------------------------------------
# hypothesis properties
# --------------------------------------------------------------------------


class TestLatticeLaws:
    @given(intervals(), intervals())
    def test_join_upper_bound(self, a, b):
        j = a.join(b)
        assert a.leq(j) and b.leq(j)

    @given(intervals(), intervals())
    def test_join_commutative(self, a, b):
        assert a.join(b) == b.join(a)

    @given(intervals(), intervals(), intervals())
    def test_join_associative(self, a, b, c):
        assert a.join(b).join(c) == a.join(b.join(c))

    @given(intervals())
    def test_join_idempotent(self, a):
        assert a.join(a) == a

    @given(intervals(), intervals())
    def test_meet_lower_bound(self, a, b):
        m = a.meet(b)
        assert m.leq(a) and m.leq(b)

    @given(intervals(), intervals())
    def test_widen_is_upper_bound(self, a, b):
        w = a.widen(b)
        assert a.leq(w) and b.leq(w)

    @given(intervals(), intervals())
    def test_leq_antisymmetric(self, a, b):
        if a.leq(b) and b.leq(a):
            assert a == b

    @given(intervals())
    def test_widening_chain_terminates(self, a):
        """Any chain x, x▽f(x), ... stabilizes quickly for intervals."""
        current = a
        for step in range(8):
            grown = current.add(Interval.const(1)).join(current)
            nxt = current.widen(grown)
            if nxt == current:
                break
            current = nxt
        else:
            pytest.fail("widening chain did not stabilize")


class TestArithmeticSoundness:
    """Abstract ops over-approximate the concrete ones on all members."""

    @given(intervals(), intervals())
    @settings(max_examples=60)
    def test_add_sound(self, a, b):
        for x in members(a)[:7]:
            for y in members(b)[:7]:
                assert a.add(b).contains(x + y)

    @given(intervals(), intervals())
    @settings(max_examples=60)
    def test_mul_sound(self, a, b):
        for x in members(a)[:7]:
            for y in members(b)[:7]:
                assert a.mul(b).contains(x * y)

    @given(intervals(), intervals())
    @settings(max_examples=60)
    def test_div_sound(self, a, b):
        quotient = a.div(b)
        for x in members(a)[:7]:
            for y in members(b)[:7]:
                if y == 0:
                    continue
                q = abs(x) // abs(y)
                q = q if (x >= 0) == (y >= 0) else -q
                assert quotient.contains(q), (a, b, x, y, q, quotient)

    @given(intervals(), intervals())
    @settings(max_examples=60)
    def test_mod_sound(self, a, b):
        result = a.mod(b)
        for x in members(a)[:7]:
            for y in members(b)[:7]:
                if y == 0:
                    continue
                q = abs(x) // abs(y)
                q = q if (x >= 0) == (y >= 0) else -q
                assert result.contains(x - q * y), (a, b, x, y)

    @given(intervals(), intervals(), st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    @settings(max_examples=80)
    def test_cmp_sound(self, a, b, op):
        verdict = a.cmp(op, b)
        import operator

        fn = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "==": operator.eq, "!=": operator.ne}[op]
        for x in members(a)[:6]:
            for y in members(b)[:6]:
                assert verdict.contains(int(fn(x, y)))

    @given(intervals(), intervals(), st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    @settings(max_examples=80)
    def test_filter_sound(self, a, b, op):
        """filter keeps every member that can satisfy the comparison."""
        refined = a.filter(op, b)
        import operator

        fn = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "==": operator.eq, "!=": operator.ne}[op]
        for x in members(a)[:8]:
            if any(fn(x, y) for y in members(b)[:8]):
                assert refined.contains(x), (a, b, op, x, refined)

    @given(intervals(), intervals())
    @settings(max_examples=60)
    def test_filter_refines(self, a, b):
        assert a.filter("<", b).leq(a)


class TestCanonicalIntervals:
    """The constructor hands back the one interval in its bounded unique
    table; equality, hash, repr, pickling and immutability are those of
    the frozen dataclass it replaced."""

    def test_constructors_return_canonical_instances(self):
        assert Interval(1, 5) is Interval(1, 5) is Interval(lo=1, hi=5)
        assert Interval.const(0) is ZERO and Interval.range(0, 1) is BOOL
        assert Interval(empty=True) is BOT and Interval() is TOP
        assert itv(0, 3).join(itv(2, 8)) is Interval(0, 8)

    def test_equality_hash_and_repr_are_structural(self):
        a = Interval(-3, None)
        assert hash(a) == hash((-3, None, False))
        assert hash(BOT) == hash((None, None, True))
        assert repr(a) == "Interval(lo=-3, hi=None, empty=False)"
        assert a == Interval(-3, None) and a != Interval(-3, 4) and a != BOT
        assert (a == (-3, None, False)) is False

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_copy_give_back_the_same_object(self, protocol):
        for obj in (BOT, TOP, ZERO, Interval(-7, 9), Interval(None, 4)):
            assert pickle.loads(pickle.dumps(obj, protocol)) is obj
            assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj

    def test_fields_are_immutable(self):
        with pytest.raises(FrozenInstanceError):
            ONE.lo = 2
        with pytest.raises(FrozenInstanceError):
            del ONE.hi
        assert ONE == Interval(1, 1)

    def test_full_table_clears_and_equality_stays_structural(self):
        import repro.domains.interval as I

        old_limit = I._UNIQUE_LIMIT
        I._UNIQUE_LIMIT = len(I._PINNED) + 8
        try:
            early = Interval(1000, 2000)
            for i in range(64):
                Interval(i, i + 1)
            assert len(I._UNIQUE) <= I._UNIQUE_LIMIT
            late = Interval(1000, 2000)
            # the clear dropped ``early``: a new, equal object replaces it
            assert late is not early
            assert late == early and hash(late) == hash(early)
            # the module constants survive every clear
            assert Interval(0, 1) is BOOL and Interval(empty=True) is BOT
        finally:
            I._UNIQUE_LIMIT = old_limit
