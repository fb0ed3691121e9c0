"""Hash-consing and memoized join/widen on the value layer."""

import pytest

from repro.domains.interval import Interval
from repro.domains.value import (
    AbsValue,
    cache_stats,
    clear_intern_tables,
    intern_value,
)


@pytest.fixture(autouse=True)
def fresh_tables():
    """Each test starts with cold tables."""
    clear_intern_tables()


def test_intern_returns_canonical_instance():
    a = AbsValue.of_interval(Interval(1, 5))
    b = AbsValue.of_interval(Interval(1, 5))
    assert a is not b and a == b
    ia, ib = intern_value(a), intern_value(b)
    assert ia is ib


def test_intern_shares_components_across_values():
    itv = Interval(0, 9)
    pts = frozenset({("x",)})
    a = intern_value(AbsValue(itv=Interval(0, 9), ptsto=frozenset({("x",)})))
    b = intern_value(
        AbsValue(itv=Interval(0, 9).join(Interval(3, 4)), ptsto=frozenset({("x",)}))
    )
    # equal sub-structure is shared even between distinct values
    assert a.itv is b.itv
    assert a.ptsto is b.ptsto
    assert itv == a.itv and pts == a.ptsto


def test_join_is_memoized_by_identity():
    a = intern_value(AbsValue.of_interval(Interval(0, 3)))
    b = intern_value(AbsValue.of_interval(Interval(2, 8)))
    h0, m0 = cache_stats()
    r1 = a.join(b)
    r2 = a.join(b)
    h1, m1 = cache_stats()
    assert r1 is r2
    assert h1 - h0 >= 1, "second join must hit the memo"
    assert r1.itv == Interval(0, 8)


def test_widen_memo_keyed_by_thresholds():
    a = intern_value(AbsValue.of_interval(Interval(0, 3)))
    b = intern_value(AbsValue.of_interval(Interval(0, 10)))
    plain = a.widen(b)
    thresh = a.widen(b, (16,))
    assert plain.itv.hi != thresh.itv.hi, "thresholds must not share entries"
    assert a.widen(b) is plain
    assert a.widen(b, (16,)) is thresh


def test_equality_fast_path_identity():
    v = intern_value(AbsValue.of_interval(Interval(5, 5)))
    assert v == v
    assert v.leq(v)
    assert v.join(v) is v
    assert v.widen(v) is v


def test_overflow_clears_table_keeps_semantics():
    import repro.domains.value as V

    old_limit = V._INTERN_LIMIT
    V._INTERN_LIMIT = 8
    try:
        clear_intern_tables()
        values = [
            intern_value(AbsValue.of_interval(Interval(i, i + 1)))
            for i in range(32)
        ]
        # table stayed bounded, all values remain structurally correct
        assert len(V._interned) <= 8
        for i, v in enumerate(values):
            assert v.itv == Interval(i, i + 1)
    finally:
        V._INTERN_LIMIT = old_limit
        clear_intern_tables()


def test_overflow_clears_memo_caches_with_tables():
    """When the intern tables overflow mid-run, the join/widen memos (which
    key by object identity and hold canonical instances) must be dropped
    too — otherwise they keep serving values the table no longer vouches
    for, and later ``is``-based fast paths compare against stale objects."""
    import repro.domains.value as V

    old_limit = V._INTERN_LIMIT
    V._INTERN_LIMIT = 8
    try:
        clear_intern_tables()
        a = intern_value(AbsValue.of_interval(Interval(0, 3)))
        b = intern_value(AbsValue.of_interval(Interval(2, 8)))
        a.join(b)
        a.widen(b)
        assert V._join_memo and V._widen_memo
        # overflow the value table: every clear must take the memos with it
        for i in range(32):
            intern_value(AbsValue.of_interval(Interval(i, i + 100)))
        assert not V._join_memo, "join memo survived an intern-table clear"
        assert not V._widen_memo, "widen memo survived an intern-table clear"
        # semantics unharmed: joins after the clear are still correct
        assert a.join(b).itv == Interval(0, 8)
    finally:
        V._INTERN_LIMIT = old_limit
        clear_intern_tables()
