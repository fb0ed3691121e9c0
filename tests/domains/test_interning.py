"""Hash-consing and memoized join/widen on the value layer."""

import pytest

from repro.domains.interval import Interval
from repro.domains.value import (
    AbsValue,
    cache_stats,
    clear_intern_tables,
    intern_value,
    interning_enabled,
    set_interning,
)


@pytest.fixture(autouse=True)
def fresh_tables():
    """Each test starts with cold tables and leaves interning enabled."""
    set_interning(True)
    yield
    set_interning(True)


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


def test_disable_clears_and_stops_consing():
    a = intern_value(AbsValue.of_interval(Interval(1, 2)))
    set_interning(False)
    assert not interning_enabled()
    b = intern_value(AbsValue.of_interval(Interval(1, 2)))
    c = intern_value(AbsValue.of_interval(Interval(1, 2)))
    assert b is not c, "disabled interning must be a no-op"
    # joins still compute the correct value without touching the memo
    h0, m0 = cache_stats()
    assert b.join(a).itv == Interval(1, 2)
    assert cache_stats() == (h0, m0)
    set_interning(True)
    assert interning_enabled()


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


def test_results_identical_with_and_without_interning():
    """End-to-end ablation: interning is invisible in the computed tables."""
    from repro.api import analyze

    source = """
    int g;
    int f(int x) {
      int i = 0;
      while (i < x) { g = g + 2; i = i + 1; }
      return g;
    }
    int main() { return f(7); }
    """
    set_interning(True)
    with_tables = analyze(source, mode="sparse").result.table
    set_interning(False)
    without_tables = analyze(source, mode="sparse").result.table
    set_interning(True)
    assert set(with_tables) == set(without_tables)
    for nid in with_tables:
        assert with_tables[nid] == without_tables[nid]
