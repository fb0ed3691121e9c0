"""Property-based store laws: :class:`AbsState` must behave exactly like a
plain ``dict`` of :class:`AbsValue` with ⊥ entries left out.

Every lattice operation, changed-set extraction, restriction and codec
round-trip is checked on randomized states covering ⊥ entries, ±∞ and
bounds beyond int64, pointer payloads and array blocks, against the
pointwise definition on the dict model. Every operation must also keep the
store's invariant: each stored value is non-⊥ and the interned instance,
which the identity fast paths and ``delta_items`` rely on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains.absloc import AllocLoc, FieldLoc, RetLoc, VarLoc
from repro.domains.interval import Interval
from repro.domains.state import AbsState
from repro.domains.value import BOT, AbsValue, ArrayBlock, intern_value
from repro.runtime.checkpoint import state_from_wire, state_to_wire

# -- strategies ---------------------------------------------------------------

_LOCS = (
    [VarLoc(f"v{i}", "f") for i in range(12)]
    + [VarLoc(f"g{i}") for i in range(4)]
    + [AllocLoc(f"s{i}") for i in range(3)]
    + [FieldLoc(AllocLoc("s0"), "fld"), RetLoc("f")]
)

_BIG = 1 << 70  # beyond int64: interval arithmetic can overshoot it

bounds = st.one_of(
    st.none(),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([-_BIG, _BIG, (1 << 62), -(1 << 62), (1 << 62) - 1]),
)


@st.composite
def intervals(draw):
    lo = draw(bounds)
    hi = draw(bounds)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


@st.composite
def values(draw):
    kind = draw(st.integers(min_value=0, max_value=9))
    if kind == 0:
        return AbsValue()  # ⊥
    if kind == 1:
        return AbsValue.of_interval(Interval.top())
    if kind <= 6:
        return AbsValue.of_interval(draw(intervals()))
    if kind <= 8:
        pts = frozenset(
            draw(st.lists(st.sampled_from(_LOCS[:6]), max_size=2, unique=True))
        )
        return AbsValue(itv=draw(intervals()), ptsto=pts)
    base = draw(st.sampled_from(_LOCS[16:19]))  # the AllocLocs
    block = ArrayBlock(base, draw(intervals()), draw(intervals()))
    return AbsValue(itv=draw(intervals()), arrays=(block,))


@st.composite
def loc_maps(draw):
    locs = draw(st.lists(st.sampled_from(_LOCS), max_size=8, unique=True))
    return {loc: draw(values()) for loc in locs}


loc_sets = st.sets(st.sampled_from(_LOCS), max_size=10)
thresholds = st.one_of(
    st.none(),
    st.builds(
        tuple,
        st.lists(
            st.integers(min_value=-64, max_value=64), max_size=4, unique=True
        ).map(sorted),
    ),
)

# -- the dict model -----------------------------------------------------------


def _model(mapping):
    """The dict a state built from ``mapping`` denotes: ⊥ entries left out."""
    return {loc: v for loc, v in mapping.items() if not v.is_bottom()}


def _merge_model(a, b, widen=False, thr=None, locs=None):
    """Pointwise join (or widening, ``⊥ ∇ v = v``) of ``b`` into ``a`` over
    ``locs`` (default: all of ``b``); returns the result and the locations
    whose value changed."""
    out = dict(a)
    changed = set()
    for loc in b if locs is None else locs:
        value = b.get(loc, BOT)
        if value.is_bottom():
            continue
        old = a.get(loc)
        if old is None:
            new = value
        else:
            new = old.widen(value, thr) if widen else old.join(value)
        if new != old:
            out[loc] = new
            changed.add(loc)
    return out, changed


def _assert_model(state, model):
    """``state`` denotes ``model`` and keeps the store's invariant."""
    table = dict(state.items())
    assert table == model
    assert len(state) == len(model)
    assert state.is_bottom() == (not model)
    assert state.locations() == set(model)
    assert state == AbsState(model)
    for value in table.values():
        assert not value.is_bottom()
        assert intern_value(value) is value


# -- structure ----------------------------------------------------------------


@given(loc_maps())
def test_construction_items_len_contains(mapping):
    state = AbsState(mapping)
    model = _model(mapping)
    _assert_model(state, model)
    for loc in _LOCS:
        assert (loc in state) == (loc in model)
        assert state.get(loc) == model.get(loc, BOT)


@given(loc_maps())
def test_copy_is_independent(mapping):
    state = AbsState(mapping)
    dup = state.copy()
    _assert_model(dup, _model(mapping))
    dup.set(VarLoc("fresh", "f"), AbsValue.of_interval(Interval(1, 2)))
    assert VarLoc("fresh", "f") not in state


@given(loc_maps(), loc_sets)
def test_restrict_remove_match(mapping, locs):
    state = AbsState(mapping)
    model = _model(mapping)
    kept = {l: v for l, v in model.items() if l in locs}
    dropped = {l: v for l, v in model.items() if l not in locs}
    _assert_model(state.restrict(locs), kept)
    _assert_model(state.remove(locs), dropped)
    _assert_model(state.restrict(frozenset(locs)), kept)
    _assert_model(state.remove(iter(locs)), dropped)
    _assert_model(state, model)  # restriction builds new states


@given(loc_maps())
def test_strong_update_and_bottom_removal(mapping):
    state = AbsState(mapping)
    model = _model(mapping)
    v = AbsValue.of_interval(Interval(-3, 3))
    state.set(VarLoc("v0", "f"), v)
    state.set(VarLoc("v1", "f"), AbsValue())  # ⊥ deletes
    model[VarLoc("v0", "f")] = v
    model.pop(VarLoc("v1", "f"), None)
    _assert_model(state, model)


# -- lattice ------------------------------------------------------------------


@given(loc_maps(), loc_maps())
def test_leq_matches(a, b):
    ma, mb = _model(a), _model(b)
    expected = all(v.leq(mb.get(loc, BOT)) for loc, v in ma.items())
    assert AbsState(a).leq(AbsState(b)) == expected
    state = AbsState(a)
    assert state.leq(state) and state.leq(state.copy())


@given(loc_maps(), loc_maps())
def test_join_with_matches(a, b):
    model, changed = _merge_model(_model(a), _model(b))
    state = AbsState(a)
    assert state.join_with(AbsState(b)) == bool(changed)
    _assert_model(state, model)
    _assert_model(AbsState(a).join(AbsState(b)), model)
    assert not state.join_with(AbsState(b))  # idempotent


@given(loc_maps(), loc_maps(), thresholds)
def test_widen_with_matches(a, b, thr):
    model, changed = _merge_model(_model(a), _model(b), widen=True, thr=thr)
    state = AbsState(a)
    assert state.widen_with(AbsState(b), thr) == bool(changed)
    _assert_model(state, model)


@given(loc_maps(), loc_maps())
def test_join_changed_matches(a, b):
    model, changed = _merge_model(_model(a), _model(b))
    state = AbsState(a)
    assert state.join_changed(AbsState(b)) == changed
    _assert_model(state, model)


@given(loc_maps(), loc_maps(), thresholds)
def test_widen_changed_matches(a, b, thr):
    model, changed = _merge_model(_model(a), _model(b), widen=True, thr=thr)
    state = AbsState(a)
    assert state.widen_changed(AbsState(b), thr) == changed
    _assert_model(state, model)


@given(loc_maps(), loc_maps(), loc_sets)
def test_join_entries_from_matches(a, b, locs):
    """The sparse push: joins ``b`` into ``a`` at ``locs`` only, and its
    ``grew`` flag is True exactly when some value changed."""
    model, changed = _merge_model(_model(a), _model(b), locs=locs)
    state = AbsState(a)
    assert state.join_entries_from(AbsState(b), locs) == bool(changed)
    _assert_model(state, model)
    assert not state.join_entries_from(AbsState(b), locs)


@given(loc_maps(), loc_maps())
def test_delta_items_matches(a, b):
    """Against a derived copy (the pre-analysis's usage pattern), the
    identity diff is exactly the set of changed entries: stored values are
    interned, so equal values are the same object."""
    base = AbsState(a)
    derived = base.copy()
    changed = derived.join_changed(AbsState(b))
    assert dict(derived.delta_items(base)) == {
        loc: derived.get(loc) for loc in changed
    }
    assert dict(base.delta_items(base.copy())) == {}


@given(loc_maps(), loc_maps())
def test_weak_set_and_update_locs_match(a, b):
    state = AbsState(a)
    model = _model(a)
    for loc, value in b.items():
        state.weak_set(loc, value)
        model, _ = _merge_model(model, _model({loc: value}))
    _assert_model(state, model)
    locs = list(b)[:2]
    v = AbsValue.of_interval(Interval(0, 1))
    state.update_locs(locs, v)
    if len(locs) == 1 and not locs[0].is_summary():
        model[locs[0]] = v  # strong update
    else:
        model, _ = _merge_model(model, {loc: v for loc in locs})
    _assert_model(state, model)


# -- codec round-trip ---------------------------------------------------------


@given(loc_maps())
def test_wire_round_trip(mapping):
    state = AbsState(mapping)
    wire = state_to_wire(state)
    decoded = state_from_wire(wire)
    _assert_model(decoded, _model(mapping))
    assert state_to_wire(decoded) == wire


@settings(max_examples=25)
@given(loc_maps(), loc_maps())
def test_analysis_shaped_sequence(a, b):
    """A join→widen→join sequence (the call pattern the fixpoint engine
    produces) follows the model step by step."""
    mb = _model(b)
    model, _ = _merge_model(_model(a), mb)
    model, _ = _merge_model(model, mb, widen=True, thr=(0, 16))
    state = AbsState(a)
    state.join_changed(AbsState(b))
    state.widen_changed(AbsState(b), (0, 16))
    _assert_model(state, model)
    out = state.join(AbsState(b))
    _assert_model(out, _merge_model(model, mb)[0])
