"""Absorption: joining or widening in a smaller value changes nothing.

For every ``v ⊑ x`` the lattice must return ``x`` itself (structurally):
``x.join(v) == x`` and ``x.widen(v) == x``. The semi-naïve pre-analysis
skips a node whose reads did not change because everything it would write
is already ⊑ the global state; this property is what makes that skip leave
the state byte-identical. Values are drawn in the domain's normal form
(array blocks sorted by base, one per base — what ``join``/``widen`` and
every transfer build), covering intervals with infinite bounds, points-to
sets and array blocks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains.absloc import AllocLoc, FieldLoc, FuncLoc, RetLoc, VarLoc
from repro.domains.interval import BOT as ITV_BOT
from repro.domains.interval import Interval
from repro.domains.value import AbsValue, ArrayBlock

_LOCS = (
    [VarLoc(f"v{i}", "f") for i in range(4)]
    + [VarLoc(f"g{i}") for i in range(3)]
    + [AllocLoc(f"s{i}") for i in range(2)]
    + [FieldLoc(AllocLoc("s0"), "fld"), RetLoc("f"), FuncLoc("f")]
)
_BASES = [AllocLoc(f"s{i}") for i in range(3)] + [VarLoc("buf"), VarLoc("a", "f")]

bounds = st.one_of(st.none(), st.integers(min_value=-50, max_value=50))


@st.composite
def intervals(draw):
    """Bottom, or ``[lo, hi]`` with ``None`` for an infinite bound."""
    if draw(st.integers(0, 9)) == 0:
        return ITV_BOT
    lo, hi = draw(bounds), draw(bounds)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


@st.composite
def sub_intervals(draw, itv):
    """An interval ⊑ ``itv``: bottom, or bounds pulled inwards."""
    if itv.is_bottom() or draw(st.integers(0, 7)) == 0:
        return ITV_BOT
    lo, hi = itv.lo, itv.hi
    if draw(st.booleans()):
        lo = draw(st.integers(-60, 60)) if lo is None else lo + draw(st.integers(0, 5))
    if draw(st.booleans()):
        hi = draw(st.integers(-60, 60)) if hi is None else hi - draw(st.integers(0, 5))
    return Interval.range(lo, hi)


@st.composite
def values(draw):
    bases = draw(st.lists(st.sampled_from(_BASES), unique=True, max_size=3))
    blocks = tuple(
        sorted(
            (ArrayBlock(b, draw(intervals()), draw(intervals())) for b in bases),
            key=lambda blk: blk.base.sort_key(),
        )
    )
    return AbsValue(
        itv=draw(intervals()),
        ptsto=frozenset(draw(st.lists(st.sampled_from(_LOCS), max_size=4))),
        arrays=blocks,
    )


@st.composite
def smaller(draw, x):
    """A value ⊑ ``x``: each component shrunk independently."""
    pts = sorted(x.ptsto, key=repr)
    blocks = tuple(
        ArrayBlock(
            blk.base,
            draw(sub_intervals(blk.offset)),
            draw(sub_intervals(blk.size)),
        )
        for blk in x.arrays
        if draw(st.booleans())
    )
    return AbsValue(
        itv=draw(sub_intervals(x.itv)),
        ptsto=frozenset(p for p in pts if draw(st.booleans())),
        arrays=blocks,
    )


@st.composite
def ordered_pairs(draw):
    """``(x, v)`` with ``v ⊑ x``: shrink a drawn ``x``, or take an operand
    of a join/widen as ``v`` and the result as ``x``."""
    how = draw(st.sampled_from(["shrink", "join", "widen"]))
    if how == "shrink":
        x = draw(values())
        v = draw(smaller(x))
    else:
        v, w = draw(values()), draw(values())
        x = v.join(w) if how == "join" else w.widen(v)
    assert v.leq(x)
    return x, v


@settings(max_examples=400, deadline=None)
@given(ordered_pairs())
def test_join_absorbs_smaller_value(pair):
    x, v = pair
    assert x.join(v) == x


@settings(max_examples=400, deadline=None)
@given(ordered_pairs())
def test_widen_absorbs_smaller_value(pair):
    x, v = pair
    assert x.widen(v) == x


@settings(max_examples=200, deadline=None)
@given(values())
def test_equal_but_distinct_value_is_absorbed(x):
    """Round inputs rebuild values (array-store rows, uninterned copies):
    a structurally equal operand that is not the same object must still
    leave ``x`` unchanged."""
    twin = AbsValue(itv=x.itv, ptsto=frozenset(x.ptsto), arrays=tuple(x.arrays))
    assert x.join(twin) == x
    assert x.widen(twin) == x
