"""Constraint-map octagons against the dense Miné oracle.

:class:`~repro.domains.octagon.Octagon` stores only finite DBM entries.
Every public operation must give exactly what the dense numpy algorithm
in ``dbm_oracle.py`` gives on the full matrix: the same ``repr`` in every
cell (so signed zeros count), the same emptiness and the same
``closed_flag``. Each hypothesis example runs a random program of
operations on both implementations side by side and compares after every
step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains.interval import Interval
from repro.domains.octagon import Octagon
from tests.domains.dbm_oracle import DenseOctagon

MAX_DIM = 6


def _cells(oct_) -> list[str] | None:
    matrix = oct_.matrix
    return None if matrix is None else [repr(x) for x in matrix.ravel().tolist()]


def _same(sparse: Octagon, dense: DenseOctagon) -> None:
    assert sparse.empty == dense.empty
    assert sparse.closed_flag == dense.closed_flag
    assert _cells(sparse) == _cells(dense), (
        f"divergence:\n{sparse!r}\nvs\n{dense.matrix}"
    )
    assert sparse.is_top() == dense.is_top()
    for k in range(sparse.dim):
        assert sparse.project(k) == dense.project(k)


# -- random programs ------------------------------------------------------------

consts = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9).map(float),
    st.sampled_from([0.0, -0.0]),  # both zero signs, often
    st.sampled_from([0.5, -1.5]),
)
bounds = st.one_of(st.none(), st.integers(min_value=-6, max_value=6))
intervals = st.tuples(bounds, bounds).map(
    lambda b: Interval.range(*b)
    if b[0] is None or b[1] is None or b[0] <= b[1]
    else Interval.bottom()
)


@st.composite
def programs(draw, dim=None, max_ops=12):
    """``(dim, ops)``: ``ops`` is a list of operations, each reading the
    current octagon and, for the binary ones, an earlier result."""
    dim = dim or draw(st.integers(min_value=1, max_value=MAX_DIM))
    var = st.integers(min_value=0, max_value=dim - 1)
    earlier = st.integers(min_value=0, max_value=64)
    op = st.one_of(
        st.tuples(st.sampled_from(["with_upper", "with_lower"]), var, consts),
        st.tuples(st.sampled_from(["with_diff", "with_sum_upper"]), var, var, consts),
        st.tuples(st.sampled_from(["test_upper", "test_lower", "test_eq"]), var, consts),
        st.tuples(st.just("test_diff_upper"), var, var, consts),
        st.tuples(st.just("test_var_eq"), var, var),
        st.tuples(st.just("forget"), var),
        st.tuples(st.just("assign_interval"), var, intervals),
        st.tuples(st.just("assign_var_plus"), var, var, intervals, st.booleans()),
        st.tuples(st.just("closed")),
        st.tuples(st.sampled_from(["join", "meet", "widen", "narrow"]), earlier),
    )
    return dim, draw(st.lists(op, min_size=1, max_size=max_ops))


def _apply(pair, op, history):
    name, *args = op
    if name in ("join", "meet", "widen", "narrow"):
        other_s, other_d = history[args[0] % len(history)]
        return getattr(pair[0], name)(other_s), getattr(pair[1], name)(other_d)
    return getattr(pair[0], name)(*args), getattr(pair[1], name)(*args)


def _run(dim, ops):
    pair = (Octagon.top(dim), DenseOctagon.top(dim))
    history = [pair]
    for op in ops:
        pair = _apply(pair, op, history)
        _same(*pair)
        for other_s, other_d in history[-4:]:
            assert pair[0].leq(other_s) == pair[1].leq(other_d)
            assert other_s.leq(pair[0]) == other_d.leq(pair[1])
        history.append(pair)
    return history


@settings(max_examples=300, deadline=None)
@given(programs())
def test_random_operation_sequences_match_oracle(program):
    _run(*program)


@settings(deadline=None)
@given(programs(max_ops=6))
def test_sparse_closure_identical_to_dense(program):
    """Unclosed systems (raw ``with_*`` entries) close to the oracle's
    fixpoint, including infeasible ones."""
    for sparse, dense in _run(*program):
        _same(sparse.closed(), dense.closed())


@settings(deadline=None)
@given(programs(dim=4), programs(dim=4))
def test_sparse_leq_identical_to_dense(p, q):
    for a_s, a_d in _run(*p):
        for b_s, b_d in _run(*q)[-3:]:
            assert a_s.leq(b_s) == a_d.leq(b_d)
            assert b_s.leq(a_s) == b_d.leq(a_d)
        assert a_s.leq(a_s)


@settings(deadline=None)
@given(programs(dim=4), programs(dim=4))
def test_sparse_join_widen_identical_to_dense(p, q):
    (a_s, a_d), (b_s, b_d) = _run(*p)[-1], _run(*q)[-1]
    for name in ("join", "meet", "widen", "narrow"):
        _same(getattr(a_s, name)(b_s), getattr(a_d, name)(b_d))
        _same(getattr(b_s, name)(a_s), getattr(b_d, name)(a_d))


@settings(deadline=None)
@given(programs(max_ops=6))
def test_sparse_project_matches_dense(program):
    for sparse, dense in _run(*program):
        for k in range(sparse.dim):
            assert sparse.project(k) == dense.project(k)


@settings(max_examples=60, deadline=None)
@given(programs(max_ops=6), st.integers(min_value=0, max_value=MAX_DIM - 1))
def test_transfer_functions_identical(program, k):
    """assign/forget/test go through the closure internally — end to end
    they must match the oracle on every reachable state."""
    for pair in _run(*program):
        dim = pair[0].dim
        kk = k % dim
        other = (kk + 1) % dim
        steps = [
            ("assign_interval", kk, Interval(-3, 7)),
            ("assign_interval", kk, Interval.const(0)),
            ("assign_var_plus", other, kk, Interval.const(0), True),
            ("assign_var_plus", kk, kk, Interval(-1, 2), False),
            ("assign_var_plus", kk, kk, Interval.range(None, 1), True),
            ("forget", other),
            ("test_upper", kk, 5.0),
            ("test_lower", kk, 0.0),
        ]
        for step in steps:
            pair = _apply(pair, step, [pair])
            _same(*pair)


@st.composite
def zero_systems(draw, dim=2):
    """Raw systems whose bounds are all ±0.0: the cases where the tie
    rules and the sign-keeping rounding decide the rendered cells."""
    var = st.integers(min_value=0, max_value=dim - 1)
    zero = st.sampled_from([0.0, -0.0])
    entry = st.one_of(
        st.tuples(st.sampled_from(["with_upper", "with_lower"]), var, zero),
        st.tuples(st.sampled_from(["with_diff", "with_sum_upper"]), var, var, zero),
    )
    pair = (Octagon.top(dim), DenseOctagon.top(dim))
    for op in draw(st.lists(entry, min_size=1, max_size=5)):
        pair = _apply(pair, op, [])
    return pair


@settings(max_examples=300, deadline=None)
@given(zero_systems(), zero_systems())
def test_signed_zero_ties_match_oracle(p, q):
    _same(*p)
    _same(p[0].closed(), p[1].closed())
    for name in ("join", "meet", "widen", "narrow"):
        _same(getattr(p[0], name)(q[0]), getattr(p[1], name)(q[1]))
    for step in (("forget", 1), ("assign_interval", 0, Interval.const(0))):
        _same(*_apply(p, step, []))


#: pairs of ±0.0 systems whose meet depends on the tie rules: the first
#: on meet keeping the left bound only when strictly smaller, the second
#: on relaxations taking a ±0.0 diagonal sum when it ties
ZERO_TIE_WITNESSES = [
    (
        [("with_upper", 1, 0.0), ("with_diff", 1, 0, -0.0), ("with_sum_upper", 0, 0, -0.0)],
        [("with_sum_upper", 0, 0, 0.0), ("with_diff", 0, 1, -0.0), ("with_sum_upper", 0, 1, -0.0)],
    ),
    (
        [("with_diff", 1, 0, -0.0), ("with_sum_upper", 1, 0, -0.0), ("with_diff", 0, 1, -0.0)],
        [("with_sum_upper", 0, 0, -0.0), ("with_sum_upper", 0, 0, -0.0), ("with_sum_upper", 1, 1, -0.0)],
    ),
]


@pytest.mark.parametrize("left,right", ZERO_TIE_WITNESSES)
def test_zero_tie_witnesses(left, right):
    pairs = []
    for ops in (left, right):
        pair = (Octagon.top(2), DenseOctagon.top(2))
        for op in ops:
            pair = _apply(pair, op, [])
        pairs.append(pair)
    (a_s, a_d), (b_s, b_d) = pairs
    _same(a_s.meet(b_s), a_d.meet(b_d))
    _same(b_s.meet(a_s), b_d.meet(a_d))


# -- targeted cases -------------------------------------------------------------


def test_top_is_shared_and_stores_nothing():
    top = Octagon.top(7)
    assert top is Octagon.top(7)
    assert top.constraints == {} and top.closed_flag and top.is_top()
    assert top.forget(3) is top


def test_infeasible_detected_on_sparse_path():
    # x0 ≤ 1 and x0 ≥ 5 in a 6-dim pack
    oct_ = Octagon.top(6).with_upper(0, 1).with_lower(0, 5)
    assert oct_.closed().is_bottom()
    dense = DenseOctagon.top(6).with_upper(0, 1).with_lower(0, 5)
    assert dense.closed().empty


def test_contradiction_outside_the_support_is_bottom():
    """``x1 − x1 ≤ −1`` is infeasible even though x1 has no off-diagonal
    entry: the negative diagonal entry alone makes the octagon ⊥."""
    oct_ = Octagon.top(3).with_upper(0, 5).with_diff(1, 1, -1)
    assert oct_.closed().is_bottom()
    dense = DenseOctagon.top(3).with_upper(0, 5).with_diff(1, 1, -1)
    assert dense.closed().empty
    # the analysis reaches it through x < x on an unclosed (widened) state
    a = Octagon.top(3).assign_interval(0, Interval(0, 1))
    b = Octagon.top(3).assign_interval(0, Interval(0, 2))
    widened = a.widen(b)
    assert not widened.closed_flag
    assert widened.test_diff_upper(1, 1, -1.0).is_bottom()


def test_all_top_pack_closes_without_cubic_work():
    oct_ = Octagon(4)  # ⊤ whose closed_flag is not set
    out = oct_.closed()
    assert out.closed_flag and out.is_top()
    _same(out, DenseOctagon(4, DenseOctagon.top(4).matrix).closed())


def test_zero_bounds_keep_the_oracle_sign():
    """``x := [0, 0]`` stores −0.0 for the lower bound; the relaxation
    through the zero diagonal turns it into 0.0, as the dense path does."""
    for dim in (1, 3):
        for k in range(dim):
            sparse = Octagon.top(dim).assign_interval(k, Interval.const(0))
            dense = DenseOctagon.top(dim).assign_interval(k, Interval.const(0))
            _same(sparse, dense)


def test_sparse_closure_tightens_through_chain():
    # x0 ≤ 3, x1 − x0 ≤ 2 in a 10-dim pack: closure must derive x1 ≤ 5
    # while only 2 of 10 variables carry constraints
    oct_ = Octagon.top(10).with_upper(0, 3).with_diff(1, 0, 2)
    out = oct_.closed()
    assert out.project(1) == Interval.range(None, 5)
    assert out.project(0) == Interval.range(None, 3)
    assert all(i >> 1 in (0, 1) and j >> 1 in (0, 1) for i, j in out.constraints)
