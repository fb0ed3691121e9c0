"""The fixpoint engine over a control-flow space (equation (3)), and the
WTO widening-point selection, on hand-built graphs."""

import pytest

from repro.analysis.engine import CfgSpace, FixpointEngine
from repro.analysis.schedule import GraphView, widening_points_for
from repro.domains.absloc import VarLoc
from repro.domains.interval import Interval
from repro.domains.state import AbsState
from repro.domains.value import AbsValue
from repro.runtime.errors import BudgetExceeded

X = VarLoc("x")


def wto_heads(roots, succs):
    return widening_points_for(GraphView(tuple(roots), succs))[1]


def solve(succs, preds, transfer, wps, entries, edge_transform=None, **kwargs):
    space = CfgSpace(succs, preds, entries, edge_transform=edge_transform)
    return FixpointEngine(space, transfer, wps, **kwargs).solve()


class TestWideningPointDetection:
    def test_acyclic_graph_has_none(self):
        succs = {1: [2, 3], 2: [4], 3: [4], 4: []}
        assert wto_heads([1], succs) == set()

    def test_self_loop(self):
        succs = {1: [1]}
        assert wto_heads([1], succs) == {1}

    def test_simple_cycle(self):
        succs = {1: [2], 2: [3], 3: [2], 4: []}
        assert wto_heads([1], succs) == {2}

    def test_nested_cycles(self):
        succs = {1: [2], 2: [3], 3: [4], 4: [3, 2], 5: []}
        wps = wto_heads([1], succs)
        assert wps == {2, 3}

    def test_every_cycle_is_cut(self):
        """Removing the widening points must make the graph acyclic —
        the termination requirement."""
        succs = {
            1: [2, 5],
            2: [3],
            3: [4, 2],
            4: [1],
            5: [6],
            6: [5, 3],
        }
        wps = wto_heads([1], succs)
        remaining = {
            n: [s for s in ss if s not in wps and n not in wps]
            for n, ss in succs.items()
        }
        # DFS for cycles in the residual graph
        seen, stack_set = set(), set()

        def has_cycle(n):
            if n in stack_set:
                return True
            if n in seen:
                return False
            seen.add(n)
            stack_set.add(n)
            if any(has_cycle(s) for s in remaining.get(n, [])):
                return True
            stack_set.discard(n)
            return False

        assert not any(has_cycle(n) for n in succs if n not in wps)


class TestSolver:
    def test_straight_line_propagation(self):
        succs = {1: [2], 2: [3], 3: []}
        preds = {1: [], 2: [1], 3: [2]}

        def transfer(nid, s):
            out = s.copy()
            if nid == 2:
                out.set(X, AbsValue.of_const(7))
            return out

        table = solve(succs, preds, transfer, set(), {1: AbsState()})
        assert table[3].get(X).itv == Interval.const(7)

    def test_join_at_merge(self):
        succs = {1: [2, 3], 2: [4], 3: [4], 4: []}
        preds = {1: [], 2: [1], 3: [1], 4: [2, 3]}

        def transfer(nid, s):
            out = s.copy()
            if nid == 2:
                out.set(X, AbsValue.of_const(1))
            if nid == 3:
                out.set(X, AbsValue.of_const(9))
            return out

        table = solve(succs, preds, transfer, set(), {1: AbsState()})
        assert table[4].get(X).itv == Interval.range(1, 9)

    def test_none_transfer_prunes(self):
        succs = {1: [2], 2: [3], 3: []}
        preds = {1: [], 2: [1], 3: [2]}

        def transfer(nid, s):
            if nid == 2:
                return None
            return s

        table = solve(succs, preds, transfer, set(), {1: AbsState()})
        assert 3 not in table

    def test_widening_terminates_counter(self):
        # node 2 is a loop: x := x + 1 forever
        succs = {1: [2], 2: [2, 3], 3: []}
        preds = {1: [], 2: [1, 2], 3: [2]}

        def transfer(nid, s):
            out = s.copy()
            if nid == 1:
                out.set(X, AbsValue.of_const(0))
            if nid == 2:
                out.set(
                    X,
                    AbsValue.of_interval(
                        out.get(X).itv.add(Interval.const(1))
                    ),
                )
            return out

        table = solve(succs, preds, transfer, {2}, {1: AbsState()})
        assert table[2].get(X).itv.hi is None  # widened

    def test_no_widening_diverges_into_budget(self):
        succs = {1: [2], 2: [2]}
        preds = {1: [], 2: [1, 2]}

        def transfer(nid, s):
            out = s.copy()
            v = out.get(X).itv
            out.set(
                X,
                AbsValue.of_interval(
                    Interval.const(0) if v.is_bottom() else v.add(Interval.const(1))
                ),
            )
            return out

        with pytest.raises(BudgetExceeded):
            solve(
                succs, preds, transfer, set(), {1: AbsState()},
                max_iterations=500,
            )

    def test_edge_transform_filters(self):
        succs = {1: [2], 2: [3], 3: []}
        preds = {1: [], 2: [1], 3: [2]}

        def transfer(nid, s):
            out = s.copy()
            if nid == 1:
                out.set(X, AbsValue.of_const(5))
            return out

        def edge_transform(src, dst, s):
            if (src, dst) == (2, 3):
                return s.remove({X})
            return s

        table = solve(
            succs, preds, transfer, set(), {1: AbsState()},
            edge_transform=edge_transform,
        )
        assert X in table[2].locations()
        assert X not in table[3].locations()

    def test_seed_not_rejoined_once_preds_flow(self):
        """Regression: the entry seed must stop participating once real
        predecessor states exist (⊤-defaulted state types would be wiped)."""
        calls = []
        succs = {1: [2], 2: []}
        preds = {1: [], 2: [1]}

        def transfer(nid, s):
            calls.append(nid)
            out = s.copy()
            if nid == 1:
                out.set(X, AbsValue.of_const(3))
            return out

        table = solve(
            succs, preds, transfer, set(), {1: AbsState(), 2: AbsState()}
        )
        assert table[2].get(X).itv == Interval.const(3)
