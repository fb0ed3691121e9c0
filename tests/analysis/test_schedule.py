"""Unit tests for the WTO construction and the priority worklist."""

from repro.analysis.engine import CfgSpace, FixpointEngine
from repro.analysis.schedule import (
    PriorityWorklist,
    SchedulerStats,
    compute_wto,
)
from repro.domains.state import AbsState


def wto_of(succs, roots=(1,)):
    return compute_wto(roots, succs)


class TestWTOConstruction:
    def test_straight_line(self):
        wto = wto_of({1: [2], 2: [3], 3: []})
        assert wto.components == (1, 2, 3)
        assert wto.heads == frozenset()
        assert wto.linear() == [1, 2, 3]

    def test_single_loop(self):
        # 1 -> 2 -> 3 -> 2, 3 -> 4
        wto = wto_of({1: [2], 2: [3], 3: [2, 4], 4: []})
        assert wto.components == (1, (2, 3), 4)
        assert wto.heads == frozenset({2})
        assert wto.depth[3] == 1
        assert wto.depth[4] == 0

    def test_nested_loops(self):
        # outer loop 2..5 with inner loop 3..4
        succs = {1: [2], 2: [3], 3: [4], 4: [3, 5], 5: [2, 6], 6: []}
        wto = wto_of(succs)
        assert wto.components == (1, (2, (3, 4), 5), 6)
        assert wto.heads == frozenset({2, 3})
        assert wto.depth[4] == 2
        # linear order follows program structure
        assert wto.linear() == [1, 2, 3, 4, 5, 6]

    def test_self_loop(self):
        wto = wto_of({1: [1, 2], 2: []})
        assert wto.components == ((1,), 2)
        assert wto.heads == frozenset({1})

    def test_irreducible(self):
        # two entries into the cycle {2, 3}: 1 -> 2, 1 -> 3, 2 <-> 3
        succs = {1: [2, 3], 2: [3], 3: [2, 4], 4: []}
        wto = wto_of(succs)
        # one head still cuts the cycle
        assert wto.heads == frozenset({2})
        assert wto.components == (1, (2, 3), 4)

    def test_every_cycle_has_a_head(self):
        # the defining WTO property, checked on a knotted graph
        succs = {
            1: [2],
            2: [3, 6],
            3: [4],
            4: [2, 5],
            5: [3, 7],
            6: [6, 7],
            7: [],
        }
        wto = wto_of(succs)
        # brute-force: every simple cycle must contain a head
        def cycles_from(start):
            found = []
            stack = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for s in succs.get(node, ()):
                    if s == path[0]:
                        found.append(path)
                    elif s not in path:
                        stack.append((s, path + [s]))
            return found

        for n in succs:
            for cyc in cycles_from(n):
                assert wto.heads & set(cyc), f"cycle {cyc} has no head"

    def test_head_scheduled_after_component_interior(self):
        # scheduling priority is head-last (Bourdoncle's recursive
        # strategy: re-test the head once per stabilized body pass) even
        # though the textbook linearization lists the head first
        succs = {1: [2], 2: [3], 3: [4], 4: [3, 5], 5: [2, 6], 6: []}
        wto = wto_of(succs)
        assert wto.linear() == [1, 2, 3, 4, 5, 6]
        prio = wto.priority
        assert prio[3] > prio[4]            # inner head after inner body
        assert prio[2] > max(prio[3], prio[4], prio[5])  # outer head last
        assert prio[1] < prio[4] < prio[6]  # components stay in order

    def test_unreachable_nodes_excluded(self):
        wto = wto_of({1: [2], 2: [], 9: [9]})
        assert 9 not in wto.priority
        # fallback priority still orders them after everything reachable
        assert wto.priority_of(9) > wto.priority_of(2)

    def test_multiple_roots(self):
        wto = compute_wto([1, 10], {1: [2], 2: [], 10: [11], 11: [10]})
        assert 10 in wto.heads
        assert set(wto.priority) == {1, 2, 10, 11}

    def test_deep_nesting_no_recursion_error(self):
        # a tower of 500 nested self-referencing components
        n = 500
        succs = {i: [i + 1, i] for i in range(1, n + 1)}
        succs[n] = [n]
        wto = wto_of(succs)
        assert wto.heads == frozenset(range(1, n + 1))

    def test_long_chain_iterative(self):
        n = 5000
        succs = {i: [i + 1] for i in range(1, n)}
        succs[n] = []
        wto = wto_of(succs)
        assert wto.linear() == list(range(1, n + 1))


class TestWorklists:
    def test_priority_pops_in_wto_order(self):
        prio = {1: 0, 2: 1, 3: 2}
        work = PriorityWorklist(prio, [3, 1, 2])
        assert [work.pop(), work.pop(), work.pop()] == [1, 2, 3]
        assert not work

    def test_priority_dedup(self):
        work = PriorityWorklist({1: 0, 2: 1}, [1])
        work.add(1)
        work.add(2)
        assert len(work) == 2
        assert work.pop() == 1
        assert 1 not in work
        assert 2 in work

    def test_priority_unmapped_sorts_last(self):
        work = PriorityWorklist({5: 0}, [99, 5])
        assert work.pop() == 5
        assert work.pop() == 99

    def test_engine_without_priority_pops_in_id_order(self):
        """A FixpointEngine built without a WTO priority map (the
        pre-analysis's one-point space) pops its seeds by node id."""
        popped = []

        def transfer(nid, state):
            popped.append(nid)
            return state

        seeds = {nid: AbsState() for nid in (3, 1, 2)}
        engine = FixpointEngine(CfgSpace({}, {}, seeds), transfer, set())
        engine.solve()
        assert popped == [1, 2, 3]

    def test_revisit_counters(self):
        work = PriorityWorklist({}, [1])
        work.pop()
        work.add(1)
        work.pop()
        work.add(2)
        work.pop()
        stats = SchedulerStats.from_worklist(work)
        assert stats.pops == 3
        assert stats.unique_nodes == 2
        assert stats.revisits == 1
        assert stats.max_revisits == 1
        assert stats.hot_nodes == [(1, 2)]

    def test_inversion_counter(self):
        prio = {1: 0, 2: 1}
        work = PriorityWorklist(prio, [2])
        work.pop()  # 2 (priority 1)
        work.add(1)
        work.pop()  # 1 (priority 0) -> inversion
        assert work.inversions == 1

    def test_stats_dict_roundtrip(self):
        work = PriorityWorklist({1: 0}, [1])
        work.pop()
        stats = SchedulerStats.from_worklist(
            work, widening_points=3, cache_delta=(7, 3)
        )
        d = stats.as_dict()
        assert d["widening_points"] == 3
        assert d["join_cache_hits"] == 7
        assert d["join_cache_hit_rate"] == 0.7
        assert "pops=1" in str(stats)
