"""WTO scheduling must not change results — only how fast they arrive.

Scope of the guarantee: chaotic iteration converges to the same fixpoint
under any fair schedule as long as the widening sequences coincide. That
holds unconditionally when no widening fires (finite abstract chains — the
exact ``lfp F♯``), and empirically on call-tree-shaped workloads where
widening at loop heads hits the same limits under both schedules. With
recursion cycles the interval widening becomes genuinely order-sensitive
(either schedule can be the more precise one at individual nodes — see
DESIGN.md §8), so the identity tests here use finite-call-structure
workloads across all six engine×domain combinations.

The engine has one schedule (WTO priority); the FIFO order it is compared
against lives here as a test oracle, swapped in for the engine's worklist.
"""

from collections import deque

import pytest

from repro.analysis import engine as engine_module
from repro.api import analyze
from repro.bench.codegen import WorkloadSpec, generate_source

INTERVAL_MODES = ["vanilla", "base", "sparse"]
OCTAGON_MODES = ["vanilla", "base", "sparse"]

#: call-tree shaped (no recursion → finite interprocedural chains), with
#: loops and pointer traffic so widening and the sparse dep graph are
#: exercised
TREE_A = WorkloadSpec(
    "tree-a", n_functions=6, n_globals=5, seed=11,
    recursion_cycle=0, unique_callees=True,
)
TREE_B = WorkloadSpec(
    "tree-b", n_functions=8, n_globals=6, seed=42,
    recursion_cycle=0, unique_callees=True,
    pointer_ops_per_function=2, loops_per_function=2,
)
TREE_C = WorkloadSpec(
    "tree-c", n_functions=5, n_globals=4, seed=7,
    recursion_cycle=0, unique_callees=True, loops_per_function=3,
)
#: loop-free call tree: every abstract chain is finite, so ``widen=False``
#: terminates and computes the exact lfp (loops would diverge — generated
#: bodies contain multiplicative updates)
TREE_FLAT = WorkloadSpec(
    "tree-flat", n_functions=8, n_globals=6, seed=7,
    recursion_cycle=0, unique_callees=True, loops_per_function=0,
)

INTERVAL_SPECS = [TREE_A, TREE_B]
OCTAGON_SPECS = [TREE_B, TREE_C]

HANDWRITTEN = """
int g;
int helper(int n) {
  int i = 0;
  int s = 0;
  while (i < n) {
    int j = 0;
    while (j < 10) { s = s + 1; j = j + 1; }
    i = i + 1;
  }
  return s;
}
int main() {
  g = helper(5);
  if (g > 3) { g = g - 1; }
  return g;
}
"""


class FifoWorklist:
    """The classic FIFO deque + membership set, with the counters
    :class:`~repro.analysis.schedule.SchedulerStats` reads. Ignores the
    WTO priority map it is built with."""

    #: how many runs built one (proves the oracle was swapped in)
    built = 0

    def __init__(self, priority, initial=()):
        FifoWorklist.built += 1
        self._deque = deque()
        self._in = set()
        self.pops = 0
        self.pop_counts = {}
        self.inversions = 0
        self.max_size = 0
        for node in initial:
            self.add(node)

    def add(self, node):
        if node not in self._in:
            self._in.add(node)
            self._deque.append(node)
            self.max_size = max(self.max_size, len(self._deque))

    def pending(self):
        return list(self._deque)

    def pop(self):
        node = self._deque.popleft()
        self._in.discard(node)
        self.pops += 1
        self.pop_counts[node] = self.pop_counts.get(node, 0) + 1
        return node

    def __len__(self):
        return len(self._deque)

    def __contains__(self, node):
        return node in self._in


def assert_tables_equal(wto_run, fifo_run, label):
    wt, ft = wto_run.result.table, fifo_run.result.table
    assert set(wt) == set(ft), f"{label}: different node sets"
    for nid in wt:
        assert wt[nid] == ft[nid], (
            f"{label}: state differs at node {nid}:\n"
            f"  wto : {wt[nid]!r}\n  fifo: {ft[nid]!r}"
        )


def run_both(source, domain, mode, **options):
    wto = analyze(source, domain=domain, mode=mode, **options)
    built = FifoWorklist.built
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module, "PriorityWorklist", FifoWorklist)
        fifo = analyze(source, domain=domain, mode=mode, **options)
    assert FifoWorklist.built > built, "the FIFO oracle never ran"
    return wto, fifo


@pytest.mark.parametrize("mode", INTERVAL_MODES)
@pytest.mark.parametrize("spec", INTERVAL_SPECS, ids=lambda s: s.name)
def test_interval_tables_identical(mode, spec):
    source = generate_source(spec)
    wto, fifo = run_both(source, "interval", mode)
    assert_tables_equal(wto, fifo, f"interval/{mode}/{spec.name}")


@pytest.mark.parametrize("mode", OCTAGON_MODES)
@pytest.mark.parametrize("spec", OCTAGON_SPECS, ids=lambda s: s.name)
def test_octagon_tables_identical(mode, spec):
    source = generate_source(spec)
    wto, fifo = run_both(source, "octagon", mode)
    assert_tables_equal(wto, fifo, f"octagon/{mode}/{spec.name}")


@pytest.mark.parametrize("mode", INTERVAL_MODES)
def test_lemma_mode_exact_lfp_identical(mode):
    """Without widening the table is the exact ``lfp F♯`` — unique, hence
    bit-identical under any schedule (the strongest form of the claim)."""
    source = generate_source(TREE_FLAT)
    wto, fifo = run_both(source, "interval", mode, widen=False)
    assert_tables_equal(wto, fifo, f"lfp/{mode}")


@pytest.mark.parametrize("domain", ["interval", "octagon"])
@pytest.mark.parametrize("mode", INTERVAL_MODES)
def test_handwritten_loops_identical(domain, mode):
    wto, fifo = run_both(HANDWRITTEN, domain, mode)
    assert_tables_equal(wto, fifo, f"{domain}/{mode}/handwritten")


@pytest.mark.parametrize("mode", INTERVAL_MODES)
def test_narrowing_identical(mode):
    wto, fifo = run_both(HANDWRITTEN, "interval", mode, narrowing_passes=2)
    assert_tables_equal(wto, fifo, f"narrowed/{mode}")


def test_wto_no_more_iterations_on_loops():
    """The headline claim: WTO never schedules worse than FIFO here."""
    wto, fifo = run_both(HANDWRITTEN, "interval", "vanilla")
    assert wto.scheduler_stats.pops <= fifo.scheduler_stats.pops


def test_queries_identical():
    wto, fifo = run_both(HANDWRITTEN, "interval", "sparse")
    assert (
        wto.interval_at_exit("helper", "s")
        == fifo.interval_at_exit("helper", "s")
    )
    assert wto.interval_at_exit("main", "g") == fifo.interval_at_exit("main", "g")
