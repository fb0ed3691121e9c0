"""Sparse engine behaviors: propagation, reachability, statistics."""

from repro.analysis.dense import run_dense
from repro.analysis.plan import prepare_plan, run_plan
from repro.analysis.preanalysis import run_preanalysis
from repro.analysis.sparse import run_sparse
from repro.api import analyze
from repro.domains.absloc import VarLoc
from repro.ir.program import build_program
from repro.runtime.errors import BudgetExceeded
from tests.analysis.golden_tables import COMBOS

import pytest


def setup(src, **kw):
    program = build_program(src)
    pre = run_preanalysis(program)
    return program, pre, run_sparse(program, pre, **kw)


def node(program, fragment, proc=None):
    for n in program.nodes():
        if proc is not None and n.proc != proc:
            continue
        if fragment in str(n.cmd):
            return n
    raise AssertionError(fragment)


class TestPropagation:
    def test_value_reaches_distant_use(self):
        src = """
        int g;
        int noop1(void) { return 0; }
        int noop2(void) { return 0; }
        int main(void) {
          g = 7;
          noop1(); noop2();
          return g;
        }
        """
        program, pre, res = setup(src)
        ret = node(program, "return g", "main")
        assert res.table[ret.nid].get(VarLoc("g")).itv.is_const()

    def test_loop_values_widen(self):
        src = """
        int main(void) {
          int i = 0;
          while (i < 100) i = i + 1;
          return i;
        }
        """
        program, pre, res = setup(src)
        ret = node(program, "return main::i")
        itv = res.table[ret.nid].get(VarLoc("i", "main")).itv
        assert itv.contains(100)

    def test_recursion_terminates(self):
        src = """
        int f(int n) { if (n <= 0) return 0; return f(n - 1) + 1; }
        int main(void) { return f(10); }
        """
        program, pre, res = setup(src)
        assert res.stats.iterations > 0

    def test_sparse_iterations_below_dense(self, simple_loop_src):
        program = build_program(simple_loop_src)
        pre = run_preanalysis(program)
        dense = run_dense(program, pre)
        sparse = run_sparse(program, pre)
        assert sparse.stats.iterations <= dense.stats.iterations


class TestReachability:
    def test_dead_branch_not_executed(self):
        src = """
        int main(void) {
          int x = 1;
          if (x > 5) { x = 999; }
          return x;
        }
        """
        program, pre, res = setup(src, strict=True)
        dead = node(program, "x := 999")
        assert dead.nid not in res.table

    def test_orphan_procedures_unreached(self):
        src = """
        int orphan(void) { return 1; }
        int main(void) { return 0; }
        """
        program, pre, res = setup(src, strict=True)
        orphan_entry = program.cfgs["orphan"].entry
        assert orphan_entry.nid not in res.table

    def test_non_strict_runs_everything(self):
        src = """
        int orphan(void) { return 1; }
        int main(void) { return 0; }
        """
        program, pre, res = setup(src, strict=False)
        assert res.stats.reachable_nodes == len(program.nodes())

    def test_reachability_grows_with_values(self):
        """A branch that becomes feasible only after a value arrives."""
        src = """
        int g;
        void set(void) { g = 10; }
        int main(void) {
          g = 0;
          set();
          if (g > 5) return 1;
          return 0;
        }
        """
        program, pre, res = setup(src, strict=True)
        taken = node(program, "return 1", "main")
        assert taken.nid in res.table


class TestStatistics:
    def test_dep_counts_reported(self, simple_loop_src):
        program, pre, res = setup(simple_loop_src)
        assert res.stats.dep_count > 0
        assert res.stats.raw_dep_count >= res.stats.dep_count

    @pytest.mark.parametrize(
        "domain,mode", COMBOS, ids=[f"{d}-{m}" for d, m in COMBOS]
    )
    def test_phase_times_recorded(self, simple_loop_src, domain, mode):
        """One Pre/Dep/Fix accounting for every combo: ``time_fix`` is the
        solve's wall time, and ``time_pre`` counts only a pre-analysis the
        driver ran itself."""
        stats = analyze(simple_loop_src, domain=domain, mode=mode).result.stats
        assert stats.time_fix > 0
        assert stats.time_pre == 0
        assert (stats.time_dep > 0) == (mode == "sparse")
        assert stats.time_total >= stats.time_fix
        program = build_program(simple_loop_src)
        own = run_plan(prepare_plan(program, None, domain, mode)).stats
        assert own.time_pre > 0 and own.time_fix > 0

    def test_budget_exceeded_raises(self):
        src = """
        int main(void) {
          int i = 0;
          while (i < 1000) i = i + 1;
          return i;
        }
        """
        program = build_program(src)
        pre = run_preanalysis(program)
        with pytest.raises(BudgetExceeded):
            run_sparse(program, pre, max_iterations=3)


class TestNarrowing:
    def test_narrowing_recovers_loop_bound(self):
        src = """
        int main(void) {
          int i = 0;
          while (i < 10) i = i + 1;
          return i;
        }
        """
        program = build_program(src)
        pre = run_preanalysis(program)
        wide = run_sparse(program, pre)
        narrow = run_sparse(program, pre, narrowing_passes=3)
        ret = node(program, "return main::i")
        i = VarLoc("i", "main")
        wide_itv = wide.table[ret.nid].get(i).itv
        narrow_itv = narrow.table[ret.nid].get(i).itv
        assert narrow_itv.leq(wide_itv)
        assert narrow_itv.hi == 10
