"""Dense engines: interprocedural graph construction, WTO widening points,
the CFG-space fixpoint, and access-based localization."""

import pytest

from repro.analysis.dense import build_interproc_graph, run_dense
from repro.analysis.preanalysis import run_preanalysis
from repro.analysis.schedule import GraphView, widening_points_for
from repro.domains.absloc import VarLoc
from repro.domains.state import AbsState
from repro.ir.commands import CCall, CExit, CRetBind
from repro.ir.program import build_program
from repro.runtime.errors import BudgetExceeded


def setup(src):
    program = build_program(src)
    pre = run_preanalysis(program)
    return program, pre


class TestInterprocGraph:
    SRC = """
    int f(int a) { return a + 1; }
    int main(void) { return f(1); }
    """

    def test_call_edge_to_callee_entry(self):
        program, pre = setup(self.SRC)
        graph = build_interproc_graph(program, pre.site_callees)
        call = next(
            n for n in program.nodes()
            if isinstance(n.cmd, CCall) and n.cmd.static_callee == "f"
        )
        entry = program.cfgs["f"].entry
        assert entry.nid in graph.succs[call.nid]

    def test_no_direct_call_to_retbind_when_resolved(self):
        program, pre = setup(self.SRC)
        graph = build_interproc_graph(program, pre.site_callees)
        call = next(
            n for n in program.nodes()
            if isinstance(n.cmd, CCall) and n.cmd.static_callee == "f"
        )
        retbind = graph.retbind_of[call.nid]
        assert retbind not in graph.succs[call.nid]

    def test_exit_edge_to_retbind(self):
        program, pre = setup(self.SRC)
        graph = build_interproc_graph(program, pre.site_callees)
        exit_nid = program.cfgs["f"].exit.nid
        retbinds = [
            n.nid for n in program.nodes() if isinstance(n.cmd, CRetBind)
        ]
        assert any(r in graph.succs[exit_nid] for r in retbinds)

    def test_external_call_flows_to_retbind(self):
        program, pre = setup("int main(void) { return mystery(); }")
        graph = build_interproc_graph(program, pre.site_callees)
        call = next(
            n for n in program.nodes()
            if isinstance(n.cmd, CCall) and "mystery" in str(n.cmd)
        )
        assert graph.succs[call.nid]  # continues into the return site

    def test_localized_graph_has_bypass_edges(self):
        program, pre = setup(self.SRC)
        graph = build_interproc_graph(program, pre.site_callees, localized=True)
        assert graph.bypass_edges


class TestWideningPoints:
    def test_loop_head_detected(self):
        program, pre = setup(
            "int main(void) { int i = 0; while (i < 5) i = i + 1; return i; }"
        )
        graph = build_interproc_graph(program, pre.site_callees)
        _, wps = widening_points_for(
            GraphView((program.entry_node().nid,), graph.succs)
        )
        head = next(
            n.nid
            for n in program.cfgs["main"].nodes
            if "loop-head" in str(n.cmd)
        )
        assert head in wps

    def test_recursive_entry_detected(self):
        program, pre = setup(
            "int f(int n) { if (n > 0) return f(n - 1); return 0; }"
            "int main(void) { return f(9); }"
        )
        graph = build_interproc_graph(program, pre.site_callees)
        _, wps = widening_points_for(
            GraphView((program.entry_node().nid,), graph.succs)
        )
        assert program.cfgs["f"].entry.nid in wps

    def test_loop_free_program_has_none_in_main(self):
        program, pre = setup("int main(void) { int x = 1; return x; }")
        graph = build_interproc_graph(program, pre.site_callees)
        _, wps = widening_points_for(
            GraphView((program.entry_node().nid,), graph.succs)
        )
        main_nodes = {n.nid for n in program.cfgs["main"].nodes}
        assert not (wps & main_nodes)


class TestWorklistSolver:
    """run_dense's fixpoint engine: budget and narrowing."""

    def test_budget_raises(self):
        program, pre = setup(
            "int main(void) { int i = 0; while (i < 9999) i = i + 1; return i; }"
        )
        with pytest.raises(BudgetExceeded):
            run_dense(program, pre, max_iterations=2)

    def test_narrowing_tightens(self):
        src = "int main(void) { int i = 0; while (i < 10) i = i + 1; return i; }"
        program, pre = setup(src)
        wide = run_dense(program, pre)
        narrow = run_dense(program, pre, narrowing_passes=3)
        ret = next(
            n for n in program.cfgs["main"].nodes if "return" in str(n.cmd)
        )
        i = VarLoc("i", "main")
        assert narrow.table[ret.nid].get(i).itv.leq(
            wide.table[ret.nid].get(i).itv
        )
        assert narrow.table[ret.nid].get(i).itv.hi == 10


class TestLocalization:
    SRC = """
    int touched;
    int untouched;
    int helper(void) { touched = touched + 1; return touched; }
    int main(void) {
      untouched = 42;
      touched = 0;
      helper();
      return untouched;
    }
    """

    def test_base_matches_vanilla_values(self):
        program, pre = setup(self.SRC)
        vanilla = run_dense(program, pre)
        base = run_dense(program, pre, localize=True)
        ret = next(
            n
            for n in program.cfgs["main"].nodes
            if "return untouched" in str(n.cmd)
        )
        assert vanilla.table[ret.nid].get(VarLoc("untouched")) == base.table[
            ret.nid
        ].get(VarLoc("untouched"))
        assert base.table[ret.nid].get(VarLoc("untouched")).itv.is_const()

    def test_callee_state_restricted(self):
        program, pre = setup(self.SRC)
        base = run_dense(program, pre, localize=True)
        callee_entry = program.cfgs["helper"].entry.nid
        state = base.table[callee_entry]
        # `untouched` is not accessed by helper → not passed in
        assert VarLoc("untouched") not in state.locations()
        assert VarLoc("touched") in state.locations()

    def test_localized_fewer_iterations_on_wide_programs(self):
        src = "\n".join(
            [f"int g{i};" for i in range(30)]
            + ["int helper(void) { g0 = g0 + 1; return g0; }"]
            + [
                "int main(void) {",
                "\n".join(f"  g{i} = {i};" for i in range(30)),
                "  helper(); helper();",
                "  return g0;",
                "}",
            ]
        )
        program, pre = setup(src)
        vanilla = run_dense(program, pre)
        base = run_dense(program, pre, localize=True)
        # the localized analysis does not ship 30 globals through helper:
        # the callee's states stay small (iteration counts can tie — the
        # saving is per-state size, which is what dominates wall time)
        helper_nodes = [n.nid for n in program.cfgs["helper"].nodes]
        v_size = sum(len(vanilla.table[n]) for n in helper_nodes if n in vanilla.table)
        b_size = sum(len(base.table[n]) for n in helper_nodes if n in base.table)
        assert b_size < v_size / 2