"""Flow-insensitive pre-analysis tests."""

import os

import pytest

from repro.analysis.preanalysis import run_preanalysis
from repro.analysis.semantics import AccessLog, AnalysisContext, transfer
from repro.bench.codegen import default_suite, generate_source, octagon_suite
from repro.domains.absloc import FuncLoc, VarLoc
from repro.domains.state import AbsState
from repro.ir.program import build_program
from tests.analysis.preanalysis_oracle import run_preanalysis_oracle
from tests.conftest import EXAMPLE_FILES, program_of_file, random_spec, upto


def pre_of(src):
    program = build_program(src)
    return program, run_preanalysis(program)


class TestGlobalInvariant:
    def test_covers_all_assignments(self):
        program, pre = pre_of(
            "int g; int main(void) { g = 1; g = 9; return g; }"
        )
        itv = pre.state.get(VarLoc("g")).itv
        assert itv.contains(0) and itv.contains(1) and itv.contains(9)

    def test_flow_insensitive_joins_branches(self):
        program, pre = pre_of(
            """
            int g;
            int main(void) { int c; if (c) g = 1; else g = 100; return g; }
            """
        )
        itv = pre.state.get(VarLoc("g")).itv
        assert itv.contains(1) and itv.contains(100)

    def test_widening_terminates_unbounded_counter(self):
        program, pre = pre_of(
            "int main(void) { int i = 0; while (1) { i = i + 1; } }"
        )
        itv = pre.state.get(VarLoc("i", "main")).itv
        assert itv.hi is None  # widened to +inf
        assert pre.rounds < 60

    def test_pointer_targets_accumulate(self):
        program, pre = pre_of(
            """
            int a; int b; int *p;
            int main(void) { int c; if (c) p = &a; else p = &b; return 0; }
            """
        )
        pts = pre.state.get(VarLoc("p")).ptsto
        assert pts == {VarLoc("a"), VarLoc("b")}


class TestCallGraphResolution:
    def test_direct_calls(self):
        program, pre = pre_of(
            "int f(void) { return 1; } int main(void) { return f(); }"
        )
        call_sites = [
            nid for nid, callees in pre.site_callees.items() if "f" in callees
        ]
        assert call_sites

    def test_function_pointer_resolution(self):
        program, pre = pre_of(
            """
            int inc(int x) { return x + 1; }
            int dec(int x) { return x - 1; }
            int main(void) {
              int (*op)(int); int c;
              if (c) { op = &inc; } else { op = &dec; }
              return op(3);
            }
            """
        )
        indirect = [
            callees
            for nid, callees in pre.site_callees.items()
            if set(callees) == {"dec", "inc"}
        ]
        assert indirect

    def test_funcptr_through_global(self):
        program, pre = pre_of(
            """
            int h(int x) { return x; }
            int (*fp)(int);
            void setup(void) { fp = &h; }
            int main(void) { setup(); return fp(1); }
            """
        )
        assert any(
            callees == ("h",) for callees in pre.site_callees.values()
        )

    def test_external_unresolved(self):
        program, pre = pre_of("int main(void) { return puts_like(1); }")
        call_nid = next(
            n.nid
            for n in program.cfgs["main"].nodes
            if "call" in str(n.cmd) and "puts_like" in str(n.cmd)
        )
        assert pre.site_callees[call_nid] == ()

    def test_over_approximates_every_reachable_state(self):
        """T̂_pre must cover the flow-sensitive result at every point."""
        from repro.analysis.dense import run_dense

        src = """
        int g;
        int main(void) {
          int i = 0;
          g = 5;
          while (i < 4) { g = g + 2; i = i + 1; }
          return g;
        }
        """
        program, pre = pre_of(src)
        dense = run_dense(program, pre)
        for nid, state in dense.table.items():
            for loc, value in state.items():
                assert value.itv.leq(pre.state.get(loc).itv) or value.itv.is_bottom()


# -- semi-naïve rounds vs. the naïve oracle ------------------------------------

#: number of random programs; CI's fuzz-smoke step lowers this via the
#: environment to stay inside its time budget.
N_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "25"))


def _cells(pre, keep=lambda value: True):
    return sorted(
        (repr(loc), repr(value))
        for loc, value in pre.state.items()
        if keep(value)
    )


#: partitions of the global state; together they cover every cell
CELL_KINDS = {
    "array": lambda value: bool(value.arrays),
    "scalar": lambda value: not value.arrays,
}


def assert_matches_oracle(program, kind=None):
    """The semi-naïve run agrees with the oracle on every cell, or, given a
    ``kind`` of ``CELL_KINDS``, on the cells of that partition only."""
    pre = run_preanalysis(program)
    oracle = run_preanalysis_oracle(program)
    keep = CELL_KINDS[kind] if kind else (lambda value: True)
    assert _cells(pre, keep) == _cells(oracle, keep)
    assert pre.site_callees == oracle.site_callees
    assert pre.rounds == oracle.rounds
    assert pre.visits <= oracle.visits
    return pre, oracle


SUITE = upto(default_suite(), "make-mini") + upto(octagon_suite(), "tar-oct")


class TestSemiNaiveMatchesOracle:
    @pytest.mark.parametrize("spec", SUITE, ids=lambda s: s.name)
    def test_codegen_rungs(self, spec):
        assert_matches_oracle(build_program(generate_source(spec)))

    @pytest.mark.parametrize("kind", list(CELL_KINDS))
    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_example_files(self, path, kind):
        """Array-block cells are written by ``CAlloc``'s ``log.define``,
        scalar cells by ``_write``: a write either path fails to log shows
        up in its own partition."""
        assert_matches_oracle(program_of_file(path), kind)

    @pytest.mark.parametrize("seed", [11 * i + 3 for i in range(N_SEEDS)])
    def test_random_programs(self, seed):
        spec = random_spec(seed)
        assert_matches_oracle(build_program(generate_source(spec)))

    def test_indirect_callee_set_grows_late(self):
        """``p1 → p2 → p3`` moves ``&b`` one hop per round, so the call
        through ``p3`` (bound to ``a`` from round 2) first reaches ``b`` in
        round 4. Only the call's logged read of ``p3`` re-runs it then."""
        program = build_program(
            """
            int a(int x) { return x + 1; }
            int b(int y) { return y + 2; }
            int (*p1)(int);
            int (*p2)(int);
            int (*p3)(int);
            int main(void) {
              int r;
              p3 = &a;
              r = p3(1);
              p3 = p2;
              p2 = p1;
              p1 = &b;
              return r;
            }
            """
        )
        after3 = run_preanalysis_oracle(program, max_rounds=3)
        assert after3.state.get(VarLoc("y", "b")).is_bottom()
        pre, oracle = assert_matches_oracle(program)
        assert not pre.state.get(VarLoc("y", "b")).is_bottom()
        assert any(callees == ("a", "b") for callees in pre.site_callees.values())
        assert pre.visits < oracle.visits


# -- the fold over logged definitions -------------------------------------------


def undefined_changes(program) -> list[tuple[str, str]]:
    """(node, location) pairs where ``transfer`` changed an entry — added,
    replaced by another object, or removed — without logging it in
    ``AccessLog.defined``. The pre-analysis folds each node's output over
    ``defined`` only, so this must be empty. Checked at the first round's
    input (⊥, where every write changes something) and at the final
    global state (where most writes reproduce a value already there)."""
    pre = run_preanalysis(program)
    ctx = AnalysisContext(program, site_callees=None)
    missed = []
    for state in (AbsState(), pre.state):
        for node in program.nodes():
            log = AccessLog()
            out = transfer(node, state, ctx, log)
            if out is None:
                continue
            changed = {loc for loc, _ in out.delta_items(state)}
            changed.update(loc for loc, _ in state.delta_items(out))
            missed.extend(
                (str(node.cmd), str(loc)) for loc in changed - log.defined
            )
    return missed


class TestTransferLogsEveryWrite:
    @pytest.mark.parametrize(
        "spec", upto(default_suite(), "make-mini"), ids=lambda s: s.name
    )
    def test_codegen_rungs(self, spec):
        assert undefined_changes(build_program(generate_source(spec))) == []

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_example_files(self, path):
        assert undefined_changes(program_of_file(path)) == []

    @pytest.mark.parametrize("seed", [11 * i + 3 for i in range(N_SEEDS)])
    def test_random_programs(self, seed):
        program = build_program(generate_source(random_spec(seed)))
        assert undefined_changes(program) == []
