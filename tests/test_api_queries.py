"""AnalysisRun query semantics: reaching-definition lookups over sparse
tables, octagon pack reads, and state truthiness hardening."""

import pytest

from repro.api import analyze, serve_session
from repro.bench.codegen import generate_source, octagon_suite
from repro.domains.absloc import VarLoc
from repro.domains.interval import Interval
from repro.domains.state import AbsState


class TestStateTruthiness:
    def test_empty_state_is_truthy(self):
        # regression: `if state:` used to conflate empty with missing
        assert bool(AbsState())
        assert len(AbsState()) == 0


class TestReachingLookup:
    SRC = """
    int g;
    int main(void) {
      int x = 5;
      g = x;
      if (g > 3) { x = 7; }
      return x + g;
    }
    """

    def test_query_at_def_node(self):
        run = analyze(self.SRC)
        n = next(
            n for n in run.program.cfgs["main"].nodes
            if "x := 5" in str(n.cmd)
        )
        assert run.value_at(n.nid, VarLoc("x", "main")).itv == Interval.const(5)

    def test_query_between_defs_walks_back(self):
        run = analyze(self.SRC)
        n = next(
            n for n in run.program.cfgs["main"].nodes
            if "g := main::x" in str(n.cmd)
        )
        # x not defined at this node: the lookup walks to `x := 5`
        assert run.value_at(n.nid, VarLoc("x", "main")).itv == Interval.const(5)

    def test_query_after_join_merges_branches(self):
        run = analyze(self.SRC)
        ret = next(
            n for n in run.program.cfgs["main"].nodes
            if "return" in str(n.cmd)
        )
        x = run.value_at(ret.nid, VarLoc("x", "main")).itv
        assert x.contains(5) and x.contains(7)

    def test_definition_shadows_earlier_values(self):
        src = """
        int main(void) {
          int x = 1;
          x = 9;
          return x;
        }
        """
        run = analyze(src)
        ret = next(
            n for n in run.program.cfgs["main"].nodes
            if "return" in str(n.cmd)
        )
        assert run.value_at(ret.nid, VarLoc("x", "main")).itv == Interval.const(9)

    def test_unknown_location_is_bottom(self):
        run = analyze(self.SRC)
        ret = next(
            n for n in run.program.cfgs["main"].nodes
            if "return" in str(n.cmd)
        )
        assert run.value_at(ret.nid, VarLoc("nothere", "main")).is_bottom()

    def test_octagon_reaching_lookup(self):
        src = """
        int main(void) {
          int a;
          if (a >= 2 && a <= 8) { int b = a; return b; }
          return 0;
        }
        """
        run = analyze(src, domain="octagon")
        exit_itv = run.interval_at_exit("main", "a")
        assert exit_itv.contains(2) and exit_itv.contains(8)


class TestOctagonPackReads:
    """Pack states are ⊤-default: a state without a pack says nothing
    about it, so a read must not walk past it to an older definition."""

    @pytest.fixture(scope="class")
    def gzip_oct(self):
        from repro.ir.interp import Interpreter
        from repro.ir.program import build_program

        spec = next(s for s in octagon_suite() if s.name == "gzip-oct")
        src = generate_source(spec)
        concrete = Interpreter(
            build_program(src), fuel=2_000_000, record=False
        ).run()
        return src, concrete

    @pytest.mark.parametrize("mode", ["vanilla", "base", "sparse"])
    def test_exit_interval_contains_the_concrete_return(self, gzip_oct, mode):
        # regression: every mode answered [0, 0] for acc while main()
        # concretely returns 431
        src, concrete = gzip_oct
        assert concrete == 431
        run = analyze(src, domain="octagon", mode=mode)
        assert run.interval_at_exit("main", "acc").contains(concrete)
        served = serve_session(src, domain="octagon", mode=mode)
        assert served.query_interval("main", "acc").interval.contains(concrete)
