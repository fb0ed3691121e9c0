"""D̂/Û approximation tests (Sections 2.5 and 3.2)."""

import os

import pytest

from repro.analysis.defuse import compute_defuse, localization_set
from repro.analysis.preanalysis import run_preanalysis
from repro.analysis.relational import RelContext, compute_rel_defuse
from repro.bench.codegen import default_suite, generate_source, octagon_suite
from repro.domains.absloc import AllocLoc, RetLoc, VarLoc
from repro.domains.packs import build_packs
from repro.ir.program import build_program
from tests.analysis.summary_oracle import must_defs_oracle, summaries_oracle
from tests.conftest import EXAMPLE_FILES, program_of_file, random_spec

#: number of random programs; CI's fuzz-smoke step lowers this via the
#: environment to stay inside its time budget.
N_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "25"))


def setup(src):
    program = build_program(src)
    pre = run_preanalysis(program)
    return program, pre, compute_defuse(program, pre)


def node_by_cmd(program, fragment, proc=None):
    for node in program.nodes():
        if proc is not None and node.proc != proc:
            continue
        if fragment in str(node.cmd):
            return node
    raise AssertionError(f"no node matching {fragment!r}")


class TestAssignments:
    def test_simple_assign_defs_target_uses_source(self):
        program, pre, du = setup(
            "int x; int y; int main(void) { x = y; return 0; }"
        )
        n = node_by_cmd(program, "x := y")
        assert du.d(n.nid) == {VarLoc("x")}
        assert du.u(n.nid) == {VarLoc("y")}

    def test_constant_assign_uses_nothing(self):
        program, pre, du = setup("int x; int main(void) { x = 5; return 0; }")
        n = node_by_cmd(program, "x := 5", "main")
        assert du.u(n.nid) == set()
        assert du.strong_defs[n.nid] == {VarLoc("x")}

    def test_expression_uses_all_operands(self):
        program, pre, du = setup(
            "int a; int b; int c; int main(void) { a = b + c; return 0; }"
        )
        n = node_by_cmd(program, "a := (b + c)")
        assert du.u(n.nid) == {VarLoc("b"), VarLoc("c")}

    def test_store_through_pointer_defs_targets(self):
        program, pre, du = setup(
            """
            int a; int b; int *p;
            int main(void) { int c; if (c) p = &a; else p = &b; *p = 1; return 0; }
            """
        )
        n = node_by_cmd(program, "*(p) := 1")
        assert du.d(n.nid) == {VarLoc("a"), VarLoc("b")}
        # The paper's Û for *x := e always includes ŝ(x).P̂ and x itself.
        assert du.u(n.nid) == {VarLoc("p"), VarLoc("a"), VarLoc("b")}
        # Weak/pointer writes never seed must-defs.
        assert du.strong_defs[n.nid] == set()

    def test_weak_update_uses_target(self):
        """Definition 2's key point: a weak update *uses* its target."""
        program, pre, du = setup(
            """
            int arr[4];
            int main(void) { arr[2] = 7; return 0; }
            """
        )
        n = node_by_cmd(program, "(arr)[2] := 7")
        block = AllocLoc("__init:arr:2:arr")
        assert block in du.d(n.nid)
        assert block in du.u(n.nid)

    def test_assume_defines_and_uses_refined_var(self):
        program, pre, du = setup(
            "int main(void) { int x; x = 3; if (x < 10) x = 1; return x; }"
        )
        n = node_by_cmd(program, "assume((main::x < 10))")
        x = VarLoc("x", "main")
        assert x in du.d(n.nid)
        assert x in du.u(n.nid)


class TestCalls:
    SRC = """
    int g;
    int callee(int a) { g = a; return a + 1; }
    int main(void) { int r = callee(5); return r + g; }
    """

    def test_call_defines_params(self):
        program, pre, du = setup(self.SRC)
        n = node_by_cmd(program, "call callee", "main")
        assert VarLoc("a", "callee") in du.d(n.nid)

    def test_return_defines_retloc(self):
        program, pre, du = setup(self.SRC)
        n = node_by_cmd(program, "return (callee::a + 1)")
        assert RetLoc("callee") in du.d(n.nid)

    def test_retbind_uses_retloc(self):
        program, pre, du = setup(self.SRC)
        n = node_by_cmd(program, "retbind main::__ret", "main")
        assert RetLoc("callee") in du.u(n.nid)

    def test_proc_summaries_transitive(self):
        src = """
        int g;
        void inner(void) { g = 1; }
        void outer(void) { inner(); }
        int main(void) { outer(); return g; }
        """
        program, pre, du = setup(src)
        assert VarLoc("g") in du.proc_defs_trans["outer"]
        assert VarLoc("g") in du.proc_defs_trans["main"]
        assert VarLoc("g") not in du.proc_defs["main"] or True

    def test_proc_summaries_with_recursion(self):
        src = """
        int g;
        int f(int n) { if (n > 0) { g = n; return f(n - 1); } return 0; }
        int main(void) { return f(3); }
        """
        program, pre, du = setup(src)
        assert VarLoc("g") in du.proc_defs_trans["f"]
        assert "f" in du.proc_callees_trans["f"]


class TestMustDefs:
    def test_unconditional_assign_is_must(self):
        src = """
        int g;
        void set(void) { g = 7; }
        int main(void) { g = 1; set(); return g; }
        """
        program, pre, du = setup(src)
        assert VarLoc("g") in du.proc_must_defs["set"]

    def test_conditional_assign_is_not_must(self):
        src = """
        int g;
        void maybe(int c) { if (c) g = 7; }
        int main(void) { g = 1; maybe(0); return g; }
        """
        program, pre, du = setup(src)
        assert VarLoc("g") not in du.proc_must_defs["maybe"]

    def test_must_def_through_callee(self):
        src = """
        int g;
        void inner(void) { g = 7; }
        void outer(void) { inner(); }
        int main(void) { outer(); return g; }
        """
        program, pre, du = setup(src)
        assert VarLoc("g") in du.proc_must_defs["outer"]

    def test_pointer_write_not_must(self):
        src = """
        int g; int *p;
        void set(void) { p = &g; *p = 7; }
        int main(void) { set(); return g; }
        """
        program, pre, du = setup(src)
        assert VarLoc("g") not in du.proc_must_defs["set"]


class TestSafety:
    def test_average_sizes_small(self):
        """The sparsity observation: per-node D̂/Û are tiny."""
        src = """
        int g0; int g1; int g2; int g3;
        int f(int a) { g0 = a; return g1 + a; }
        int main(void) { g2 = f(1); g3 = f(2); return g2 + g3; }
        """
        program, pre, du = setup(src)
        d, u = du.average_sizes()
        assert d < 3 and u < 3

    def test_spurious_defs_are_used(self):
        """Definition 5(2): D̂ − D ⊆ Û — spurious definitions must appear
        in the use set so the value can flow through."""
        src = """
        int a; int b; int *p;
        int main(void) { int c; if (c) p = &a; else p = &b; *p = 1; return a; }
        """
        program, pre, du = setup(src)
        n = node_by_cmd(program, "*(p) := 1")
        # every (possibly spurious) def is also in Û
        assert du.d(n.nid) <= du.u(n.nid)

    def test_localization_set_covers_callee_accesses(self):
        src = """
        int g; int h;
        void touch_g(void) { g = g + 1; }
        int main(void) { touch_g(); return h; }
        """
        program, pre, du = setup(src)
        passed = localization_set(program, du, "touch_g")
        assert VarLoc("g") in passed
        assert RetLoc("touch_g") in passed
        assert VarLoc("h") not in passed


# -- bottom-up SCC summaries vs. the chaotic whole-program loops --------------


def assert_summaries_match(program):
    """Every summary field, for the interval D̂/Û and the pack D̂/Û."""
    pre = run_preanalysis(program)
    du = compute_defuse(program, pre)
    for field, expected in summaries_oracle(program, pre, du).items():
        assert getattr(du, field) == expected, field
    assert du.proc_must_defs == must_defs_oracle(program, pre, du)
    ctx = RelContext(program, pre, build_packs(program))
    rel = compute_rel_defuse(program, pre, ctx)
    for field, expected in summaries_oracle(program, pre, rel).items():
        assert getattr(rel, field) == expected, field
    assert rel.proc_must_defs == {p: frozenset() for p in program.procedures()}
    return du


class TestSummariesMatchOracle:
    @pytest.mark.parametrize(
        "spec", default_suite() + octagon_suite(), ids=lambda s: s.name
    )
    def test_codegen_rungs(self, spec):
        assert_summaries_match(build_program(generate_source(spec)))

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_example_files(self, path):
        assert_summaries_match(program_of_file(path))

    @pytest.mark.parametrize("seed", [17 * i + 2 for i in range(N_SEEDS)])
    def test_random_programs(self, seed):
        assert_summaries_match(build_program(generate_source(random_spec(seed))))

    def test_mutual_recursion_shares_one_summary(self):
        program = build_program(
            """
            int a; int b;
            int odd(int n);
            int even(int n) { a = n; if (n > 0) return odd(n - 1); return 1; }
            int odd(int n) { b = n; if (n > 0) return even(n - 1); return 0; }
            int main(void) { return even(4); }
            """
        )
        du = assert_summaries_match(program)
        assert du.proc_defs_trans["even"] == du.proc_defs_trans["odd"]
        assert {VarLoc("a"), VarLoc("b")} <= du.proc_defs_trans["main"]
        assert du.proc_callees_trans["main"] == {"main", "even", "odd"}
        assert VarLoc("a") in du.proc_must_defs["even"]
        assert VarLoc("b") not in du.proc_must_defs["even"]

    def test_recursive_scc_shrinks_together(self):
        """Every path of ``p`` runs through ``q``: solved first, ``p`` reads
        ``q``'s unshrunk may-def start and keeps ``b``, which ``q``'s base
        case never writes. Only re-solving the SCC drops it again."""
        program = build_program(
            """
            int a; int b;
            int q(int n);
            int p(int n) { return q(n); }
            int q(int n) { if (n > 0) { b = n; return p(n - 1); } a = 1; return 0; }
            int main(void) { return p(3); }
            """
        )
        du = assert_summaries_match(program)
        for proc in ("p", "q"):
            assert VarLoc("a") in du.proc_must_defs[proc]
            assert VarLoc("b") not in du.proc_must_defs[proc]
