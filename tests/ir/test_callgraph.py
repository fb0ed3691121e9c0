"""Call graph and SCC tests."""

from repro.analysis.preanalysis import run_preanalysis
from repro.ir.callgraph import build_callgraph
from repro.ir.program import build_program


def cg_of(src: str, with_pre: bool = False):
    program = build_program(src)
    if with_pre:
        pre = run_preanalysis(program)
        return build_callgraph(
            program, resolve=lambda node: pre.site_callees.get(node.nid, ())
        )
    return build_callgraph(program)


class TestDirectCalls:
    def test_simple_edge(self):
        cg = cg_of("int f(void){return 1;} int main(void){return f();}")
        assert "f" in cg.callees["main"]
        assert "main" in cg.callers["f"]

    def test_init_calls_main(self):
        cg = cg_of("int main(void){return 0;}")
        assert "main" in cg.callees["__init"]

    def test_external_calls_ignored(self):
        cg = cg_of("int main(void){return unknown_fn(1);}")
        assert cg.callees["main"] == set()

    def test_site_callees_recorded(self):
        program = build_program(
            "int f(void){return 1;} int main(void){return f();}"
        )
        cg = build_callgraph(program)
        assert ("f",) in cg.site_callees.values()


class TestSCC:
    def test_no_recursion_max_scc_one(self):
        cg = cg_of("int f(void){return 1;} int main(void){return f();}")
        assert cg.max_scc_size() == 1

    def test_self_recursion(self):
        cg = cg_of(
            "int f(int n){ if (n>0) return f(n-1); return 0; }"
            "int main(void){return f(3);}"
        )
        assert cg.recursive_procs() == {"f"}
        assert cg.max_scc_size() == 1  # self loop is an SCC of size 1

    def test_mutual_recursion(self):
        src = """
        int odd(int n);
        int even(int n) { if (n == 0) return 1; return odd(n - 1); }
        int odd(int n) { if (n == 0) return 0; return even(n - 1); }
        int main(void) { return even(4); }
        """
        cg = cg_of(src)
        assert cg.max_scc_size() == 2
        assert cg.recursive_procs() == {"even", "odd"}

    def test_three_cycle(self):
        src = """
        int a(int n); int b(int n); int c(int n);
        int a(int n) { if (n <= 0) return 0; return b(n - 1); }
        int b(int n) { if (n <= 0) return 0; return c(n - 1); }
        int c(int n) { if (n <= 0) return 0; return a(n - 1); }
        int main(void) { return a(5); }
        """
        assert cg_of(src).max_scc_size() == 3

    def test_sccs_reverse_topological(self):
        src = """
        int leaf(void) { return 1; }
        int mid(void) { return leaf(); }
        int main(void) { return mid(); }
        """
        sccs = cg_of(src).sccs()
        order = {frozenset(s): i for i, s in enumerate(sccs)}
        assert order[frozenset({"leaf"})] < order[frozenset({"main"})]


class TestFunctionPointers:
    def test_funcptr_resolved_by_preanalysis(self):
        src = """
        int inc(int x) { return x + 1; }
        int dec(int x) { return x - 1; }
        int main(void) {
          int (*op)(int);
          int v;
          if (v) { op = &inc; } else { op = &dec; }
          return op(5);
        }
        """
        cg = cg_of(src, with_pre=True)
        assert cg.callees["main"] == {"inc", "dec"}

    def test_funcptr_without_address_of(self):
        src = """
        int inc(int x) { return x + 1; }
        int main(void) {
          int (*op)(int);
          op = inc;
          return op(5);
        }
        """
        cg = cg_of(src, with_pre=True)
        assert cg.callees["main"] == {"inc"}


class TestSCCCache:
    SRC = """
    int g(void) { return 2; }
    int f(void) { return g(); }
    int main(void) { return f(); }
    """

    def test_sccs_memoized(self):
        cg = cg_of(self.SRC)
        assert cg.sccs() is cg.sccs()

    def test_add_call_invalidates(self):
        program = build_program(self.SRC)
        cg = build_callgraph(program)
        before = cg.sccs()
        assert cg.max_scc_size() == 1
        # add a back edge g -> f through a real call site node: f and g
        # collapse into one SCC, which only happens if the memo is dropped
        site = next(
            node for node in program.factory.nodes.values() if node.proc == "g"
        )
        cg.add_call(site, "f")
        after = cg.sccs()
        assert after is not before
        assert cg.max_scc_size() == 2
        assert {"f", "g"} in (set(s) for s in after)

    def test_explicit_invalidate(self):
        cg = cg_of(self.SRC)
        first = cg.sccs()
        cg.invalidate()
        assert cg.sccs() is not first
        assert [set(s) for s in cg.sccs()] == [set(s) for s in first]
