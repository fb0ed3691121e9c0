"""Data-dependency generation: SSA vs the reaching-defs oracle,
interprocedural edges, the bypass optimization, and the mask-based
generator vs the per-location one it replaced."""

import os

import pytest

from repro.analysis.datadep import DataDeps, bypass_optimization, generate_datadeps
from repro.analysis.defuse import compute_defuse
from repro.analysis.dense import build_interproc_graph
from repro.analysis.preanalysis import run_preanalysis
from repro.analysis.relational import RelContext, compute_rel_defuse
from repro.analysis.schedule import GraphView, _tarjan_sccs, widening_points_for
from repro.bench.codegen import default_suite, generate_source, octagon_suite
from repro.domains.absloc import RetLoc, VarLoc
from repro.domains.packs import build_packs
from repro.ir.program import build_program
from tests.analysis.datadep_oracle import (
    bypass_pairwise,
    chain_generator,
    per_location_datadeps,
)
from tests.conftest import EXAMPLE_FILES, program_of_file, random_spec, upto

#: number of random programs; CI's fuzz-smoke step lowers this via the
#: environment to stay inside its time budget.
N_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "25"))


def setup(src):
    program = build_program(src)
    pre = run_preanalysis(program)
    du = compute_defuse(program, pre)
    return program, pre, du


def node(program, fragment, proc=None):
    for n in program.nodes():
        if proc is not None and n.proc != proc:
            continue
        if fragment in str(n.cmd):
            return n
    raise AssertionError(fragment)


class TestDataDepsContainer:
    def test_add_and_has(self):
        d = DataDeps()
        d.add(1, 2, VarLoc("x"))
        assert d.has(1, 2, VarLoc("x"))
        assert not d.has(2, 1, VarLoc("x"))
        assert len(d) == 1

    def test_duplicate_add_is_idempotent(self):
        d = DataDeps()
        d.add(1, 2, VarLoc("x"))
        d.add(1, 2, VarLoc("x"))
        assert len(d) == 1

    def test_remove(self):
        d = DataDeps()
        d.add(1, 2, VarLoc("x"))
        d.remove(1, 2, VarLoc("x"))
        assert len(d) == 0 and not d.has(1, 2, VarLoc("x"))

    def test_remove_one_of_several_locations(self):
        """Both indexes share one location set per pair: removing a
        location updates both views and the count exactly once."""
        d = DataDeps()
        d.add(1, 2, VarLoc("x"))
        d.add(1, 2, VarLoc("y"))
        d.remove(1, 2, VarLoc("x"))
        d.remove(1, 2, VarLoc("x"))
        assert len(d) == 1
        assert dict(d.out_edges(1)) == {2: {VarLoc("y")}}
        assert dict(d.in_edges(2)) == {1: {VarLoc("y")}}
        d.remove(1, 2, VarLoc("y"))
        assert len(d) == 0 and d.out_edges(1) == [] and d.in_edges(2) == []

    def test_edges_grouped_by_pair(self):
        d = DataDeps()
        d.add(1, 2, VarLoc("x"))
        d.add(1, 2, VarLoc("y"))
        d.add(1, 3, VarLoc("x"))
        outs = dict(d.out_edges(1))
        assert outs[2] == {VarLoc("x"), VarLoc("y")}
        assert outs[3] == {VarLoc("x")}

    def test_edges_return_the_stored_frozenset(self):
        """One frozenset per pair, shared by both indexes and returned
        without a copy; ``add`` replaces it rather than mutating it."""
        d = DataDeps()
        d.add(1, 2, VarLoc("x"))
        before = dict(d.out_edges(1))[2]
        assert dict(d.in_edges(2))[1] is before
        assert dict(d.out_edges(1))[2] is before
        d.add(1, 2, VarLoc("y"))
        after = dict(d.out_edges(1))[2]
        assert before == {VarLoc("x")} and after == {VarLoc("x"), VarLoc("y")}
        assert dict(d.in_edges(2))[1] is after

    def test_in_edges_mirror(self):
        d = DataDeps()
        d.add(1, 3, VarLoc("x"))
        d.add(2, 3, VarLoc("x"))
        assert {src for src, _ in d.in_edges(3)} == {1, 2}


class TestIntraprocChains:
    SRC = """
    int main(void) {
      int x = 1;
      int y = x + 1;
      int z = x + y;
      return z;
    }
    """

    def test_straight_line_chains(self):
        program, pre, du = setup(self.SRC)
        deps = generate_datadeps(program, pre, du, bypass=False).deps
        nx = node(program, "x := 1").nid
        ny = node(program, "y := (main::x + 1)").nid
        nz = node(program, "z := (main::x + main::y)").nid
        x, y = VarLoc("x", "main"), VarLoc("y", "main")
        assert deps.has(nx, ny, x)
        assert deps.has(nx, nz, x)
        assert deps.has(ny, nz, y)

    def test_kill_breaks_chain(self):
        src = """
        int main(void) {
          int x = 1;
          x = 2;
          return x;
        }
        """
        program, pre, du = setup(src)
        deps = generate_datadeps(program, pre, du, bypass=False).deps
        n1 = node(program, "x := 1").nid
        n2 = node(program, "x := 2").nid
        ret = node(program, "return main::x").nid
        x = VarLoc("x", "main")
        assert deps.has(n2, ret, x)
        assert not deps.has(n1, ret, x)

    def test_branch_joins_create_multiple_sources(self):
        src = """
        int main(void) {
          int c; int x;
          if (c > 0) x = 1; else x = 2;
          return x;
        }
        """
        program, pre, du = setup(src)
        deps = generate_datadeps(program, pre, du).deps
        ret = node(program, "return main::x").nid
        x = VarLoc("x", "main")
        sources = {
            src_
            for src_, locs in deps.in_edges(ret)
            if x in locs
        }
        assert len(sources) == 2

    @pytest.mark.parametrize("method", ["ssa", "reaching"])
    def test_both_generators_same_endpoints(self, method):
        """SSA and reaching-defs produce the same real-def → real-use
        relation once pass-through (phi) nodes are bypassed."""
        src = """
        int main(void) {
          int i = 0; int s = 0;
          while (i < 5) { s = s + i; i = i + 1; }
          return s;
        }
        """
        program, pre, du = setup(src)
        with chain_generator(method):
            result = generate_datadeps(program, pre, du, bypass=True)
        s = VarLoc("s", "main")
        ret = node(program, "return main::s").nid
        sources = {
            src_ for src_, locs in result.deps.in_edges(ret) if s in locs
        }
        assert sources  # the return's s must come from somewhere real

    def test_ssa_reaching_bypassed_equal(self):
        src = """
        int g;
        int f(int a) { g = g + a; return g; }
        int main(void) {
          int t = 0; int i;
          for (i = 0; i < 3; i++) t = f(t);
          return t;
        }
        """
        program, pre, du = setup(src)
        ssa = generate_datadeps(program, pre, du, bypass=True)
        with chain_generator("reaching"):
            reaching = generate_datadeps(program, pre, du, bypass=True)
        assert set(ssa.deps.triples()) == set(reaching.deps.triples())


class TestInterprocEdges:
    SRC = """
    int g;
    int callee(int a) { g = g + a; return a; }
    int main(void) { g = 1; int r = callee(2); return r + g; }
    """

    def test_callsite_to_entry_for_used_locations(self):
        program, pre, du = setup(self.SRC)
        deps = generate_datadeps(program, pre, du, bypass=False).deps
        call = node(program, "call callee", "main").nid
        entry = program.cfgs["callee"].entry.nid
        assert deps.has(call, entry, VarLoc("g"))
        assert deps.has(call, entry, VarLoc("a", "callee"))

    def test_exit_to_retbind_for_defined_locations(self):
        program, pre, du = setup(self.SRC)
        deps = generate_datadeps(program, pre, du, bypass=False).deps
        exit_nid = program.cfgs["callee"].exit.nid
        retbind = node(program, "retbind main::__ret", "main").nid
        assert deps.has(exit_nid, retbind, VarLoc("g"))
        assert deps.has(exit_nid, retbind, RetLoc("callee"))

    def test_bypass_skips_uninvolved_procedures(self):
        """The Section 5 motivating example: x defined in f, unused in g,
        used in h along the chain f → g → h flows directly after bypass."""
        src = """
        int x;
        int h(void) { return x; }
        int g(void) { return h(); }
        int f(void) { x = 7; return g(); }
        int main(void) { return f(); }
        """
        program, pre, du = setup(src)
        result = generate_datadeps(program, pre, du, bypass=True)
        def_x = node(program, "x := 7", "f").nid
        use_x = node(program, "return x", "h").nid
        assert result.deps.has(def_x, use_x, VarLoc("x"))

    def test_spurious_interproc_deps_avoided(self):
        """The paper's f/h/g example: per-procedure generation must not
        create x-flow between unrelated callers of a shared callee."""
        src = """
        int x;
        int h(void) { return 0; }           /* does not touch x */
        int f(void) { x = 0; h(); return x; }
        int q(void) { x = 1; h(); return x; }
        int main(void) { return f() + q(); }
        """
        program, pre, du = setup(src)
        deps = generate_datadeps(program, pre, du, bypass=True).deps
        def_in_f = node(program, "x := 0", "f").nid
        use_in_q = node(program, "return x", "q").nid
        def_in_q = node(program, "x := 1", "q").nid
        use_in_f = node(program, "return x", "f").nid
        x = VarLoc("x")
        assert deps.has(def_in_f, use_in_f, x)
        assert deps.has(def_in_q, use_in_q, x)
        # no cross-talk through h
        assert not deps.has(def_in_f, use_in_q, x)
        assert not deps.has(def_in_q, use_in_f, x)


class TestBypassOptimization:
    def test_closure_equals_naive_rewriting(self):
        src = """
        int g;
        int inner(void) { return g; }
        int outer(void) { return inner(); }
        int main(void) { g = 3; return outer(); }
        """
        program, pre, du = setup(src)
        raw = generate_datadeps(program, pre, du, bypass=False).deps
        fast = bypass_optimization(raw, du)
        assert set(fast.triples()) == bypass_pairwise(raw.triples(), du)

    def test_bypass_reduces_edge_count(self):
        src = """
        int g;
        int c(void) { return g; }
        int b(void) { return c(); }
        int a(void) { return b(); }
        int main(void) { g = 1; return a(); }
        """
        program, pre, du = setup(src)
        result = generate_datadeps(program, pre, du, bypass=True)
        assert len(result.deps) < result.raw_dep_count

    def test_keep_set_prevents_bypassing(self):
        d = DataDeps()
        x = VarLoc("x")
        d.add(1, 2, x)
        d.add(2, 3, x)
        # with an empty defuse, node 2 is pure pass-through
        from repro.analysis.defuse import DefUseInfo

        du = DefUseInfo(defs={1: frozenset({x})}, uses={3: frozenset({x})})
        collapsed = bypass_optimization(d, du)
        assert collapsed.has(1, 3, x) and not collapsed.has(1, 2, x)
        kept = bypass_optimization(d, du, keep={2})
        assert kept.has(1, 2, x) and kept.has(2, 3, x)


# -- the one-pass closure vs. the raw relation and the pairwise oracle ---------


def _widening_points(program, pre, widen):
    graph = build_interproc_graph(program, pre.site_callees, localized=False)
    view = GraphView((program.entry_node().nid,), graph.succs)
    return widening_points_for(view, widen)[1]


def assert_one_pass_matches(program, pre, defuse):
    """``generate_datadeps`` never builds the raw relation when bypassing;
    its result must equal closing the raw relation afterwards, and the
    paper's pairwise rewriting, for both chain generators, with and
    without widening barriers."""
    for widen in (True, False):
        wps = _widening_points(program, pre, widen)
        for method in ("ssa", "reaching"):
            with chain_generator(method):
                raw = generate_datadeps(
                    program, pre, defuse, bypass=False, widening_points=wps
                )
                final = generate_datadeps(
                    program, pre, defuse, bypass=True, widening_points=wps
                )
            triples = set(final.deps.triples())
            assert len(triples) == len(final.deps)
            assert triples == set(
                bypass_optimization(raw.deps, defuse, keep=wps).triples()
            )
            assert triples == bypass_pairwise(raw.deps.triples(), defuse, wps)
            assert final.raw_dep_count == raw.raw_dep_count == len(raw.deps)


def _interval(program):
    pre = run_preanalysis(program)
    return program, pre, compute_defuse(program, pre)


def _octagon(program):
    pre = run_preanalysis(program)
    ctx = RelContext(program, pre, build_packs(program))
    return program, pre, compute_rel_defuse(program, pre, ctx)


def _passthrough_cycle(raw, defuse, keep) -> bool:
    """Whether some location's pass-through nodes form a cycle."""
    succs: dict = {}
    for src, dst, loc in raw.triples():
        if all(
            n not in keep and loc not in defuse.d(n) and loc not in defuse.u(n)
            for n in (src, dst)
        ):
            succs.setdefault((src, loc), []).append((dst, loc))
    return any(cyclic for _, cyclic in _tarjan_sccs(list(succs), succs, None))


class TestOnePassClosure:
    @pytest.mark.parametrize(
        "spec", upto(default_suite(), "make-mini"), ids=lambda s: s.name
    )
    def test_interval_rungs(self, spec):
        assert_one_pass_matches(*_interval(build_program(generate_source(spec))))

    @pytest.mark.parametrize(
        "spec", upto(octagon_suite(), "make-oct"), ids=lambda s: s.name
    )
    def test_octagon_pack_rungs(self, spec):
        assert_one_pass_matches(*_octagon(build_program(generate_source(spec))))

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_example_files(self, path):
        assert_one_pass_matches(*_interval(program_of_file(path)))

    @pytest.mark.parametrize("seed", [13 * i + 5 for i in range(N_SEEDS)])
    def test_random_programs(self, seed):
        program = build_program(generate_source(random_spec(seed)))
        assert_one_pass_matches(*_interval(program))

    def test_passthrough_cycle_without_widening(self):
        """Nested loops put pass-through phis for ``g`` on both heads, and
        a branch puts one on the inner join: without widening barriers the
        heads and the join form a pass-through cycle, which the closure must
        resolve to the same sources on every member."""
        program, pre, du = _interval(build_program("""
        int g;
        int main(void) {
          int i; int j; int c;
          for (i = 0; i < 3; i++) {
            for (j = 0; j < 2; j++) {
              if (c > j) g = i;
            }
          }
          return g;
        }
        """))
        raw = generate_datadeps(program, pre, du, bypass=False)
        assert _passthrough_cycle(raw.deps, du, set())
        assert_one_pass_matches(program, pre, du)
        assert_matches_per_location(program, pre, du)
        deps = generate_datadeps(program, pre, du).deps
        ret = node(program, "return g").nid
        sources = {src for src, locs in deps.in_edges(ret) if VarLoc("g") in locs}
        assert sources == {
            node(program, "g := main::i").nid,
            node(program, "g := 0", "__init").nid,  # the global's initialiser
        }


# -- location masks vs. the per-location generator ------------------------------


def _nonempty(table: dict) -> dict:
    return {nid: locs for nid, locs in table.items() if locs}


def assert_matches_per_location(program, pre, defuse):
    """Per-pair masks must give exactly the per-location generator's
    triples, raw count and augmented def/use sets, raw and bypassed, with
    and without widening barriers."""
    for widen in (True, False):
        wps = _widening_points(program, pre, widen)
        for bypass in (True, False):
            got = generate_datadeps(
                program, pre, defuse, bypass=bypass, widening_points=wps
            )
            triples, aug, raw = per_location_datadeps(
                program, pre, defuse, bypass=bypass, widening_points=wps
            )
            assert set(got.deps.triples()) == triples
            assert len(got.deps) == len(triples)
            assert got.raw_dep_count == raw
            for table in ("defs", "uses", "routed"):
                assert _nonempty(getattr(got.aug, table)) == _nonempty(
                    getattr(aug, table)
                )


class TestMatchesPerLocation:
    @pytest.mark.parametrize(
        "spec", upto(default_suite(), "vim-mini"), ids=lambda s: s.name
    )
    def test_interval_rungs(self, spec):
        assert_matches_per_location(*_interval(build_program(generate_source(spec))))

    @pytest.mark.parametrize(
        "spec", upto(octagon_suite(), "sendmail-oct"), ids=lambda s: s.name
    )
    def test_octagon_pack_rungs(self, spec):
        assert_matches_per_location(*_octagon(build_program(generate_source(spec))))

    @pytest.mark.parametrize("seed", [13 * i + 5 for i in range(N_SEEDS)])
    def test_random_programs(self, seed):
        program = build_program(generate_source(random_spec(seed)))
        assert_matches_per_location(*_interval(program))
