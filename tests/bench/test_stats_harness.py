"""Table-1 statistics and harness smoke tests."""

import pytest

from repro.bench.codegen import WorkloadSpec, generate_source
from repro.bench.harness import MODES, render, table1, table2, table3
from repro.bench.stats import compute_stats, count_basic_blocks
from repro.ir.program import build_program


SMALL = [
    WorkloadSpec("tiny-a", n_functions=3, n_globals=3, stmts_per_function=5,
                 recursion_cycle=0, seed=41),
    WorkloadSpec("tiny-b", n_functions=4, n_globals=3, stmts_per_function=5,
                 recursion_cycle=2, seed=42),
]


class TestStats:
    def test_columns_populated(self):
        src = generate_source(SMALL[0])
        stats = compute_stats("tiny-a", src)
        assert stats.loc > 10
        assert stats.functions >= 3
        assert stats.statements > stats.functions
        assert stats.blocks > 0
        assert stats.max_scc >= 1
        assert stats.abslocs > 0

    def test_max_scc_tracks_recursion(self):
        a = compute_stats("a", generate_source(SMALL[0]))
        b = compute_stats("b", generate_source(SMALL[1]))
        assert b.max_scc >= 2 > a.max_scc or b.max_scc >= a.max_scc

    def test_basic_blocks_fewer_than_statements(self):
        src = generate_source(SMALL[0])
        program = build_program(src)
        for cfg in program.cfgs.values():
            assert count_basic_blocks(cfg) <= len(cfg.nodes)

    def test_loc_counts_lines(self):
        stats = compute_stats("x", "int main(void) {\n return 0;\n}\n")
        assert stats.loc == 3


@pytest.fixture(scope="module")
def table2_rows():
    # each run is a child process; the Table 2 tests share one set of runs.
    # A seconds budget, generous for these programs: every run finishes
    return table2(SMALL, budget=60.0)


class TestHarness:
    def test_table1_rows(self):
        rows = table1(SMALL)
        assert len(rows) == 2
        assert rows[0][0] == "tiny-a"

    def test_table2_shape(self, table2_rows):
        for row in table2_rows:
            assert {"program", "vanilla", "base", "sparse"} <= set(row)
            for mode in MODES:
                m = row[mode]
                assert not m.timed_out
                # measured in the child process, so at least the RSS of a
                # Python interpreter
                assert m.peak_mb > 5
            assert row["avg_d"] >= 0

    def test_table2_sparse_not_slower_than_vanilla(self, table2_rows):
        for row in table2_rows:
            sparse_total = row["dep_s"] + row["fix_s"]
            assert 0 < sparse_total <= row["sparse"].time_s
            # generous: on tiny programs constant factors dominate
            assert sparse_total <= row["vanilla"].time_s * 5 + 1.0

    def test_budget_too_small_prints_infinity(self, capsys):
        rows = table2(SMALL[:1], budget=0.0)
        assert all(rows[0][mode].timed_out for mode in MODES)
        render(rows, "interval")
        cells = capsys.readouterr().out.splitlines()[-1].split()
        assert cells[:2] == ["tiny-a", str(rows[0]["loc"])]
        assert set(cells[2:]) == {"∞", "N/A"}
        # each mode's time is ∞ and its memory N/A
        assert cells[2:6] == ["∞", "N/A", "∞", "N/A"]
        assert cells[10:12] == ["∞", "N/A"]

    def test_table3_shape(self):
        specs = [
            WorkloadSpec("oct-tiny", n_functions=3, n_globals=3,
                         stmts_per_function=5, recursion_cycle=0, seed=43)
        ]
        rows = table3(specs, budget=60.0)
        (row,) = rows
        assert not row["sparse"].timed_out
        assert row["avg_pack"] >= 1
