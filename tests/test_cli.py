"""CLI tests (python -m repro)."""

import re

import pytest

from repro.__main__ import main


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(
        """
        int buf[8];
        int main(void) {
          int i; int d = unknown();
          for (i = 0; i < 8; i++) buf[i] = 100 / (i + 1);
          buf[2] = 50 / d;
          return buf[9];
        }
        """
    )
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(
        """
        int a[4];
        int main(void) {
          int i;
          for (i = 0; i < 4; i++) a[i] = i;
          return a[0];
        }
        """
    )
    return str(path)


class TestAnalyzeCommand:
    def test_alarming_program_exits_1(self, demo_file, capsys):
        code = main(["analyze", demo_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "ALARM" in out

    def test_clean_program_exits_0(self, clean_file, capsys):
        code = main(["analyze", clean_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "SAFE" in out and "ALARM" not in out

    def test_divzero_checker(self, demo_file, capsys):
        code = main(["analyze", demo_file, "--check", "divzero"])
        out = capsys.readouterr().out
        assert "divzero" in out and "ALARM" in out

    def test_nullderef_checker(self, clean_file, capsys):
        main(["analyze", clean_file, "--check", "nullderef"])
        assert "nullderef" in capsys.readouterr().out

    def test_stats_flag(self, clean_file, capsys):
        main(["analyze", clean_file, "--stats"])
        out = capsys.readouterr().out
        assert "dependencies" in out and "control points" in out
        assert re.search(r"pre-analysis    : \d+ rounds, \d+ transfers", out)

    def test_query_flag(self, clean_file, capsys):
        main(["analyze", clean_file, "--query", "main:i"])
        out = capsys.readouterr().out
        assert "main:i at exit" in out

    def test_octagon_domain(self, clean_file, capsys):
        code = main(["analyze", clean_file, "--domain", "octagon", "--stats"])
        assert code == 0

    def test_vanilla_mode(self, clean_file):
        assert main(["analyze", clean_file, "--mode", "vanilla"]) == 0

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.c"]) == 2

    def test_scheduler_flag_is_gone(self, clean_file, capsys):
        """The fixpoint has one visit order (WTO); ``--scheduler`` is an
        unrecognized argument."""
        with pytest.raises(SystemExit) as exc:
            main(["analyze", clean_file, "--scheduler", "fifo"])
        assert exc.value.code == 2
        assert "--scheduler" in capsys.readouterr().err


class TestRobustness:
    @pytest.fixture
    def loopy_file(self, tmp_path):
        path = tmp_path / "loopy.c"
        path.write_text(
            """
            int g;
            int main(void) {
              int i; int s = 0;
              for (i = 0; i < 100; i++) { s = s + i; g = s; }
              return s;
            }
            """
        )
        return str(path)

    @pytest.fixture
    def broken_file(self, tmp_path):
        path = tmp_path / "broken.c"
        path.write_text("int main( {\n")
        return str(path)

    def test_budget_fail_exits_2_with_one_liner(self, loopy_file, capsys):
        code = main(["analyze", loopy_file, "--max-iterations", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1  # exactly one diagnostic line
        assert "error:" in err and "exceeded" in err
        assert "Traceback" not in err

    def test_budget_degrade_completes_with_note(self, loopy_file, capsys):
        code = main(
            [
                "analyze",
                loopy_file,
                "--max-iterations",
                "3",
                "--on-budget",
                "degrade",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "degraded" in captured.err
        assert "main" in captured.err

    def test_budget_seconds_flag_accepted(self, loopy_file):
        # a generous wall-clock budget must not perturb a normal run
        assert main(["analyze", loopy_file, "--budget-seconds", "60"]) == 0

    def test_parse_error_one_line_diagnostic(self, broken_file, capsys):
        code = main(["analyze", broken_file])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "broken.c" in err  # file:line:col prefix
        assert "Traceback" not in err

    def test_degrade_query_still_answers(self, loopy_file, capsys):
        code = main(
            [
                "analyze",
                loopy_file,
                "--max-iterations",
                "3",
                "--on-budget",
                "degrade",
                "--query",
                "main:g",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "main:g at exit" in out


class TestTablesCommand:
    def test_table1_quick(self, capsys):
        code = main(["tables", "table1", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "maxSCC" in out
