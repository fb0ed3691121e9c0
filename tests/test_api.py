"""Public API tests."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import analyze
from repro.domains.interval import Interval


SRC = """
int g;
int main(void) {
  int i; int s = 0;
  for (i = 0; i < 10; i++) { s = i; }
  g = s;
  return s;
}
"""


class TestAnalyze:
    def test_default_is_sparse_interval(self):
        run = analyze(SRC)
        assert run.domain == "interval" and run.mode == "sparse"

    @pytest.mark.parametrize("mode", ["sparse", "base", "vanilla"])
    def test_interval_modes(self, mode):
        run = analyze(SRC, mode=mode)
        s = run.interval_at_exit("main", "s")
        assert s.contains(9)

    @pytest.mark.parametrize("mode", ["sparse", "vanilla"])
    def test_octagon_modes(self, mode):
        run = analyze(SRC, domain="octagon", mode=mode)
        assert run.result.table

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            analyze(SRC, domain="polyhedra")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            analyze(SRC, mode="turbo")

    @pytest.mark.parametrize("mode", ["sparse", "base", "vanilla"])
    def test_octagon_rejects_widening_thresholds(self, mode):
        with pytest.raises(
            ValueError, match="^widening_thresholds is an interval-domain option$"
        ):
            analyze(SRC, domain="octagon", mode=mode, widening_thresholds="auto")

    def test_global_query(self):
        run = analyze(SRC)
        g = run.interval_at_exit("main", "g")
        assert g.contains(9)

    def test_options_forwarded(self):
        run = analyze(SRC, narrowing_passes=2)
        s = run.interval_at_exit("main", "s")
        assert s.hi is not None and s.hi <= 9

    def test_missing_procedure_raises(self):
        run = analyze(SRC)
        with pytest.raises(KeyError):
            run.interval_at_exit("nonexistent", "x")

    def test_overrun_reports_from_api(self):
        run = analyze("int a[4]; int main(void) { a[9] = 1; return 0; }")
        reports = run.overrun_reports()
        assert any(r.verdict.value == "alarm" for r in reports)

    def test_overrun_requires_interval_domain(self):
        run = analyze(SRC, domain="octagon")
        with pytest.raises(ValueError):
            run.overrun_reports()

    def test_octagon_relational_query(self):
        src = """
        int main(void) {
          int x; int y;
          if (x >= 0 && x <= 10) { y = x + 1; return y; }
          return 0;
        }
        """
        run = analyze(src, domain="octagon")
        y = run.interval_of(
            next(
                n.nid
                for n in run.program.cfgs["main"].nodes
                if "return main::y" in str(n.cmd)
            ),
            "y",
            "main",
        )
        assert y.leq(Interval.range(1, 11))


def test_analyze_does_not_import_numpy():
    """The analyzer is pure Python: importing ``repro`` and running every
    domain and mode in a fresh interpreter loads no numpy."""
    script = f"""
import sys
import repro
src = {SRC!r}
for domain in ("interval", "octagon"):
    for mode in ("sparse", "base", "vanilla"):
        repro.analyze(src, domain=domain, mode=mode)
print("numpy" in sys.modules)
"""
    src_dir = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src_dir)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
