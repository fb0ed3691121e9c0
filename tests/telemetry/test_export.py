"""Exporter tests: the Chrome-trace JSON round-trips through ``json``
with monotone timestamps, and the phase report aggregates outermost
same-named spans into Table-2-style rows."""

import json
import os

import pytest

from repro.telemetry import NULL_TELEMETRY, Telemetry, chrome_trace, phase_report


def _pipeline_run() -> Telemetry:
    """A miniature analysis run: every canonical phase plus nesting."""
    tel = Telemetry()
    with tel.span("frontend"):
        pass
    with tel.span("pre-analysis"):
        tel.gauge("pre.rounds", 2)
    with tel.span("dep-gen"):
        tel.count("dep.generated", 120)
        tel.count("dep.bypassed", 30)
    with tel.span("fixpoint", scheduler="wto"):
        with tel.span("fixpoint"):  # per-procedure solve nested inside
            tel.count("fixpoint.iterations", 40)
        tel.count("sched.pops", 200)
    with tel.span("checkers"):
        tel.count("checkers.reports", 3)
    return tel


class TestChromeTrace:
    def test_round_trips_through_json(self):
        trace = chrome_trace(_pipeline_run())
        decoded = json.loads(json.dumps(trace))
        assert decoded["displayTimeUnit"] == "ms"
        assert decoded["traceEvents"]

    def test_one_complete_event_per_span_plus_metrics(self):
        tel = _pipeline_run()
        n_spans = sum(len(list(r.walk())) for r in tel.roots)
        events = chrome_trace(tel)["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == n_spans == 6
        assert len(instants) == 1 and instants[0]["name"] == "metrics"

    def test_ts_monotone_and_dur_nonnegative(self):
        events = chrome_trace(_pipeline_run())["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        ts = [e["ts"] for e in complete]
        assert ts == sorted(ts)
        assert all(e["dur"] >= 0 for e in complete)
        # metrics instant sits at or after the last span's end
        meta = events[-1]
        assert meta["ph"] == "i"
        assert meta["ts"] >= complete[-1]["ts"]

    def test_parent_starts_at_or_before_child(self):
        events = chrome_trace(_pipeline_run())["traceEvents"]
        fixpoints = [e for e in events if e["name"] == "fixpoint"]
        assert len(fixpoints) == 2
        outer, inner = sorted(fixpoints, key=lambda e: e["dur"], reverse=True)
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"]

    def test_metrics_event_carries_counters_and_gauges(self):
        decoded = json.loads(json.dumps(chrome_trace(_pipeline_run())))
        meta = decoded["traceEvents"][-1]
        assert meta["args"]["counters"]["sched.pops"] == 200
        assert meta["args"]["gauges"]["pre.rounds"] == 2

    def test_span_attrs_and_cpu_exported_as_args(self):
        events = chrome_trace(_pipeline_run())["traceEvents"]
        outer_fix = next(
            e for e in events if e["name"] == "fixpoint" and "scheduler" in e["args"]
        )
        assert outer_fix["args"]["scheduler"] == "wto"
        assert "cpu_ms" in outer_fix["args"]

    def test_empty_registry_still_valid(self):
        decoded = json.loads(json.dumps(chrome_trace(NULL_TELEMETRY)))
        (meta,) = decoded["traceEvents"]
        assert meta["ph"] == "i" and meta["ts"] == 0


class TestPhaseReport:
    def test_rows_in_canonical_order_and_only_ran_phases(self):
        report = phase_report(_pipeline_run())
        assert [r.phase for r in report.rows] == [
            "frontend", "pre-analysis", "dep-gen", "fixpoint", "checkers",
        ]  # narrowing never ran → omitted

    def test_nested_same_name_span_counted_once(self):
        report = phase_report(_pipeline_run())
        fix = report.row("fixpoint")
        assert fix.count == 1
        # outermost wall already includes the nested solve
        assert report.total_wall >= fix.wall

    def test_details_pull_matching_counters(self):
        report = phase_report(_pipeline_run())
        assert report.row("dep-gen").details["dep.generated"] == 120
        assert report.row("fixpoint").details["sched.pops"] == 200
        assert report.row("pre-analysis").details["pre.rounds"] == 2

    def test_as_dict_matches_rows_and_survives_json(self):
        report = phase_report(_pipeline_run())
        d = json.loads(json.dumps(report.as_dict()))
        assert set(d["phases"]) == {r.phase for r in report.rows}
        assert d["phases"]["checkers"]["checkers.reports"] == 3
        assert d["total_wall_s"] == report.total_wall
        assert d["counters"]["dep.generated"] == 120

    def test_text_lists_every_phase_and_total(self):
        report = phase_report(_pipeline_run())
        text = report.text()
        for r in report.rows:
            assert r.phase in text
        assert "total" in text
        assert "pops=200" in text

    def test_text_reports_peak_memory_when_sampled(self):
        tel = Telemetry(track_memory=True)
        try:
            with tel.span("fixpoint"):
                _ballast = [0] * 10_000
        finally:
            tel.close()
        assert "peak memory" in phase_report(tel).text()

    def test_multiple_top_level_occurrences_sum(self):
        tel = Telemetry()
        for _ in range(3):
            with tel.span("checkers"):
                pass
        report = phase_report(tel)
        assert report.row("checkers").count == 3


class TestEndToEnd:
    def test_real_analysis_produces_phase_rows_and_trace(self):
        """The API entry point wired in ISSUE 4: an actual run yields
        Table-2 rows for every pipeline phase and a valid trace."""
        from repro.api import analyze

        source = """
        int g;
        int inc(int x) { return x + 1; }
        int main(void) { g = inc(3); return g; }
        """
        tel = Telemetry()
        analyze(source, domain="interval", mode="sparse", telemetry=tel)
        report = phase_report(tel)
        phases = {r.phase for r in report.rows}
        assert {"frontend", "pre-analysis", "dep-gen", "fixpoint"} <= phases
        assert report.counters["fixpoint.iterations"] > 0
        assert report.counters["dep.generated"] > 0
        assert report.gauges["dep.final"] > 0
        decoded = json.loads(json.dumps(chrome_trace(tel)))
        names = {e["name"] for e in decoded["traceEvents"]}
        assert {"fixpoint", "dep-gen", "metrics"} <= names

    def test_every_listed_detail_is_set_by_a_real_run(self):
        """Each counter/gauge the phase report lists under the analysis
        phases is set by a traced sparse run with narrowing plus a checker
        on the same registry, so no listed name is dead."""
        from repro.api import analyze
        from repro.checkers import run_checker
        from repro.telemetry.export import _PHASE_DETAILS

        source = """
        int g;
        int main(void) {
          int i; int s = 0;
          for (i = 0; i < 100; i++) { s = s + i; g = s; }
          return s;
        }
        """
        tel = Telemetry()
        run = analyze(
            source, domain="interval", mode="sparse", narrowing_passes=2,
            telemetry=tel,
        )
        run_checker("overrun", run.program, run.result, telemetry=tel)
        report = phase_report(tel)
        for phase in ("pre-analysis", "dep-gen", "fixpoint", "narrowing", "checkers"):
            details = report.row(phase).details
            assert set(_PHASE_DETAILS[phase]) <= set(details), phase


class TestCrashSafeWrites:
    """Regression tests for the atomic exporter file writes: a crash (or
    serialization failure) mid-export must never leave a truncated or
    half-written file where a previous good export used to be."""

    def test_write_chrome_trace_round_trips(self, tmp_path):
        from repro.telemetry import write_chrome_trace

        tel = _pipeline_run()
        path = tmp_path / "trace.json"
        n = write_chrome_trace(tel, path)
        assert n == path.stat().st_size > 0
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(chrome_trace(tel))
        )
        assert os.listdir(tmp_path) == ["trace.json"]  # no temp debris

    def test_write_phase_report_round_trips(self, tmp_path):
        from repro.telemetry import write_phase_report

        tel = _pipeline_run()
        path = tmp_path / "phases.json"
        n = write_phase_report(tel, path)
        assert n == path.stat().st_size > 0
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(phase_report(tel).as_dict())
        )

    def test_failed_export_preserves_previous_file(self, tmp_path):
        from repro.telemetry import write_chrome_trace

        path = tmp_path / "trace.json"
        write_chrome_trace(_pipeline_run(), path)
        good = path.read_bytes()

        poisoned = Telemetry()
        with poisoned.span("fixpoint", bad=object()):  # not JSON-serializable
            pass
        with pytest.raises(TypeError):
            write_chrome_trace(poisoned, path)
        assert path.read_bytes() == good  # old export untouched
        assert os.listdir(tmp_path) == ["trace.json"]  # temp file cleaned up


class TestPreAnalysisVisits:
    def test_semi_naive_rounds_visit_fewer_than_every_node(self):
        """A loop plus a pointer chain keeps the pre-analysis going for
        several rounds; later rounds re-run only the readers of changed
        locations, so the visit count stays below rounds × nodes."""
        from repro.analysis.preanalysis import run_preanalysis
        from repro.ir.program import build_program

        program = build_program(
            """
            int g; int h; int *p; int *q;
            int main(void) {
              int i; int s = 0;
              for (i = 0; i < 100; i++) { s = s + i; g = s; }
              q = p; p = &h; h = g;
              return *q;
            }
            """
        )
        tel = Telemetry()
        pre = run_preanalysis(program, telemetry=tel)
        row = phase_report(tel).row("pre-analysis")
        rounds, visits = row.details["pre.rounds"], row.details["pre.visits"]
        assert (rounds, visits) == (pre.rounds, pre.visits)
        assert rounds >= 4
        assert 0 < visits < rounds * len(program.nodes())
        (span,) = tel.spans_named("pre-analysis")
        assert span.attrs["visits"] == visits
        assert f"visits={visits}" in phase_report(tel).text()
