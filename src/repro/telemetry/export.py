"""Telemetry exporters.

Two consumers, two formats:

* :func:`chrome_trace` — the Chrome ``chrome://tracing`` / Perfetto JSON
  object format: one complete (``"ph": "X"``) event per span with
  microsecond ``ts``/``dur``, plus one instant event carrying the final
  counter/gauge snapshot. Load the written file in ``chrome://tracing``
  to see the pipeline phases on a timeline.
* :func:`phase_report` — a Table-2-style per-phase breakdown. The rows
  are the canonical pipeline phases (:data:`repro.telemetry.core.PHASES`)
  and map onto the paper's columns: *pre-analysis* is Table 2's implicit
  pre-analysis cost, *dep-gen* is the ``Dep`` column, *fixpoint* the
  ``Fix`` column, and ``mem.peak_bytes`` the ``Mem`` columns; *frontend*
  and *checkers* are the phases the paper folds into its totals.

File writes (:func:`write_chrome_trace`, :func:`write_phase_report`) are
crash-safe: serialization happens fully in memory, then the bytes land via
atomic temp-file + ``os.replace`` (:mod:`repro.runtime.atomicio`) — a
crash mid-export never leaves truncated JSON behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.core import PHASES, Span, Telemetry


def _span_events(span: Span, pid: int) -> list[dict]:
    event = {
        "name": span.name,
        "cat": span.category,
        "ph": "X",
        "ts": round(span.start * 1e6, 3),
        "dur": round(span.wall * 1e6, 3),
        "pid": pid,
        "tid": span.tid,
    }
    args = dict(span.attrs)
    args["cpu_ms"] = round(span.cpu * 1e3, 3)
    if span.peak_bytes is not None:
        args["peak_bytes"] = span.peak_bytes
    event["args"] = args
    out = [event]
    for child in span.children:
        out.extend(_span_events(child, pid))
    return out


def chrome_trace(tel: Telemetry, pid: int = 1) -> dict:
    """The Chrome trace JSON object for everything the registry recorded.

    Serializable with plain ``json.dumps``; event ``ts`` values share one
    monotonic epoch (the registry's construction time), so parents always
    start at or before their children.
    """
    events: list[dict] = []
    for root in tel.roots:
        events.extend(_span_events(root, pid))
    events.sort(key=lambda e: e["ts"])
    meta = {
        "name": "metrics",
        "cat": "telemetry",
        "ph": "i",
        "s": "g",
        "ts": events[-1]["ts"] + events[-1]["dur"] if events else 0,
        "pid": pid,
        "tid": 0,
        "args": {"counters": dict(tel.counters), "gauges": dict(tel.gauges)},
    }
    events.append(meta)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tel: Telemetry, path, pid: int = 1) -> int:
    """Serialize :func:`chrome_trace` and write it crash-safely; returns
    the byte count."""
    from repro.runtime.atomicio import atomic_write_json

    return atomic_write_json(path, chrome_trace(tel, pid))


def write_phase_report(tel: Telemetry, path) -> int:
    """Serialize :func:`phase_report`'s dict form and write it
    crash-safely; returns the byte count."""
    from repro.runtime.atomicio import atomic_write_json

    return atomic_write_json(path, phase_report(tel).as_dict(), indent=2)


# --------------------------------------------------------------------------
# Per-phase report
# --------------------------------------------------------------------------

#: counters/gauges shown next to the phase they describe
_PHASE_DETAILS = {
    "pre-analysis": ("pre.rounds", "pre.visits"),
    "query": (
        "query.resident",
        "query.cone",
        "query.global",
        "query.global-fallback",
    ),
    "edit": (
        "edit.edits",
        "edit.retained_nodes",
        "edit.dirty_nodes",
    ),
    "dep-gen": (
        "dep.generated",
        "dep.bypassed",
        "dep.widening_barriers",
    ),
    "fixpoint": (
        "fixpoint.iterations",
        "sched.pops",
        "sched.revisits",
        "fixpoint.reachable_nodes",
    ),
    "narrowing": ("narrowing.iterations",),
    "checkers": ("checkers.reports",),
}


@dataclass
class PhaseRow:
    """Aggregated timings for one pipeline phase."""

    phase: str
    wall: float = 0.0
    cpu: float = 0.0
    count: int = 0
    details: dict = field(default_factory=dict)


@dataclass
class PhaseReport:
    """The per-phase breakdown plus the raw counter/gauge snapshot."""

    rows: list[PhaseRow]
    counters: dict
    gauges: dict

    @property
    def total_wall(self) -> float:
        return sum(r.wall for r in self.rows)

    def row(self, phase: str) -> PhaseRow | None:
        for r in self.rows:
            if r.phase == phase:
                return r
        return None

    def as_dict(self) -> dict:
        return {
            "phases": {
                r.phase: {
                    "wall_s": r.wall,
                    "cpu_s": r.cpu,
                    "spans": r.count,
                    **r.details,
                }
                for r in self.rows
            },
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "total_wall_s": self.total_wall,
        }

    def text(self) -> str:
        lines = [
            f"{'phase':<14}{'wall(s)':>10}{'cpu(s)':>10}{'spans':>7}  detail",
            "-" * 72,
        ]
        for r in self.rows:
            detail = "  ".join(
                f"{k.split('.', 1)[-1]}={_fmt(v)}" for k, v in r.details.items()
            )
            lines.append(
                f"{r.phase:<14}{r.wall:>10.3f}{r.cpu:>10.3f}{r.count:>7}  {detail}"
            )
        lines.append("-" * 72)
        lines.append(f"{'total':<14}{self.total_wall:>10.3f}")
        peak = self.gauges.get("mem.peak_bytes")
        if peak is not None:
            lines.append(f"peak memory   {peak / 1e6:>10.2f} MB (tracemalloc)")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def phase_report(tel: Telemetry) -> PhaseReport:
    """Aggregate same-named spans into the canonical phase rows.

    Only *top-level occurrences* of each phase name are summed (a
    ``fixpoint`` span nested under another ``fixpoint`` span counts once),
    so wall times add up to the pipeline total. Phases that never ran are
    omitted.
    """
    rows: list[PhaseRow] = []
    for phase in PHASES:
        spans = _outermost_named(tel, phase)
        if not spans:
            continue
        row = PhaseRow(
            phase,
            wall=sum(s.wall for s in spans),
            cpu=sum(s.cpu for s in spans),
            count=len(spans),
        )
        for key in _PHASE_DETAILS.get(phase, ()):
            value = tel.counters.get(key, tel.gauges.get(key))
            if value is not None:
                row.details[key] = value
        rows.append(row)
    return PhaseReport(rows, dict(tel.counters), dict(tel.gauges))


def _outermost_named(tel: Telemetry, name: str) -> list[Span]:
    """Spans with ``name`` whose ancestors do not carry the same name."""
    out: list[Span] = []

    def visit(span: Span) -> None:
        if span.name == name:
            out.append(span)
            return  # nested same-name spans fold into this one
        for child in span.children:
            visit(child)

    for root in tel.roots:
        visit(root)
    return out
