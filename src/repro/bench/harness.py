"""Experiment harness — regenerates the paper's tables.

* ``table1`` — benchmark characteristics (LOC, Functions, Statements,
  Blocks, maxSCC, AbsLocs);
* ``table2`` — interval analysis: ``vanilla`` vs ``base`` (access-based
  localization) vs ``sparse``, with time, peak memory, Dep/Fix split,
  speedups, memory savings and average |D̂(c)|/|Û(c)|;
* ``table3`` — the same comparison for the octagon analyses.

Like the paper's 24-hour limit, analyses get an iteration budget (and the
dense analyzers a size threshold); runs beyond it are reported as ``∞``
and the derived speedups as ``N/A``. Memory is modelled deterministically
from the retained data structures (see ``_estimate_memory_mb``).

Run from the command line::

    python -m repro.bench.harness table1
    python -m repro.bench.harness table2 [--quick]
    python -m repro.bench.harness table3 [--quick]
    python -m repro.bench.harness all --quick

``--json OUT`` additionally writes the raw rows (times, memory, per-phase
breakdowns) as JSON; the write is atomic, so a killed harness never leaves
a truncated results file behind.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from repro.analysis.dense import run_dense
from repro.analysis.preanalysis import run_preanalysis
from repro.analysis.relational import run_rel_dense, run_rel_sparse
from repro.analysis.sparse import run_sparse
from repro.bench.codegen import (
    WorkloadSpec,
    default_suite,
    generate_source,
    octagon_suite,
)
from repro.bench.stats import compute_stats
from repro.ir.program import build_program
from repro.runtime.errors import BudgetExceeded
from repro.telemetry import Telemetry, phase_report

#: iteration budgets, per analysis — the "24h timeout" analog. Vanilla gets
#: the same budget as the others; it just burns it much faster.
DEFAULT_BUDGET = 400_000
QUICK_BUDGET = 25_000


@dataclass
class Measurement:
    """One analyzer's run on one program."""

    time_s: float | None = None  # None = budget exceeded (paper's ∞)
    peak_mb: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def timed_out(self) -> bool:
        return self.time_s is None

    def phase(self, name: str, default: float = 0.0) -> float:
        """Wall seconds the telemetry registry recorded for one phase."""
        phases = self.extra.get("phases", {})
        return phases.get(name, {}).get("wall_s", default)


#: bytes per abstract-state entry in the memory model (dict slot + AbsValue)
_ENTRY_BYTES = 200


def _estimate_memory_mb(result) -> float:
    """Deterministic memory model: total state entries retained by the
    fixpoint table (the dominant allocation), plus dependency storage.

    tracemalloc would slow the dense analyses several-fold and measure the
    Python allocator rather than the representation the paper compares, so
    the harness models memory from the data-structure sizes instead.
    """
    entries = sum(len(state) for state in result.table.values())
    total = entries * _ENTRY_BYTES
    deps = getattr(result, "deps", None)
    if deps is not None:
        total += len(deps) * 80  # triple + two index slots
    return total / 1e6


def _measure(fn) -> Measurement:
    """Run one analyzer under a fresh telemetry registry.

    ``fn`` receives the registry and forwards it to the analysis; the
    per-phase wall-clock breakdown (the paper's Pre/Dep/Fix columns) then
    comes from one consistent source instead of per-harness timers. Memory
    stays on the deterministic data-structure model (tracemalloc would
    slow dense runs severalfold and measure the Python allocator instead
    of the representation the paper compares).
    """
    tel = Telemetry(enabled=True)
    start = time.perf_counter()
    try:
        result = fn(tel)
    except BudgetExceeded:
        return Measurement(None, None)
    elapsed = time.perf_counter() - start
    m = Measurement(elapsed, _estimate_memory_mb(result))
    m.extra["result"] = result
    m.extra["phases"] = phase_report(tel).as_dict()["phases"]
    return m


def _fmt_time(m: Measurement) -> str:
    return "∞" if m.timed_out else f"{m.time_s:8.2f}"

def _fmt_mem(m: Measurement) -> str:
    return "N/A" if m.timed_out else f"{m.peak_mb:7.1f}"


def _speedup(slow: Measurement, fast: Measurement) -> str:
    if slow.timed_out or fast.timed_out or fast.time_s == 0:
        return "N/A"
    return f"{slow.time_s / fast.time_s:5.1f}x"


def _mem_saving(big: Measurement, small: Measurement) -> str:
    if big.timed_out or small.timed_out or not big.peak_mb:
        return "N/A"
    return f"{100 * (1 - small.peak_mb / big.peak_mb):4.0f}%"


# --------------------------------------------------------------------------
# Table 1
# --------------------------------------------------------------------------


def table1(specs: list[WorkloadSpec] | None = None) -> list[tuple]:
    """Benchmark characteristics (Table 1)."""
    specs = specs or default_suite()
    rows = []
    for spec in specs:
        source = generate_source(spec)
        stats = compute_stats(spec.name, source)
        rows.append(stats.row())
    return rows


def print_table1(specs: list[WorkloadSpec] | None = None) -> None:
    header = ("Program", "LOC", "Functions", "Statements", "Blocks", "maxSCC", "AbsLocs")
    rows = table1(specs)
    _print_rows(header, rows)


# --------------------------------------------------------------------------
# Table 2 — interval domain
# --------------------------------------------------------------------------


def table2(
    specs: list[WorkloadSpec] | None = None,
    budget: int = DEFAULT_BUDGET,
    skip_vanilla_above: int = 1_600,
    skip_base_above: int = 2_600,
) -> list[dict]:
    """Interval analysis comparison (Table 2). Returns one dict per
    program with the paper's columns.

    Mirroring the paper's 24-hour timeout pattern (vanilla gives out first,
    then base, sparse survives everywhere), the dense analyzers are marked
    ∞ beyond a size threshold instead of burning hours proving it.
    """
    specs = specs or default_suite()
    rows: list[dict] = []
    for spec in specs:
        source = generate_source(spec)
        program = build_program(source)
        pre = run_preanalysis(program)
        n_nodes = program.num_statements()

        if n_nodes <= skip_vanilla_above:
            vanilla = _measure(
                lambda tel: run_dense(
                    program, pre, max_iterations=budget, telemetry=tel
                )
            )
        else:
            vanilla = Measurement(None, None)
        if n_nodes <= skip_base_above:
            base = _measure(
                lambda tel: run_dense(
                    program, pre, localize=True, max_iterations=budget,
                    telemetry=tel,
                )
            )
        else:
            base = Measurement(None, None)
        sparse = _measure(
            lambda tel: run_sparse(
                program, pre, max_iterations=budget, telemetry=tel
            )
        )

        row = {
            "program": spec.name,
            "loc": source.count("\n"),
            "vanilla": vanilla,
            "base": base,
            "sparse": sparse,
        }
        if not sparse.timed_out:
            res = sparse.extra["result"]
            d, u = res.defuse.average_sizes()
            # Phase columns come from the telemetry registry (time_pre is
            # 0 here — the shared pre-analysis ran outside the measured
            # region, matching the paper's per-analyzer accounting).
            row["dep_s"] = res.stats.time_pre + sparse.phase(
                "dep-gen", res.stats.time_dep
            )
            row["fix_s"] = sparse.phase("fixpoint", res.stats.time_fix)
            row["avg_d"] = d
            row["avg_u"] = u
            row["deps"] = res.stats.dep_count
        rows.append(row)
        print(
            f"  [{spec.name}] vanilla={_fmt_time(vanilla).strip()} "
            f"base={_fmt_time(base).strip()} sparse={_fmt_time(sparse).strip()}",
            file=sys.stderr,
            flush=True,
        )
    return rows


def print_table2(
    specs: list[WorkloadSpec] | None = None, budget: int = DEFAULT_BUDGET
) -> None:
    _render_table2(table2(specs, budget))


def _render_table2(rows: list[dict]) -> None:
    header = (
        "Program", "LOC", "Vanilla(s)", "Base(s)", "Spd.1", "Mem.1",
        "Dep(s)", "Fix(s)", "Sparse(s)", "Spd.2", "Mem.2", "D(c)", "U(c)",
    )
    out = []
    for r in rows:
        sparse, base, vanilla = r["sparse"], r["base"], r["vanilla"]
        total = (
            "∞"
            if sparse.timed_out
            else f"{r['dep_s'] + r['fix_s']:8.2f}"
        )
        out.append(
            (
                r["program"],
                r["loc"],
                _fmt_time(vanilla).strip(),
                _fmt_time(base).strip(),
                _speedup(vanilla, base),
                _mem_saving(vanilla, base),
                "∞" if sparse.timed_out else f"{r['dep_s']:.2f}",
                "∞" if sparse.timed_out else f"{r['fix_s']:.2f}",
                total.strip(),
                _speedup(base, sparse),
                _mem_saving(base, sparse),
                "N/A" if sparse.timed_out else f"{r['avg_d']:.1f}",
                "N/A" if sparse.timed_out else f"{r['avg_u']:.1f}",
            )
        )
    _print_rows(header, out)


# --------------------------------------------------------------------------
# Table 3 — octagon domain
# --------------------------------------------------------------------------


def table3(
    specs: list[WorkloadSpec] | None = None, budget: int = DEFAULT_BUDGET
) -> list[dict]:
    """Octagon analysis comparison (Table 3)."""
    specs = specs or octagon_suite()
    rows: list[dict] = []
    for spec in specs:
        source = generate_source(spec)
        program = build_program(source)
        pre = run_preanalysis(program)

        vanilla = _measure(
            lambda tel: run_rel_dense(
                program, pre, max_iterations=budget, telemetry=tel
            )
        )
        base = _measure(
            lambda tel: run_rel_dense(
                program, pre, localize=True, max_iterations=budget,
                telemetry=tel,
            )
        )
        sparse = _measure(
            lambda tel: run_rel_sparse(
                program, pre, max_iterations=budget, telemetry=tel
            )
        )
        row = {
            "program": spec.name,
            "loc": source.count("\n"),
            "vanilla": vanilla,
            "base": base,
            "sparse": sparse,
        }
        if not sparse.timed_out:
            res = sparse.extra["result"]
            d, u = res.defuse.average_sizes()
            row["dep_s"] = sparse.phase("dep-gen", res.stats.time_dep)
            row["fix_s"] = sparse.phase("fixpoint", res.stats.time_fix)
            row["avg_d"] = d
            row["avg_u"] = u
            row["avg_pack"] = res.packs.average_size()
        rows.append(row)
        print(
            f"  [{spec.name}] vanilla={_fmt_time(vanilla).strip()} "
            f"base={_fmt_time(base).strip()} sparse={_fmt_time(sparse).strip()}",
            file=sys.stderr,
            flush=True,
        )
    return rows


def print_table3(
    specs: list[WorkloadSpec] | None = None, budget: int = DEFAULT_BUDGET
) -> None:
    _render_table3(table3(specs, budget))


def _render_table3(rows: list[dict]) -> None:
    header = (
        "Program", "LOC", "Vanilla(s)", "Base(s)", "Spd.1", "Mem.1",
        "Dep(s)", "Fix(s)", "Sparse(s)", "Spd.2", "Mem.2", "D(c)", "U(c)", "Pack",
    )
    out = []
    for r in rows:
        sparse, base, vanilla = r["sparse"], r["base"], r["vanilla"]
        out.append(
            (
                r["program"],
                r["loc"],
                _fmt_time(vanilla).strip(),
                _fmt_time(base).strip(),
                _speedup(vanilla, base),
                _mem_saving(vanilla, base),
                "∞" if sparse.timed_out else f"{r['dep_s']:.2f}",
                "∞" if sparse.timed_out else f"{r['fix_s']:.2f}",
                _fmt_time(sparse).strip(),
                _speedup(base, sparse),
                _mem_saving(base, sparse),
                "N/A" if sparse.timed_out else f"{r['avg_d']:.1f}",
                "N/A" if sparse.timed_out else f"{r['avg_u']:.1f}",
                "N/A" if sparse.timed_out else f"{r['avg_pack']:.1f}",
            )
        )
    _print_rows(header, out)


# --------------------------------------------------------------------------
# formatting / CLI
# --------------------------------------------------------------------------


def _print_rows(header: tuple, rows: list[tuple]) -> None:
    cols = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(cols[i]) for i, h in enumerate(header))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(cols[i]) for i, c in enumerate(row)))


def _row_jsonable(row) -> dict | list:
    """Strip a table row down to JSON-serializable facts (Measurements
    collapse to time/memory; live result objects are dropped)."""
    if not isinstance(row, dict):
        return list(row)  # table1 rows are plain tuples
    out: dict = {}
    for key, value in row.items():
        if isinstance(value, Measurement):
            out[key] = {
                "time_s": value.time_s,
                "peak_mb": value.peak_mb,
                "timed_out": value.timed_out,
                "phases": value.extra.get("phases", {}),
            }
        else:
            out[key] = value
    return out


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if not argv:
        print(__doc__)
        return 2
    which = argv[0]
    quick = "--quick" in argv
    json_out = None
    if "--json" in argv:
        at = argv.index("--json")
        if at + 1 >= len(argv):
            print("--json needs an output path", file=sys.stderr)
            return 2
        json_out = argv[at + 1]
    budget = QUICK_BUDGET if quick else DEFAULT_BUDGET
    interval_specs = default_suite()[:4] if quick else default_suite()
    oct_specs = octagon_suite()[:3] if quick else octagon_suite()
    results: dict[str, list] = {}
    if which in ("table1", "all"):
        print("== Table 1: benchmark characteristics ==")
        rows = table1(interval_specs)
        results["table1"] = [_row_jsonable(r) for r in rows]
        print_table1(interval_specs)
        print()
    if which in ("table2", "all"):
        print("== Table 2: interval analysis performance ==")
        rows = table2(interval_specs, budget)
        results["table2"] = [_row_jsonable(r) for r in rows]
        _render_table2(rows)
        print()
    if which in ("table3", "all"):
        print("== Table 3: octagon analysis performance ==")
        rows = table3(oct_specs, budget)
        results["table3"] = [_row_jsonable(r) for r in rows]
        _render_table3(rows)
        print()
    if which not in ("table1", "table2", "table3", "all"):
        print(f"unknown table {which!r}")
        return 2
    if json_out is not None:
        # crash-safe: a killed harness never leaves a truncated results file
        from repro.runtime.atomicio import atomic_write_json

        atomic_write_json(json_out, {"quick": quick, **results}, indent=2)
        print(f"results written to {json_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
