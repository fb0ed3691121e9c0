"""Experiment harness — regenerates the paper's tables.

* ``table1`` — benchmark characteristics (LOC, Functions, Statements,
  Blocks, maxSCC, AbsLocs);
* ``table2`` — interval analysis: ``vanilla`` vs ``base`` (access-based
  localization) vs ``sparse``, with time, peak memory, Dep/Fix split,
  speedups, memory savings and average |D̂(c)|/|Û(c)|;
* ``table3`` — the same comparison for the octagon analyses, plus the
  average pack size.

Tables 2 and 3 come from one loop over (domain, mode) and one renderer.
Every analyzer run happens in a freshly *spawned* interpreter (a forked
child's RSS would start at the parent's). The child builds the program and
its pre-analysis, then times ``run_plan(prepare_plan(...))`` under a
wall-clock :class:`~repro.runtime.budget.Budget`, and reports its wall time,
the Dep/Fix split of its telemetry spans and its own peak RSS (see
:func:`_peak_rss_mb`). Like the paper's 24-hour limit, a run whose fixpoint
outlasts the budget is printed as ``∞`` and the cells derived from it as
``N/A``; every other cell is a measurement.

Run from the command line::

    python -m repro.bench.harness table1
    python -m repro.bench.harness table2 [--quick]
    python -m repro.bench.harness table3 [--quick]
    python -m repro.bench.harness all --quick

``--json OUT`` additionally writes the raw rows (times, peak memory,
per-phase breakdowns) as JSON; the write is atomic, so a killed harness
never leaves a truncated results file behind.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import dataclass, field

from repro.analysis.plan import prepare_plan, run_plan
from repro.analysis.preanalysis import run_preanalysis
from repro.bench.codegen import (
    WorkloadSpec,
    default_suite,
    generate_source,
    octagon_suite,
)
from repro.bench.stats import compute_stats
from repro.ir.program import build_program
from repro.runtime.budget import Budget
from repro.runtime.errors import BudgetExceeded
from repro.telemetry import Telemetry, phase_report

#: wall-clock seconds each analyzer's fixpoint may take — the paper's
#: 24-hour timeout, scaled to this suite
DEFAULT_BUDGET = 300.0

MODES = ("vanilla", "base", "sparse")
SUITES = {"interval": default_suite, "octagon": octagon_suite}


@dataclass
class Measurement:
    """One analyzer's run on one program, as its child process reported it."""

    time_s: float | None = None  # None = wall-clock budget ran out (paper's ∞)
    peak_mb: float | None = None
    #: telemetry phase name → {"wall_s", "cpu_s", "count", ...}
    phases: dict = field(default_factory=dict)
    #: sparse runs: average |D̂(c)|/|Û(c)|, dependency count, pack size
    facts: dict = field(default_factory=dict)

    @property
    def timed_out(self) -> bool:
        return self.time_s is None

    def phase(self, name: str) -> float:
        """Wall seconds the child's telemetry registry recorded for one phase."""
        return self.phases.get(name, {}).get("wall_s", 0.0)


def _peak_rss_mb() -> float:
    """This process's peak RSS in MB since it exec'd the interpreter (Linux).

    ``VmHWM`` counts only the current process image. ``getrusage``'s
    ``ru_maxrss`` (and ``os.wait4``'s) also keeps the peak from before
    ``exec``, which for a spawned child is at least the parent's RSS when it
    forked, so a small program analysed by a large harness would report the
    harness's size.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _child(conn, source: str, domain: str, mode: str, budget: float) -> None:
    """Spawned-process body of :func:`measure`: one timed analyzer run."""
    program = build_program(source)
    pre = run_preanalysis(program)
    tel = Telemetry(enabled=True)
    start = time.perf_counter()
    try:
        plan = prepare_plan(program, pre, domain, mode, telemetry=tel)
        result = run_plan(plan, budget=Budget(max_seconds=budget), telemetry=tel)
    except BudgetExceeded:
        conn.send({})
        return
    elapsed = time.perf_counter() - start
    facts = {}
    if mode == "sparse":
        facts["avg_d"], facts["avg_u"] = result.defuse.average_sizes()
        facts["deps"] = result.stats.dep_count
        if domain == "octagon":
            facts["avg_pack"] = result.packs.average_size()
    conn.send(
        {
            "time_s": elapsed,
            "peak_mb": _peak_rss_mb(),
            "phases": phase_report(tel).as_dict()["phases"],
            "facts": facts,
        }
    )


def measure(
    source: str, domain: str, mode: str, budget: float = DEFAULT_BUDGET
) -> Measurement:
    """Run one analyzer on ``source`` in a fresh interpreter and return what
    it measured; raises :class:`RuntimeError` if the child dies without a
    report."""
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(send, source, domain, mode, budget))
    proc.start()
    send.close()  # the child's copy keeps the pipe open; ours would hide EOF
    try:
        report = recv.recv()
    except EOFError:
        report = None
    finally:
        recv.close()
        proc.join()
    if report is None:
        raise RuntimeError(
            f"{domain}/{mode} child exited {proc.exitcode} without a result"
        )
    return Measurement(**report)


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


TABLE1_HEADER = (
    "Program", "LOC", "Functions", "Statements", "Blocks", "maxSCC", "AbsLocs",
)


# --------------------------------------------------------------------------
# Tables 2 and 3
# --------------------------------------------------------------------------


def table(
    domain: str,
    specs: list[WorkloadSpec] | None = None,
    budget: float = DEFAULT_BUDGET,
) -> list[dict]:
    """The vanilla / base / sparse comparison for one domain: one dict per
    program with a :class:`Measurement` per mode and, when sparse finished,
    its Dep/Fix split (telemetry spans) and sparsity facts."""
    specs = specs or SUITES[domain]()
    rows: list[dict] = []
    for spec in specs:
        source = generate_source(spec)
        row: dict = {"program": spec.name, "loc": source.count("\n")}
        for mode in MODES:
            row[mode] = measure(source, domain, mode, budget)
        sparse = row["sparse"]
        if not sparse.timed_out:
            row["dep_s"] = sparse.phase("dep-gen")
            row["fix_s"] = sparse.phase("fixpoint")
            row.update(sparse.facts)
        rows.append(row)
        print(
            f"  [{spec.name}] "
            + " ".join(f"{mode}={_fmt_time(row[mode]).strip()}" for mode in MODES),
            file=sys.stderr,
            flush=True,
        )
    return rows


def table2(
    specs: list[WorkloadSpec] | None = None, budget: float = DEFAULT_BUDGET
) -> list[dict]:
    """Interval analysis comparison (Table 2)."""
    return table("interval", specs, budget)


def table3(
    specs: list[WorkloadSpec] | None = None, budget: float = DEFAULT_BUDGET
) -> list[dict]:
    """Octagon analysis comparison (Table 3)."""
    return table("octagon", specs, budget)


def render(rows: list[dict], domain: str) -> None:
    """Print Table 2 (interval) or Table 3 (octagon, with the Pack column)."""
    header = [
        "Program", "LOC", "Vanilla(s)", "Vanilla(MB)", "Base(s)", "Base(MB)",
        "Spd.1", "Mem.1", "Dep(s)", "Fix(s)", "Sparse(s)", "Sparse(MB)",
        "Spd.2", "Mem.2", "D(c)", "U(c)",
    ]
    facts = ["avg_d", "avg_u"]
    if domain == "octagon":
        header.append("Pack")
        facts.append("avg_pack")
    out = []
    for r in rows:
        vanilla, base, sparse = r["vanilla"], r["base"], r["sparse"]
        out.append(
            (
                r["program"],
                r["loc"],
                _fmt_time(vanilla).strip(),
                _fmt_mem(vanilla).strip(),
                _fmt_time(base).strip(),
                _fmt_mem(base).strip(),
                _speedup(vanilla, base),
                _mem_saving(vanilla, base),
                "∞" if sparse.timed_out else f"{r['dep_s']:.2f}",
                "∞" if sparse.timed_out else f"{r['fix_s']:.2f}",
                _fmt_time(sparse).strip(),
                _fmt_mem(sparse).strip(),
                _speedup(base, sparse),
                _mem_saving(base, sparse),
                *("N/A" if sparse.timed_out else f"{r[k]:.1f}" for k in facts),
            )
        )
    _print_rows(tuple(header), out)


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
    """A table row as JSON-serializable facts."""
    if not isinstance(row, dict):
        return list(row)  # table1 rows are plain tuples
    out: dict = {}
    for key, value in row.items():
        if isinstance(value, Measurement):
            out[key] = {
                "time_s": value.time_s,
                "peak_mb": value.peak_mb,
                "timed_out": value.timed_out,
                "phases": value.phases,
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
    if which not in ("table1", "table2", "table3", "all"):
        print(f"unknown table {which!r}")
        return 2
    quick = "--quick" in argv
    json_out = None
    if "--json" in argv:
        at = argv.index("--json")
        if at + 1 >= len(argv):
            print("--json needs an output path", file=sys.stderr)
            return 2
        json_out = argv[at + 1]
    interval_specs = default_suite()[:4] if quick else default_suite()
    oct_specs = octagon_suite()[:3] if quick else octagon_suite()
    results: dict[str, list] = {}
    if which in ("table1", "all"):
        print("== Table 1: benchmark characteristics ==")
        rows = table1(interval_specs)
        results["table1"] = [_row_jsonable(r) for r in rows]
        _print_rows(TABLE1_HEADER, rows)
        print()
    for name, domain, specs in (
        ("table2", "interval", interval_specs),
        ("table3", "octagon", oct_specs),
    ):
        if which not in (name, "all"):
            continue
        print(f"== Table {name[-1]}: {domain} analysis performance ==")
        rows = table(domain, specs)
        results[name] = [_row_jsonable(r) for r in rows]
        render(rows, domain)
        print()
    if json_out is not None:
        # crash-safe: a killed harness never leaves a truncated results file
        from repro.runtime.atomicio import atomic_write_json

        atomic_write_json(json_out, {"quick": quick, **results}, indent=2)
        print(f"results written to {json_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
