"""Record ``golden.json`` for the layered benchmark.

Run from the repository root at a commit whose tables are the contract::

    python3 benchmarks/layered/record_golden.py

It pins, for every job the workloads run (full job lists, not the smoke
ones): the sha256 of each input text, the table digest and (interval
combos) the alarm-set digest of a fresh ``analyze()``, and ``main``'s
concrete return value from ``repro.ir.interp`` within ``FUEL`` node
visits. ``screen-mini`` is skipped: its accumulator grows to a
62-million-bit integer and the concrete run takes over two minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

FUEL = 2_000_000
NO_CONCRETE = {"screen-mini": "concrete run takes over two minutes (bigint growth)"}


def all_jobs() -> list[workloads.Job]:
    jobs = workloads.ladder_jobs("interval", False) + workloads.ladder_jobs(
        "octagon", False
    )
    jobs += [
        workloads.Job(name, domain, mode)
        for name in workloads.corpus_sources(False)
        for domain, mode in workloads.COMBOS
    ]
    for serve in (workloads.ServeRead, workloads.ServeEdit):
        jobs += [workloads.Job(serve.program, d, "sparse") for d in serve.domains]
    return list(dict.fromkeys(jobs))


def concrete_return(text: str):
    from repro.ir.interp import Interpreter, OutOfFuel
    from repro.ir.program import build_program

    try:
        value = Interpreter(build_program(text), fuel=FUEL, record=False).run()
    except OutOfFuel:
        return None
    return str(value) if isinstance(value, int) else None


def main() -> int:
    from repro import analyze

    sources = {**workloads.generated_sources(), **workloads.corpus_sources(False)}
    golden = {
        "inputs": {
            name: oracle.sha256_text(s.text) for name, s in sorted(sources.items())
        },
        "jobs": {},
        "concrete": {},
        "concrete_fuel": FUEL,
        "concrete_skipped": NO_CONCRETE,
    }
    for job in all_jobs():
        source = sources[job.program]
        run = analyze(
            source.text,
            domain=job.domain,
            mode=job.mode,
            filename=source.filename,
            preprocess_source=source.preprocess,
        )
        entry = {"table": oracle.table_digest(run.result.table)}
        if job.domain == "interval":
            entry["alarms"] = oracle.alarm_digest(oracle.run_checkers(run))
        golden["jobs"][job.key] = entry
        print(f"  {job.key}", file=sys.stderr)
    generated = {j.program for j in all_jobs() if not j.program.startswith("examples/")}
    for name in sorted(generated - set(NO_CONCRETE)):
        golden["concrete"][name] = concrete_return(sources[name].text)
        print(f"  concrete {name} = {golden['concrete'][name]}", file=sys.stderr)
    out = HERE / "golden.json"
    text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out} ({len(golden['jobs'])} jobs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
