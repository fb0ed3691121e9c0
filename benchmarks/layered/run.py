#!/usr/bin/env python3
"""Layered benchmark for ``analyze`` and ``serve`` — one command, five
workloads, end-to-end metrics with a per-layer trace.

Usage (from the repository root)::

    python3 benchmarks/layered/run.py [--workload W] [--seed S] [--seconds N]
                                      [--trace [0|1]] [--json OUT]
    python3 benchmarks/layered/run.py compare A.jsonl B.jsonl [C.jsonl ...]
    python3 benchmarks/layered/run.py summarize RUNS.jsonl ... --out FILE

``--seconds`` (default: ``run_seconds`` in ``BENCHMARK.json``) sizes the
run: each workload does a fixed number of units of work for it, however
fast the program is. Every workload runs in its own child interpreter: two
more children only set up (``setup_s`` is the median of the three
set-ups) and the measuring child's peak RSS, with its reaped descendants,
comes from ``os.wait4``.
The run prints every metric by name with its unit, checks the outputs
against the oracle (``oracle.py``), appends the full record to ``--json``,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
``BENCHMARK.json`` metrics (end-to-end ones, or per-layer ones with
``--trace 1``). It exits 1 when any operation failed, 2 when the program
under test is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from probe import SAMPLE_WINDOW, Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
#: scratch space (serve state directories) inside the checkout
STATE_ROOT = ROOT / ".bench_build" / "layered"
#: children that set up per run; ``setup_s`` is the median of their
#: set-ups, each scaled by the host speed sampled while it ran
SETUP_REPS = 3
#: the children of one workload, set-up-only ones included, are killed
#: after this long, so a one-workload invocation ends within 180 s
CHILD_TIMEOUT_S = 170.0


def benchmark_spec() -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def host_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


# -- child --------------------------------------------------------------------


def child_main(args) -> int:
    """One workload in this interpreter: set up, then measure or trace,
    and print the raw result as one JSON line."""
    state_dir = STATE_ROOT / f"{args.child}-{os.getpid()}"
    state_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(state_dir)
    import tempfile

    tempfile.tempdir = str(state_dir)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import oracle
    import workloads

    ctx = workloads.Ctx(
        seed=args.seed,
        seconds=float(args.seconds),
        smoke=args.smoke,
        golden=oracle.load_golden(),
        state_dir=state_dir,
    )
    report = workloads.Report()
    ready_at = None
    setup_factor = setup_sampled_s = None
    sampler = Sampler()
    wl = workloads.make(args.child, ctx)
    try:
        with sampler:
            wl.setup(report)
        ready_at = time.time()
        setup_sampled_s = sampler.took_s()
        # a set-up too short to be sampled is scaled by samples just after it
        while len(sampler.start) < SAMPLE_WINDOW:
            sampler.sample()
        setup_factor = sampler.factor()
        if not args.setup_only:
            if args.trace == "1":
                wl.trace(report)
            else:
                wl.measure(report)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        report.fail(f"{type(exc).__name__}: {exc}")
    finally:
        wl.close()
        shutil.rmtree(state_dir, ignore_errors=True)
    print(
        json.dumps(
            {
                "ready_at": ready_at,
                "setup_factor": setup_factor,
                "setup_sampled_s": setup_sampled_s,
                "attempted": report.attempted,
                "failures": report.failures,
                "metrics": report.metrics,
                "detail": report.detail,
            }
        )
    )
    return 0


# -- parent -------------------------------------------------------------------


def spawn(argv: list[str], timeout: float) -> tuple[int, str, float]:
    """Run a child to completion; returns (exit code, stdout, peak RSS in
    MB of the child and its reaped descendants). The child gets its own
    session so a timeout kills its whole process group."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    chunks: list[str] = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                deadline = float("inf")
            time.sleep(0.02)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        reader.join()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, "".join(chunks), usage.ru_maxrss / 1024.0


def run_child(workload: str, args, setup_only: bool, timeout: float):
    argv = [
        sys.executable, str(HERE / "run.py"), "--child", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.smoke:
        argv.append("--smoke")
    if setup_only:
        argv.append("--setup-only")
    spawned_at = time.time()
    code, out, rss_mb = spawn(argv, timeout)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"ready_at": None, "attempted": 0, "metrics": {}, "detail": {},
                  "failures": [f"child exited {code} without a result"]}
    if code != 0:
        result["failures"].append(f"child exited {code}")
    if result["ready_at"] is not None and result.get("setup_factor"):
        raw = result["ready_at"] - spawned_at - result["setup_sampled_s"]
        result["setup"] = (raw * result["setup_factor"], raw)
    return result, rss_mb


def measure(workload: str, args) -> dict:
    """One workload: set-up-only children, then the measuring child."""
    began = time.monotonic()
    setups = []
    failures: list[str] = []
    if args.trace == "0" and not args.smoke:
        for _ in range(SETUP_REPS - 1):
            result, _ = run_child(workload, args, True, CHILD_TIMEOUT_S)
            failures += result["failures"]
            if "setup" in result:
                setups.append(result["setup"])
    remaining = CHILD_TIMEOUT_S - (time.monotonic() - began)
    result, rss_mb = run_child(workload, args, False, remaining)
    if "setup" in result:
        setups.append(result["setup"])
    return assemble(workload, args, result, setups, failures, rss_mb)


def assemble(workload, args, result, setups, failures, rss_mb) -> dict:
    """The full record of one workload run from the measuring child's
    ``result``, the (normalized, raw) set-up times of all children, and
    the failures the set-up-only children saw."""
    failures = failures + result["failures"]
    metrics = {name: tuple(vu) for name, vu in result["metrics"].items()}
    if args.trace == "0":
        if setups:
            metrics["setup_s"] = (statistics.median(s for s, _ in setups), "s")
            result["detail"].setdefault("raw", {})["setup_s"] = statistics.median(
                r for _, r in setups
            )
        metrics["peak_rss_mb"] = (rss_mb, "MB")
    attempted = max(result["attempted"], 1)
    metrics["error_rate"] = (len(failures) / attempted, "ratio")
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace == "1",
        "host": host_facts(),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "metrics": metrics,
        "detail": result["detail"],
    }


def print_record(record: dict) -> None:
    mode = "trace" if record["trace"] else f"{record['seconds']} s"
    print(f"== {record['workload']} (seed {record['seed']}, {mode}) ==")
    for name, (value, unit) in sorted(record["metrics"].items()):
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'operations':<40} {record['attempted']:>14} attempted, "
          f"{record['failed']} failed")
    for failure in record["failures"][:10]:
        print(f"  FAIL {failure}")
    sys.stdout.flush()


def declared_metrics(spec: dict, trace: bool) -> list[str]:
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(records: list[dict], spec: dict) -> dict:
    """The final stdout line: the declared metrics of one workload (or of
    each workload, prefixed with its name, when several ran)."""
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for name in declared_metrics(spec, record["trace"]):
            if name in record["metrics"]:
                value, unit = record["metrics"][name]
                metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Layered benchmark for repro analyze and serve."
    )
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="sizes the run's fixed work (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"], help="per-layer traced run")
    parser.add_argument("--json", metavar="OUT",
                        help="append each workload's full record as a JSON line")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced job lists, one unit of work and one "
                        "set-up (self-tests)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("compare", "summarize"):
        import compare

        return compare.main(argv)
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"error: no program under test at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload is None else (args.workload,)
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    records = []
    for name in names:
        record = measure(name, args)
        print_record(record)
        records.append(record)
        if args.json:
            with open(args.json, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
    line = result_line(records, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
