"""Store-backend perf gate for the array-backed interval states (ISSUE 7).

Two layers, both A/B against the scalar dict reference in the same
process (so the gates are ratios, robust to CI machine speed):

1. **Microbenchmarks** — whole-state ``join_with``/``widen_with``/``leq``/
   ``join_changed`` on randomized states of growing size. Gate: the array
   backend must be ≥ ``MICRO_SPEEDUP_FLOOR``× faster than scalar on the
   largest size for join and widen.
2. **End-to-end** — ``analyze`` on the largest ``examples/c`` files plus
   scaled synthetic corpus workloads under both backends. Gate: analysis
   tables must digest identically, and the array/scalar wall-clock ratio
   must not regress by more than ``E2E_TOLERANCE`` against the committed
   baseline (``benchmarks/baseline_store.json``). Each backend's time is
   the median of ``E2E_WARM_RUNS`` warm runs, alternating with the other
   backend; each backend's first run is discarded, so whichever backend
   goes first does not absorb one-off costs.

Usage::

    python benchmarks/bench_store.py              # gate + report
    python benchmarks/bench_store.py --quick      # CI-sized run
    python benchmarks/bench_store.py --record     # (re)write the baseline

Emits ``BENCH_store.json`` next to the repo root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import analyze  # noqa: E402
from repro.bench.codegen import default_suite, generate_source  # noqa: E402
from repro.domains.absloc import VarLoc  # noqa: E402
from repro.domains.interval import Interval  # noqa: E402
from repro.domains.state import (  # noqa: E402
    ArrayAbsState,
    ScalarAbsState,
    set_store_backend,
)
from repro.domains.value import AbsValue, intern_value  # noqa: E402

#: the array backend must beat scalar by at least this factor on the
#: largest microbenchmark size (join_with / widen_with)
MICRO_SPEEDUP_FLOOR = 2.0
#: allowed regression of the end-to-end array/scalar time ratio vs baseline
E2E_TOLERANCE = 0.25
#: timed runs per backend and workload, after one discarded warm-up run
E2E_WARM_RUNS = 5


# -- microbenchmarks ----------------------------------------------------------


def _random_mapping(n: int, rng: random.Random) -> dict:
    out = {}
    for i in range(n):
        lo = rng.randint(-1000, 1000)
        hi = lo + rng.randint(0, 500)
        out[VarLoc(f"bench_v{i}", "bench")] = intern_value(
            AbsValue.of_interval(Interval(lo, hi))
        )
    return out


def _build(cls, mapping):
    state = object.__new__(cls)
    state.__init__()
    for loc, value in mapping.items():
        state.set(loc, value)
    return state


def _time_op(cls, a_map, b_map, op, thresholds, reps: int) -> float:
    a = _build(cls, a_map)
    b = _build(cls, b_map)
    targets = [a.copy() for _ in range(reps)]  # op mutates its receiver
    if op == "leq":
        # measure the convergence-check shape (a ⊑ a⊔b holds): a failing
        # leq early-exits in both backends and measures nothing
        big = a.copy()
        big.join_with(b)
    t0 = time.perf_counter()
    if op == "join_with":
        for t in targets:
            t.join_with(b)
    elif op == "widen_with":
        for t in targets:
            t.widen_with(b, thresholds)
    elif op == "join_changed":
        for t in targets:
            t.join_changed(b)
    elif op == "leq":
        for _ in range(reps):
            a.leq(big)
            big.leq(a)
    return time.perf_counter() - t0


def micro_bench(sizes: list[int], reps: int) -> dict:
    rng = random.Random(20120613)  # PLDI 2012 (the paper's venue)
    thresholds = (0, 16, 64, 256)
    out: dict[str, dict] = {}
    for n in sizes:
        a_map = _random_mapping(n, rng)
        # overlapping but shifted second state: joins/widens actually move
        b_map = _random_mapping(n, random.Random(n))
        for op in ("join_with", "widen_with", "leq", "join_changed"):
            t_scalar = _time_op(ScalarAbsState, a_map, b_map, op, thresholds, reps)
            t_array = _time_op(ArrayAbsState, a_map, b_map, op, thresholds, reps)
            key = f"micro/{op}/n={n}"
            out[key] = {
                "scalar_s": round(t_scalar, 5),
                "array_s": round(t_array, 5),
                "speedup": round(t_scalar / t_array, 2) if t_array else None,
            }
            print(
                f"  {key}: scalar={t_scalar:.4f}s array={t_array:.4f}s "
                f"({out[key]['speedup']}x)",
                file=sys.stderr,
                flush=True,
            )
    return out


# -- end-to-end ---------------------------------------------------------------


def _table_digest(run) -> str:
    h = hashlib.sha256()
    table = run.result.table
    for nid in sorted(table, key=str):
        h.update(f"{nid}\n{table[nid]!r}\n".encode())
    return h.hexdigest()


def _e2e_workloads(quick: bool):
    sources: list[tuple[str, str, str, str]] = []  # name, source, domain, mode
    examples = sorted(
        (ROOT / "examples" / "c").glob("*.c"),
        key=lambda p: p.stat().st_size,
        reverse=True,
    )
    for path in examples[: 2 if quick else 4]:
        sources.append((f"examples/{path.stem}", path.read_text(), "interval", "sparse"))
    suite = {s.name: s for s in default_suite()}
    scale = 2 if quick else 3
    for name in ["bc-mini"] if quick else ["gzip-mini", "bc-mini"]:
        spec = dataclasses.replace(
            suite[name], recursion_cycle=0, unique_callees=True
        ).scaled(scale)
        sources.append((f"corpus/{name}x{scale}", generate_source(spec), "interval", "sparse"))
    # one relational combo: store backend + pack octagons both in play
    sources.append(
        ("examples/" + examples[0].stem + "/oct", examples[0].read_text(), "octagon", "sparse")
    )
    return sources


def e2e_bench(quick: bool) -> tuple[dict, list[str]]:
    out: dict[str, dict] = {}
    failures: list[str] = []
    for name, source, domain, mode in _e2e_workloads(quick):
        digests: dict[str, str] = {}
        samples: dict[str, list[float]] = {"scalar": [], "array": []}
        # round 0 warms both backends up and is not timed; later rounds
        # alternate the backends so drift in machine load hits both
        for round_ in range(E2E_WARM_RUNS + 1):
            for backend in ("scalar", "array"):
                prev = set_store_backend(backend)
                try:
                    t0 = time.perf_counter()
                    run = analyze(source, domain=domain, mode=mode)
                    elapsed = time.perf_counter() - t0
                finally:
                    set_store_backend(prev)
                if round_ == 0:
                    digests[backend] = _table_digest(run)
                else:
                    samples[backend].append(elapsed)
        times = {backend: statistics.median(s) for backend, s in samples.items()}
        if digests["scalar"] != digests["array"]:
            failures.append(f"{name}: table digests diverge between backends")
        key = f"e2e/{name}/{domain}/{mode}"
        ratio = times["array"] / times["scalar"] if times["scalar"] else None
        out[key] = {
            "scalar_s": round(times["scalar"], 4),
            "array_s": round(times["array"], 4),
            "ratio": round(ratio, 3) if ratio else None,
            "digest": digests["array"][:16],
        }
        print(
            f"  {key}: scalar={times['scalar']:.3f}s array={times['array']:.3f}s "
            f"ratio={out[key]['ratio']}",
            file=sys.stderr,
            flush=True,
        )
    return out, failures


# -- driver -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--record", action="store_true",
        help="rewrite the committed baseline from this run",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized run (smaller states)",
    )
    args = parser.parse_args(argv)

    sizes = [64, 256] if args.quick else [64, 256, 1024]
    reps = 30 if args.quick else 60

    print("microbenchmarks:", file=sys.stderr)
    micro = micro_bench(sizes, reps)
    print("end-to-end:", file=sys.stderr)
    e2e, e2e_failures = e2e_bench(args.quick)

    results = {**micro, **e2e}
    failures = e2e_failures

    # gate 1: digest identity was checked above; gate 2: micro speedup floor
    largest = sizes[-1]
    for op in ("join_with", "widen_with"):
        entry = micro[f"micro/{op}/n={largest}"]
        if entry["speedup"] is not None and entry["speedup"] < MICRO_SPEEDUP_FLOOR:
            failures.append(
                f"micro/{op}/n={largest}: speedup {entry['speedup']}x "
                f"below the {MICRO_SPEEDUP_FLOOR}x floor"
            )

    baseline_path = ROOT / "benchmarks" / "baseline_store.json"
    if args.record:
        baseline_path.write_text(
            json.dumps(results, indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded baseline to {baseline_path}")
        return 0

    # gate 3: end-to-end array/scalar ratio vs the committed baseline —
    # ratios of same-process runs transfer across machines
    baseline = (
        json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
    )
    for key, cur in e2e.items():
        base = baseline.get(key)
        if base is None or base.get("ratio") is None or cur["ratio"] is None:
            continue
        cur["baseline_ratio"] = base["ratio"]
        if cur["ratio"] > base["ratio"] + E2E_TOLERANCE:
            failures.append(
                f"{key}: array/scalar ratio {cur['ratio']} regressed vs "
                f"baseline {base['ratio']} (+{E2E_TOLERANCE} allowed)"
            )

    out_path = ROOT / "BENCH_store.json"
    out_path.write_text(json.dumps(
        {
            "micro_speedup_floor": MICRO_SPEEDUP_FLOOR,
            "e2e_tolerance": E2E_TOLERANCE,
            "results": results,
            "failures": failures,
        },
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {out_path}")

    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print("store perf gate: OK (digests identical, speedups within gates)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
