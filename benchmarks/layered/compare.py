"""``run.py compare`` and ``run.py summarize``.

``compare A B [C ...]`` reads sides of runs — each a JSON-lines file that
``run.py --json`` appended to, or a summary such as ``baseline.json`` —
and for every (metric, workload) pair prints each side's median and
quartiles and a verdict for every side against the first:

* ``better`` — the side wins at least nine tenths of the run pairs (ties
  count for neither; pairs are runs in order when both sides have equally
  many, else every cross pair) and the medians differ by more than the
  first side's interquartile distance;
* ``worse`` — the median is worse than the first side's by more than the
  metric's bound, with both spreads inside the bound;
* ``unresolved`` — a spread (interquartile distance over median) is wider
  than the bound, unless every run of the side beats every run of the
  first;
* ``unchanged`` — otherwise.

Metrics without a bound (per-layer ones) are listed with their medians
only. ``compare`` exits 1 when any pair is ``worse``.

``summarize RUNS ... --out FILE`` writes the medians and quartiles of the
runs with the host facts — the committed ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: the workload-specific end-to-end metrics: name -> allowed worsening
DETAIL_BOUNDS = {
    "op_p50_ms": 0.25,
    "sparse_s": 0.10,
    "base_s": 0.10,
    "vanilla_s": 0.10,
    "verdict_p50_ms": 0.10,
    "verdict_p99_ms": 0.15,
    "query_p50_ms": 0.10,
    "query_p99_ms": 0.15,
    "edit_p50_ms": 0.10,
    "edit_p90_ms": 0.15,
    "requery_p50_ms": 0.10,
    "requery_p90_ms": 0.15,
    "error_rate": 0.0,
}


def bounds() -> dict[str, float]:
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = dict(DETAIL_BOUNDS)
    out.update({m["name"]: m["bound"] for m in spec["end_to_end"]})
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_side(path: str) -> dict:
    """{(workload, metric): {"unit", "median", "q1", "q3", "n", "values"}}
    from a JSON-lines run file or a summary file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "workloads" in doc:
        return {
            (wl, name): dict(row, values=None)
            for wl, metrics in doc["workloads"].items()
            for name, row in metrics.items()
        }
    samples: dict = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for name, (value, unit) in record["metrics"].items():
            row = samples.setdefault(
                (record["workload"], name), {"unit": unit, "values": []}
            )
            row["values"].append(value)
    for row in samples.values():
        q1, med, q3 = quartiles(row["values"])
        row.update(median=med, q1=q1, q3=q3, n=len(row["values"]))
    return samples


def verdict(a: dict, b: dict, bound: float) -> str:
    """Side ``b`` against side ``a``; every bounded metric is
    lower-is-better."""
    med_a, med_b = a["median"], b["median"]
    iqr_a = a["q3"] - a["q1"]
    spread = max(
        (row["q3"] - row["q1"]) / abs(row["median"]) if row["median"] else 0.0
        for row in (a, b)
    )
    if a["values"] is not None and b["values"] is not None:
        if len(a["values"]) == len(b["values"]):
            pairs = list(zip(a["values"], b["values"]))
        else:
            pairs = [(x, y) for x in a["values"] for y in b["values"]]
        win_share = sum(1 for x, y in pairs if y < x) / len(pairs)
        dominates = max(b["values"]) < min(a["values"])
    else:  # a summary holds no runs: compare quartiles instead
        dominates = b["q3"] < a["q1"]
        win_share = 1.0 if dominates else 0.0
    if win_share >= 0.9 and abs(med_a - med_b) > iqr_a and med_b < med_a:
        return "better"
    if spread > bound and not dominates:
        return "unresolved"
    worse_by = (med_b - med_a) / abs(med_a) if med_a else float(med_b > med_a)
    if worse_by > bound:
        return "worse"
    return "unchanged"


def compare(paths: list[str]) -> int:
    sides = [load_side(p) for p in paths]
    limits = bounds()
    keys = sorted(set().union(*sides), key=lambda k: (k[0], k[1]))
    worse = 0
    print(f"A = {paths[0]}")
    for i, path in enumerate(paths[1:], start=1):
        print(f"{chr(65 + i)} = {path}")
    for wl, name in keys:
        rows = [side.get((wl, name)) for side in sides]
        if rows[0] is None:
            continue
        cells = []
        for i, row in enumerate(rows):
            if row is None:
                cells.append(f"{chr(65 + i)} -")
                continue
            cell = (f"{chr(65 + i)} {row['median']:.6g} "
                    f"[{row['q1']:.6g}, {row['q3']:.6g}] n={row['n']}")
            if i and name in limits:
                v = verdict(rows[0], row, limits[name])
                worse += v == "worse"
                cell += f" {v}"
            cells.append(cell)
        print(f"{wl:<16} {name:<34} {rows[0]['unit']:<6} " + "  ".join(cells))
    return 1 if worse else 0


def summarize(paths: list[str], out: str) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import host_facts

    merged: dict = {}
    for path in paths:
        for key, row in load_side(path).items():
            if row["values"] is None:
                raise SystemExit(f"{path}: summarize needs run files, not a summary")
            merged.setdefault(key, {"unit": row["unit"], "values": []})
            merged[key]["values"] += row["values"]
    workloads: dict = {}
    for (wl, name), row in sorted(merged.items()):
        q1, med, q3 = quartiles(row["values"])
        workloads.setdefault(wl, {})[name] = {
            "unit": row["unit"], "median": med, "q1": q1, "q3": q3,
            "n": len(row["values"]),
        }
    doc = {"host": host_facts(), "workloads": workloads}
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    Path(out).write_text(text, encoding="utf-8")
    print(f"wrote {out}")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    cmp_ = sub.add_parser("compare", help="compare sides of runs under the bounds")
    cmp_.add_argument("sides", nargs="+", metavar="RUNS")
    summ = sub.add_parser("summarize", help="medians and quartiles of runs")
    summ.add_argument("runs", nargs="+", metavar="RUNS")
    summ.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.cmd == "compare":
        if len(args.sides) < 2:
            parser.error("compare needs at least two sides")
        return compare(args.sides)
    return summarize(args.runs, args.out)
