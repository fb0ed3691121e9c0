"""Self-tests of the layered benchmark. Run them by explicit path (they are
outside the tier-1 ``tests/`` tree on purpose; ``benchmarks/conftest.py``
imports ``repro``, hence the path)::

    PYTHONPATH=src python3 -m pytest benchmarks/layered/test_layered.py -q

Every workload runs on its reduced (``--smoke``) job list; the whole file
takes well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli(root: Path, *args: str, json_out: Path | None = None):
    argv = [sys.executable, str(root / "benchmarks" / "layered" / "run.py"),
            *args, "--smoke"]
    if json_out is not None:
        argv += ["--json", str(json_out)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def _blocks(stdout: str) -> dict[str, str]:
    """Printed metric lines per workload header."""
    out: dict[str, str] = {}
    name = None
    for line in stdout.splitlines():
        if m := re.match(r"== (\S+) ", line):
            name = m.group(1)
            out[name] = ""
        elif name is not None:
            out[name] += line + "\n"
    return out


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_printed_and_written(tmp_path, trace):
    out = tmp_path / "runs.jsonl"
    proc = _cli(ROOT, "--trace", trace, json_out=out)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["workload"] for r in records] == list(workloads.WORKLOADS)
    blocks = _blocks(proc.stdout)
    for record in records:
        for metric in declared:
            name, unit = metric["name"], metric["unit"]
            value, written_unit = record["metrics"][name]
            assert written_unit == unit
            line = rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$"
            assert re.search(line, blocks[record["workload"]], re.M), (
                record["workload"], name)
            assert last["metrics"][f"{record['workload']}.{name}"] == {
                "value": value, "unit": unit}
            if unit in ("s", "ms", "MB"):
                assert value > 0, (record["workload"], name)


def test_single_workload_result_line_lists_the_declared_metrics():
    proc = _cli(ROOT, "--workload", "ladder-octagon", "--seed", "7", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])


def _copy(tmp_path: Path) -> Path:
    """BENCHMARK.json and the benchmark directory, without the program."""
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "benchmarks" / "layered",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    proc = _cli(_copy(tmp_path), "--workload", "ladder-interval")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_flipped_golden_digest_fails_the_run(tmp_path):
    root = _copy(tmp_path)
    (root / "src").symlink_to(ROOT / "src")
    (root / "examples").symlink_to(ROOT / "examples")
    path = root / "benchmarks" / "layered" / "golden.json"
    golden = json.loads(path.read_text())
    key = "gzip-mini/interval/sparse"
    golden["jobs"][key]["table"] = golden["jobs"][key]["table"][::-1]
    path.write_text(json.dumps(golden))
    out = tmp_path / "runs.jsonl"
    proc = _cli(root, "--workload", "ladder-interval", json_out=out)
    assert proc.returncode == 1
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not last["correct"] and last["failed"] >= 1
    record = json.loads(out.read_text())
    assert record["metrics"]["error_rate"][0] > 0
    assert any(key in f for f in record["failures"])


def test_tampered_serve_reply_fails_the_run(tmp_path, monkeypatch):
    from repro.server.supervisor import Supervisor

    real = Supervisor.handle_line
    state = {"calls": 0, "tampered": False}

    def tampered(self, line):
        out = real(self, line)
        state["calls"] += 1
        reply = json.loads(out)
        # the first interval answer after the two warm-up queries
        if state["calls"] > 2 and not state["tampered"] and "interval" in reply:
            reply["interval"]["repr"] = "[7, 7]"
            state["tampered"] = True
            out = json.dumps(reply)
        return out

    monkeypatch.setattr(Supervisor, "handle_line", tampered)
    ctx = workloads.Ctx(seed=1, seconds=1.0, smoke=True,
                        golden=oracle.load_golden(), state_dir=tmp_path)
    report = workloads.Report()
    wl = workloads.make("serve-read", ctx)
    try:
        wl.setup(report)
        wl.measure(report)
    finally:
        wl.close()
    result = {"attempted": report.attempted, "failures": report.failures,
              "metrics": report.metrics, "detail": report.detail}
    args = run.parse_args(["--workload", "serve-read"])
    record = run.assemble("serve-read", args, result, [(1.0, 1.0)], [], 50.0)
    assert record["metrics"]["error_rate"][0] > 0
    assert not run.result_line([record], SPEC)["correct"]


def _side(path: Path, values: list[float]) -> str:
    path.write_text("".join(
        json.dumps({"workload": "w", "metrics": {"work_s": [v, "s"]}}) + "\n"
        for v in values))
    return str(path)


STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
NOISY = [1.00, 1.20, 0.85, 1.15, 0.80, 1.00, 1.25, 0.90, 1.05, 0.95]


@pytest.mark.parametrize(
    ("base", "scale", "expect"),
    [(STEADY, 1.0, "unchanged"), (STEADY, 1.3, "worse"), (STEADY, 0.7, "better"),
     (STEADY, 1.2, "worse"), (NOISY, 1.2, "unresolved")],
)
def test_compare_verdicts(tmp_path, capsys, base, scale, expect):
    a = _side(tmp_path / "a.jsonl", base)
    b = _side(tmp_path / "b.jsonl", [v * scale for v in reversed(base)])
    code = compare.compare([a, b])
    line = [l for l in capsys.readouterr().out.splitlines() if "work_s" in l][0]
    assert line.endswith(expect)
    assert code == (1 if expect == "worse" else 0)
