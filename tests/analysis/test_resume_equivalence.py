"""Resume ≡ uninterrupted: the central checkpoint/restore guarantee.

For every engine×domain combination the golden suite locks down, interrupt
an analysis mid-ascent (deterministically, via a fault-injected budget
trip), restore from the abort checkpoint, and demand the resumed run's
fixpoint table is *byte-identical* — same canonical digest as the
uninterrupted baseline, not merely an equivalent fixpoint. Checker alarms
must match too, since that is what users actually observe.

The equivalence argument (DESIGN.md §11) hinges on the checkpoint capturing
everything that influences processing order — the worklist in exact pop
order, the in-flight node, the sparse reachability bits — and on the sparse
push caches being rebuilt exactly from the restored table. These tests are
the executable form of that argument, at interrupt points spread over the
whole ascent and for both abort paths (a budget trip and a transfer crash).
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import analyze
from repro.runtime.errors import AnalysisError, BudgetExceeded, CheckpointError
from repro.runtime.faults import FaultPlan

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from golden_tables import COMBOS, table_digest  # noqa: E402

#: loopy enough that iteration 7 is mid-ascent for every combo, with calls,
#: globals, and arrays so all codec paths (points-to, arrays, packs) fire
SOURCE = """
int g;
int buf[8];

int step(int x) {
  g = g + x;
  return x + 1;
}

int main(void) {
  int i; int s = 0;
  for (i = 0; i < 8; i++) {
    s = step(s);
    buf[i] = s;
  }
  for (i = 0; i < 4; i++) { g = g + buf[i]; }
  return s;
}
"""

OPTIONS = {"narrowing_passes": 2}


def _alarms(run):
    if run.domain != "interval":
        return None
    return sorted(
        str(r)
        for r in run.overrun_reports()
        if "alarm" in str(r).lower()
    )


@pytest.mark.parametrize("domain,mode", COMBOS, ids=[f"{d}/{m}" for d, m in COMBOS])
def test_resumed_run_matches_uninterrupted(domain, mode, tmp_path):
    baseline = analyze(SOURCE, domain=domain, mode=mode, **OPTIONS)
    assert baseline.result.stats.iterations > 7, (
        "interrupt point must fall mid-ascent; grow SOURCE"
    )

    ckpt = tmp_path / f"{domain}-{mode}.ckpt"
    with pytest.raises(BudgetExceeded):
        analyze(
            SOURCE,
            domain=domain,
            mode=mode,
            faults=FaultPlan(trip_budget_at=7),
            checkpoint_path=str(ckpt),
            checkpoint_every=3,
            **OPTIONS,
        )
    assert ckpt.exists(), "abort path must flush a final checkpoint"

    resumed = analyze(
        SOURCE,
        domain=domain,
        mode=mode,
        checkpoint_path=str(ckpt),
        resume=True,
        **OPTIONS,
    )
    assert table_digest(resumed.result.table) == table_digest(
        baseline.result.table
    ), f"{domain}/{mode}: resumed fixpoint diverged from uninterrupted run"
    assert _alarms(resumed) == _alarms(baseline)
    assert any(
        e.startswith("resumed from checkpoint") for e in resumed.diagnostics.events
    )


@functools.lru_cache(maxsize=None)
def _ascent(domain, mode):
    """(iterations, transfers) of the ascending phase alone: narrowing
    runs after it, so a run without narrowing ascends identically."""
    injector = FaultPlan().injector()
    run = analyze(SOURCE, domain=domain, mode=mode, faults=injector)
    return run.result.stats.iterations, injector.transfers


@functools.lru_cache(maxsize=None)
def _baseline_digest(domain, mode):
    run = analyze(SOURCE, domain=domain, mode=mode, **OPTIONS)
    return table_digest(run.result.table), _alarms(run)


#: where the ascent is interrupted, as a fraction of its length
#: ("early" is the second step)
POINTS = {"early": 0.0, "quarter": 0.25, "half": 0.5, "three-quarters": 0.75}

#: fault-plan field → the exception the interrupted run surfaces
ABORTS = {"trip_budget_at": BudgetExceeded, "crash_transfer_at": AnalysisError}


@pytest.mark.parametrize("abort", list(ABORTS))
@pytest.mark.parametrize("point", list(POINTS))
@pytest.mark.parametrize("domain,mode", COMBOS, ids=[f"{d}/{m}" for d, m in COMBOS])
def test_resume_at_every_interrupt_point(domain, mode, point, abort, tmp_path):
    iterations, transfers = _ascent(domain, mode)
    length = iterations if abort == "trip_budget_at" else transfers
    at = max(2, int(length * POINTS[point]))
    assert at < length, "interrupt point must fall inside the ascent"

    ckpt = tmp_path / "run.ckpt"
    with pytest.raises(ABORTS[abort]):
        analyze(
            SOURCE,
            domain=domain,
            mode=mode,
            faults=FaultPlan(**{abort: at}),
            checkpoint_path=str(ckpt),
            checkpoint_every=3,
            **OPTIONS,
        )
    resumed = analyze(
        SOURCE,
        domain=domain,
        mode=mode,
        checkpoint_path=str(ckpt),
        resume=True,
        **OPTIONS,
    )
    digest, alarms = _baseline_digest(domain, mode)
    assert table_digest(resumed.result.table) == digest, (
        f"{domain}/{mode}: resume after {abort}={at} diverged"
    )
    assert _alarms(resumed) == alarms


def test_version_1_checkpoint_fails_closed(tmp_path):
    """A file in the previous layout (with serialized push caches and
    widening-delay counters) is refused by its header alone."""
    ckpt = tmp_path / "old.ckpt"
    with pytest.raises(BudgetExceeded):
        analyze(
            SOURCE,
            faults=FaultPlan(trip_budget_at=7),
            checkpoint_path=str(ckpt),
            checkpoint_every=3,
            **OPTIONS,
        )
    header_line, body = ckpt.read_bytes().split(b"\n", 1)
    payload = json.loads(body)
    payload["growth"] = []
    payload["space"]["in_cache"] = []
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    header = json.loads(header_line)
    header.update(
        version=1, length=len(body), sha256=hashlib.sha256(body).hexdigest()
    )
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(CheckpointError, match="format version 1") as exc:
        analyze(SOURCE, checkpoint_path=str(ckpt), resume=True, **OPTIONS)
    assert "\n" not in str(exc.value)


def test_resume_with_wrong_config_fails_closed(tmp_path):
    ckpt = tmp_path / "interval-sparse.ckpt"
    with pytest.raises(BudgetExceeded):
        analyze(
            SOURCE,
            domain="interval",
            mode="sparse",
            faults=FaultPlan(trip_budget_at=7),
            checkpoint_path=str(ckpt),
            checkpoint_every=3,
            **OPTIONS,
        )
    # same file, different engine mode → fingerprint mismatch, one line
    with pytest.raises(CheckpointError, match="fingerprint") as exc:
        analyze(
            SOURCE,
            domain="interval",
            mode="vanilla",
            checkpoint_path=str(ckpt),
            resume=True,
            **OPTIONS,
        )
    assert "\n" not in str(exc.value)


def test_resume_requires_checkpoint_path():
    with pytest.raises(ValueError):
        analyze(SOURCE, resume=True)


def test_periodic_checkpoints_without_interrupt_are_harmless(tmp_path):
    ckpt = tmp_path / "steady.ckpt"
    baseline = analyze(SOURCE, **OPTIONS)
    checkpointed = analyze(
        SOURCE, checkpoint_path=str(ckpt), checkpoint_every=3, **OPTIONS
    )
    assert table_digest(checkpointed.result.table) == table_digest(
        baseline.result.table
    )
    assert ckpt.exists()
