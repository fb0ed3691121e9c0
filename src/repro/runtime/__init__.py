"""Resilient analysis runtime: budgets, degradation, faults, durability.

The runtime layer makes every fixpoint engine budget-aware and
failure-tolerant:

* :mod:`repro.runtime.budget` — a unified :class:`Budget` (wall-clock
  deadline, iteration cap, state-table ceiling) metered cheaply inside every
  solver loop;
* :mod:`repro.runtime.degrade` — per-procedure fallback to the flow-
  insensitive pre-analysis state (sound by Lemma 2) plus the
  :class:`Diagnostics` record exposed on :class:`repro.api.AnalysisRun`;
* :mod:`repro.runtime.faults` — a deterministic fault-injection harness so
  the degradation paths are actually testable;
* :mod:`repro.runtime.errors` — the structured :class:`ReproError`
  exception hierarchy shared by the frontend and the engines;
* :mod:`repro.runtime.checkpoint` — versioned, digest-protected snapshots
  of in-flight engine state with resume ≡ uninterrupted equivalence;
* :mod:`repro.runtime.pool` — the fault-tolerant multi-process batch
  driver behind ``repro batch`` (timeouts, retry with backoff, crash
  detection, resume-from-checkpoint);
* :mod:`repro.runtime.atomicio` — crash-safe file writes shared by
  checkpoints, telemetry exporters, and reports;
* :mod:`repro.runtime.interrupt` — SIGINT/SIGTERM → exception bridging
  for graceful shutdown;
* :mod:`repro.runtime.collector` — the cyclic garbage collector's pause
  around ``analyze()`` and serve requests, and its telemetry counters.
"""

from repro.runtime.atomicio import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.runtime.budget import Budget, BudgetMeter
from repro.runtime.checkpoint import (
    Checkpointer,
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.degrade import (
    DegradeController,
    Diagnostics,
    make_watchdog,
)
from repro.runtime.errors import (
    AnalysisError,
    AnalysisInterrupted,
    BudgetExceeded,
    CheckpointError,
    ReproError,
    SoundnessViolation,
)
from repro.runtime.faults import FaultInjected, FaultInjector, FaultPlan
from repro.runtime.interrupt import raising_signal_handlers
from repro.runtime.pool import BatchJob, BatchReport, JobOutcome, run_batch

__all__ = [
    "AnalysisError",
    "AnalysisInterrupted",
    "BatchJob",
    "BatchReport",
    "Budget",
    "BudgetExceeded",
    "BudgetMeter",
    "CheckpointError",
    "Checkpointer",
    "DegradeController",
    "Diagnostics",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "JobOutcome",
    "ReproError",
    "SoundnessViolation",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "config_fingerprint",
    "load_checkpoint",
    "make_watchdog",
    "raising_signal_handlers",
    "run_batch",
    "save_checkpoint",
]
