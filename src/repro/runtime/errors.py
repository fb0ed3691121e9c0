"""Structured exception hierarchy for the whole reproduction.

Every failure the framework itself can anticipate derives from
:class:`ReproError`::

    ReproError
    ├── FrontendError        (repro.frontend.errors — lex/parse/lowering)
    ├── AnalysisError        (a solver or transfer function failed)
    │   └── FaultInjected    (repro.runtime.faults — deliberate test faults)
    ├── BudgetExceeded       (a resource budget ran out mid-analysis)
    ├── CheckpointError      (repro.runtime.checkpoint — bad/poisoned snapshot)
    └── AnalysisInterrupted  (SIGINT/SIGTERM while an engine was running)

Callers that want "anything this package can raise on bad input or
exhausted resources" catch ``ReproError``; callers that want the paper's
timeout semantics (the ∞ entries of Tables 2/3) catch ``BudgetExceeded``.

This module must stay import-leaf (no ``repro`` imports) — the frontend,
the runtime, and every solver depend on it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every anticipated failure in the reproduction."""


class AnalysisError(ReproError):
    """An analysis engine failed: a transfer function crashed, a solver
    invariant broke, or a degraded state failed the soundness watchdog."""

    def __init__(self, message: str, node: int | None = None, proc: str | None = None) -> None:
        self.node = node
        self.proc = proc
        super().__init__(message)


class BudgetExceeded(AnalysisError):
    """A resource budget was exhausted mid-analysis.

    ``kind`` names the limit that tripped (``"iterations"``,
    ``"wall_clock"``, ``"state_size"``, or ``"fault"`` for injected trips);
    ``spent``/``limit`` quantify it; ``stage`` names the consuming phase
    (e.g. ``"sparse fixpoint"``, ``"narrowing"``, ``"pre-analysis"``).
    """

    def __init__(
        self,
        message: str,
        kind: str = "iterations",
        spent: float | int | None = None,
        limit: float | int | None = None,
        stage: str | None = None,
    ) -> None:
        self.kind = kind
        self.spent = spent
        self.limit = limit
        self.stage = stage
        super().__init__(message)


class SoundnessViolation(AnalysisError):
    """The soundness watchdog found a degraded state that is *not* bounded
    by the flow-insensitive pre-analysis state (Lemma 2 would not apply)."""


class CheckpointError(ReproError):
    """A checkpoint could not be trusted: unreadable file, wrong magic or
    format version, digest mismatch, truncation, or a configuration
    fingerprint that does not match the resuming run. Restores fail closed —
    a poisoned snapshot is never partially applied."""


class CheckpointVersionError(CheckpointError):
    """A well-formed checkpoint in a format version this build does not
    read. Unlike corruption, the file may still be good for the build that
    wrote it, so a caller that owns durable data in it must not erase it."""


class AnalysisInterrupted(ReproError):
    """The process received SIGINT/SIGTERM while an engine was running.

    Raised from the signal handler installed by
    :func:`repro.runtime.interrupt.raising_signal_handlers` so that the
    engine's abort path can flush a final checkpoint before the process
    exits with the conventional ``128 + signum`` code."""

    def __init__(self, signum: int) -> None:
        self.signum = signum
        super().__init__(f"interrupted by signal {signum}")
