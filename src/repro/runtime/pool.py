"""Fault-tolerant multi-process batch driver (``repro batch FILES...``).

Analyzing a large codebase means many independent translation units — the
paper's Table 2 workloads are exactly that shape — and at that scale
workers crash, hang, and get preempted. This driver runs one analysis per
subprocess worker and supervises the fleet:

* **crash detection** — a worker that exits nonzero, dies on a signal, or
  stops touching its heartbeat file without having written its result is
  treated as crashed;
* **per-job wall-clock timeouts** — SIGTERM (which the worker converts
  into a final checkpoint flush, see :mod:`repro.runtime.interrupt`), a
  grace period, then SIGKILL;
* **bounded retry with exponential backoff + jitter** — crashes and
  timeouts requeue the job up to ``max_retries`` times; anticipated
  analysis failures (:class:`ReproError`: parse errors, budget exhaustion
  in fail mode) are *permanent* and never retried;
* **resume-from-checkpoint** — every worker checkpoints periodically
  (:mod:`repro.runtime.checkpoint`); a retry that finds a checkpoint
  resumes from it, and a retry whose checkpoint fails validation falls
  back to a fresh run (recording the restore error) rather than trusting
  a poisoned snapshot.

Each job ends in exactly one outcome — ``ok``, ``degraded``,
``resumed×k``, or ``failed``. Frontend-poisoned files that *recover*
(malformed declarations skipped, unparseable functions quarantined behind
havoc stubs) finish ``degraded`` with their diagnostic count and
quarantine list attached; only a file with zero recoverable functions is
a permanent failure. The driver aggregates worker telemetry
counters (``checkpoint.writes``, ``checkpoint.bytes``) plus its own
(``worker.retries``, ``worker.restores``) into the supervising registry.

Fault injection: a job's :class:`FaultPlan` is applied on the *first*
attempt only (``kill_worker_at`` would otherwise kill every retry too);
``corrupt_checkpoint`` is driver-side — bytes of the checkpoint are
flipped before the first retry, exercising the fail-closed restore path
end to end.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import random
import signal
import time
from dataclasses import dataclass, field

from repro.runtime.atomicio import atomic_write_json
from repro.runtime.backoff import BackoffPolicy
from repro.runtime.errors import AnalysisInterrupted, ReproError
from repro.runtime.faults import FaultPlan, corrupt_file_tail
from repro.telemetry.core import Telemetry

#: seconds between SIGTERM and SIGKILL when stopping a worker
_TERM_GRACE = 3.0
#: supervisor poll period (seconds)
_POLL = 0.03


@dataclass
class BatchJob:
    """One translation unit to analyze."""

    path: str
    domain: str = "interval"
    mode: str = "sparse"
    #: extra ``analyze()`` options (``narrowing_passes``, ``strict``, ...)
    options: dict = field(default_factory=dict)
    #: fault plan applied on the first attempt only (testing)
    faults: FaultPlan | None = None


@dataclass
class JobOutcome:
    """What finally happened to one job."""

    path: str
    status: str = "failed"  # "ok" | "degraded" | "failed"
    attempts: int = 1
    #: wall-clock seconds of the final (successful or giving-up) attempt
    wall_s: float = 0.0
    #: OS pid of the worker that produced the final verdict
    worker: int | None = None
    #: successful resume-from-checkpoint events across retries
    resumed: int = 0
    retries: int = 0
    alarms: int = 0
    #: functions replaced by havoc stubs after frontend recovery
    quarantined: list[str] = field(default_factory=list)
    #: recovered frontend error diagnostics (count)
    diagnostics: int = 0
    #: functions the analysis actually covered (defined minus quarantined)
    functions: int = 0
    error: str | None = None
    #: per-retry causes ("crash(exit -9)", "timeout", "heartbeat")
    causes: list[str] = field(default_factory=list)
    #: fail-closed restores that fell back to a fresh run
    restore_errors: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        if self.status == "failed":
            return "failed"
        if self.resumed:
            return f"resumed×{self.resumed}"
        return self.status

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["label"] = self.label
        return out


@dataclass
class BatchReport:
    """The whole batch's outcomes plus aggregated counters."""

    outcomes: list[JobOutcome]
    counters: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def exit_code(self) -> int:
        if any(o.status == "failed" for o in self.outcomes):
            return 2
        # recovered frontend diagnostics share the alarm exit path
        if any(o.alarms or o.diagnostics for o in self.outcomes):
            return 1
        return 0

    def as_dict(self) -> dict:
        return {
            "jobs": [o.as_dict() for o in self.outcomes],
            "counters": dict(self.counters),
            "elapsed_s": self.elapsed,
            "exit_code": self.exit_code,
        }

    def text(self) -> str:
        width = max((len(os.path.basename(o.path)) for o in self.outcomes), default=4)
        lines = [
            f"{'file':<{width}}  {'outcome':<12} {'tries':>5} "
            f"{'wall':>8} {'worker':>7} {'alarms':>6}  note"
        ]
        for o in self.outcomes:
            parts = []
            if o.error:
                parts.append(o.error)
            elif o.causes:
                parts.append("; ".join(o.causes))
            if o.diagnostics:
                parts.append(f"{o.diagnostics} frontend diagnostics")
            if o.quarantined:
                parts.append("quarantined: " + ", ".join(o.quarantined))
            note = "; ".join(parts)
            worker = "-" if o.worker is None else str(o.worker)
            lines.append(
                f"{os.path.basename(o.path):<{width}}  {o.label:<12} "
                f"{o.attempts:>5} {o.wall_s:>7.2f}s {worker:>7} "
                f"{o.alarms:>6}  {note}"
            )
        done = sum(1 for o in self.outcomes if o.status != "failed")
        lines.append(
            f"{done}/{len(self.outcomes)} jobs completed, "
            f"{self.counters.get('worker.retries', 0)} retries, "
            f"{self.counters.get('worker.restores', 0)} restores, "
            f"{self.counters.get('checkpoint.writes', 0)} checkpoint writes"
        )
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _count_alarms(run) -> int:
    if run.domain != "interval":
        return 0
    from repro.checkers import alarms

    return len(alarms(run.overrun_reports()))


def _worker_main(spec: dict, ckpt_path: str, result_path: str, attempt: int,
                 resume: bool, apply_faults: bool) -> None:
    """Subprocess entry: analyze one file, write the result atomically.

    A worker that *completes* (even with a permanent analysis error) always
    writes a result file and exits 0 — the supervisor reads the verdict
    from the file. A worker that crashes, is killed, or is interrupted
    leaves no result file, which is the supervisor's retry signal.
    """
    from repro.api import analyze
    from repro.runtime.errors import CheckpointError
    from repro.runtime.interrupt import raising_signal_handlers

    # let the supervisor's heartbeat monitor see us alive before any work
    with open(ckpt_path + ".hb", "w") as f:
        f.write(str(time.time()))

    hang_attempt = spec["options"].pop("_hang_attempt", None)
    if hang_attempt == attempt:
        time.sleep(600)  # test hook: simulate a hung worker

    faults = None
    if apply_faults and spec.get("faults") is not None:
        plan = dict(spec["faults"])
        if plan.get("drop_dep_edge") is not None:
            plan["drop_dep_edge"] = tuple(plan["drop_dep_edge"])
        faults = FaultPlan(**plan)

    tel = Telemetry(enabled=True)
    result: dict = {"status": "ok", "resumed": False, "restore_error": None}

    def _run(resume_flag: bool, fault_plan):
        with open(spec["path"], "r") as f:
            source = f.read()
        return analyze(
            source,
            domain=spec["domain"],
            mode=spec["mode"],
            filename=spec["path"],
            checkpoint_path=ckpt_path,
            checkpoint_every=spec["checkpoint_every"],
            resume=resume_flag,
            faults=fault_plan,
            telemetry=tel,
            **spec["options"],
        )

    try:
        with raising_signal_handlers(signal.SIGTERM, signal.SIGINT):
            try:
                run = _run(resume, faults)
                result["resumed"] = resume
            except CheckpointError as exc:
                # fail closed: never trust a poisoned snapshot — rerun fresh
                result["restore_error"] = str(exc)
                try:
                    os.unlink(ckpt_path)
                except OSError:
                    pass
                run = _run(False, None)
        result["alarms"] = _count_alarms(run)
        degraded = list(run.diagnostics.degraded_procs)
        result["degraded_procs"] = degraded
        result["quarantined"] = sorted(run.quarantined)
        result["diagnostics"] = len(run.frontend_diagnostics.errors())
        result["functions"] = len(run.program.analyzed_functions())
        # Frontend-poisoned inputs that still recovered are *degraded*,
        # not failed: every clean function was analyzed.
        if degraded or result["quarantined"] or result["diagnostics"]:
            result["status"] = "degraded"
    except AnalysisInterrupted:
        raise  # die without a result file: the supervisor retries us
    except ReproError as exc:
        result = {
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "resumed": False,
            "restore_error": result.get("restore_error"),
            "alarms": 0,
        }
    result["counters"] = dict(tel.counters)
    atomic_write_json(result_path, result)


# --------------------------------------------------------------------------
# Supervisor side
# --------------------------------------------------------------------------


@dataclass
class _Active:
    index: int
    attempt: int
    proc: multiprocessing.process.BaseProcess
    deadline: float | None
    resumed: bool
    #: perf_counter at launch — the per-job wall clock's zero
    started: float = 0.0


@dataclass
class _Queued:
    index: int
    attempt: int
    ready_at: float


def _job_paths(checkpoint_dir: str, job: BatchJob) -> tuple[str, str]:
    digest = hashlib.sha256(os.path.abspath(job.path).encode()).hexdigest()[:10]
    stem = os.path.splitext(os.path.basename(job.path))[0]
    base = os.path.join(checkpoint_dir, f"{stem}-{digest}")
    return base + ".ckpt", base + ".result.json"


#: back-compat alias — the byte-flipper now lives in runtime.faults so the
#: serve supervisor's ``corrupt_snapshot`` fault shares it
_corrupt_file = corrupt_file_tail


def _stop_worker(proc) -> None:
    if not proc.is_alive():
        return
    proc.terminate()  # SIGTERM → worker flushes a final checkpoint
    proc.join(_TERM_GRACE)
    if proc.is_alive():
        proc.kill()
        proc.join()


def run_batch(
    jobs: list[BatchJob],
    checkpoint_dir: str,
    *,
    max_workers: int | None = None,
    job_timeout: float | None = None,
    max_retries: int = 2,
    backoff_base: float = 0.25,
    backoff_factor: float = 2.0,
    jitter: float = 0.5,
    seed: int = 0,
    heartbeat_timeout: float | None = None,
    resume: bool = False,
    checkpoint_every: int = 5,
    telemetry=None,
) -> BatchReport:
    """Analyze ``jobs`` concurrently with retry/resume supervision.

    ``resume=True`` lets *first* attempts pick up checkpoints left by a
    previous batch invocation (the default treats them as stale). Retries
    always resume when a checkpoint exists. Backoff before retry ``k``
    follows :class:`repro.runtime.backoff.BackoffPolicy` —
    ``backoff_base * backoff_factor**(k-1) * (1 + jitter*rng.random())``
    with a seeded PRNG, so batch schedules are reproducible.
    """
    # the report's aggregate counters must exist even without a caller
    # registry, so the no-telemetry default is a private enabled one
    tel = Telemetry(enabled=True) if telemetry is None else Telemetry.coerce(telemetry)
    os.makedirs(checkpoint_dir, exist_ok=True)
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    rng = random.Random(seed)
    backoff = BackoffPolicy(
        base=backoff_base, factor=backoff_factor, jitter=jitter
    )
    if max_workers is None:
        max_workers = min(4, os.cpu_count() or 1)

    start = time.perf_counter()
    outcomes = [JobOutcome(path=job.path) for job in jobs]
    paths = [_job_paths(checkpoint_dir, job) for job in jobs]
    resume_launches = [0] * len(jobs)

    queue: list[_Queued] = []
    for i, (ckpt, result_path) in enumerate(paths):
        # stale results from a previous batch would be mistaken for this
        # run's verdicts; stale checkpoints are only kept under --resume
        if os.path.exists(result_path):
            os.unlink(result_path)
        if not resume and os.path.exists(ckpt):
            os.unlink(ckpt)
        queue.append(_Queued(i, attempt=1, ready_at=0.0))
    active: dict[int, _Active] = {}

    def spec_for(index: int) -> dict:
        job = jobs[index]
        return {
            "path": job.path,
            "domain": job.domain,
            "mode": job.mode,
            "options": dict(job.options),
            "checkpoint_every": checkpoint_every,
            "faults": (
                dataclasses.asdict(job.faults) if job.faults is not None else None
            ),
        }

    def launch(entry: _Queued) -> None:
        index, attempt = entry.index, entry.attempt
        ckpt, result_path = paths[index]
        resume_flag = os.path.exists(ckpt) and (attempt > 1 or resume)
        if resume_flag:
            resume_launches[index] += 1
        # restart the staleness clock: a previous attempt's heartbeat file
        # must not get the fresh worker killed before it first reports in
        with open(ckpt + ".hb", "w") as f:
            f.write(str(time.time()))
        proc = ctx.Process(
            target=_worker_main,
            args=(spec_for(index), ckpt, result_path, attempt,
                  resume_flag, attempt == 1),
            daemon=True,
        )
        proc.start()
        now = time.perf_counter()
        active[index] = _Active(
            index=index,
            attempt=attempt,
            proc=proc,
            deadline=(now + job_timeout) if job_timeout else None,
            resumed=resume_flag,
            started=now,
        )
        outcomes[index].attempts = attempt
        outcomes[index].worker = proc.pid

    def requeue(entry: _Active, cause: str) -> bool:
        """Schedule a retry; False when the retry budget is exhausted."""
        index = entry.index
        outcome = outcomes[index]
        outcome.causes.append(cause)
        if entry.attempt > max_retries:
            outcome.status = "failed"
            outcome.error = f"gave up after {entry.attempt} attempts ({cause})"
            outcome.wall_s = time.perf_counter() - entry.started
            return False
        outcome.retries += 1
        tel.count("worker.retries")
        job = jobs[index]
        if (
            entry.attempt == 1
            and job.faults is not None
            and job.faults.corrupt_checkpoint
            and os.path.exists(paths[index][0])
        ):
            _corrupt_file(paths[index][0])
        delay = backoff.delay(entry.attempt, rng)
        queue.append(
            _Queued(index, entry.attempt + 1, time.perf_counter() + delay)
        )
        return True

    def finalize(entry: _Active, result: dict) -> None:
        index = entry.index
        outcome = outcomes[index]
        outcome.wall_s = time.perf_counter() - entry.started
        if result.get("resumed"):
            outcome.resumed += 1
            tel.count("worker.restores")
        if result.get("restore_error"):
            outcome.restore_errors.append(result["restore_error"])
        outcome.alarms = int(result.get("alarms") or 0)
        outcome.quarantined = list(result.get("quarantined") or [])
        outcome.diagnostics = int(result.get("diagnostics") or 0)
        outcome.functions = int(result.get("functions") or 0)
        outcome.counters = result.get("counters") or {}
        for name, value in outcome.counters.items():
            if isinstance(value, int):
                tel.count(name, value)
        if result["status"] == "error":
            outcome.status = "failed"
            outcome.error = result.get("error")
        else:
            outcome.status = result["status"]

    with tel.span("batch", jobs=len(jobs), workers=max_workers) as batch_span:
        try:
            while queue or active:
                now = time.perf_counter()
                ready = [e for e in queue if e.ready_at <= now]
                for entry in ready:
                    if len(active) >= max_workers:
                        break
                    queue.remove(entry)
                    launch(entry)
                for entry in list(active.values()):
                    ckpt, result_path = paths[entry.index]
                    alive = entry.proc.is_alive()
                    if not alive and os.path.exists(result_path):
                        with open(result_path) as f:
                            finalize(entry, json.load(f))
                        entry.proc.join()
                        del active[entry.index]
                        continue
                    if not alive:
                        entry.proc.join()
                        del active[entry.index]
                        requeue(entry, f"crash(exit {entry.proc.exitcode})")
                        continue
                    now = time.perf_counter()
                    if entry.deadline is not None and now > entry.deadline:
                        _stop_worker(entry.proc)
                        del active[entry.index]
                        requeue(entry, "timeout")
                        continue
                    if heartbeat_timeout is not None:
                        try:
                            age = time.time() - os.path.getmtime(ckpt + ".hb")
                        except OSError:
                            age = None
                        if age is not None and age > heartbeat_timeout:
                            _stop_worker(entry.proc)
                            del active[entry.index]
                            requeue(entry, "heartbeat")
                            continue
                time.sleep(_POLL)
        finally:
            for entry in active.values():
                _stop_worker(entry.proc)
        batch_span.set(
            retries=tel.counters.get("worker.retries", 0),
            restores=tel.counters.get("worker.restores", 0),
        )

    # restores the workers could not report (they died before writing a
    # result) still happened if a later launch resumed: trust launch counts
    for i, outcome in enumerate(outcomes):
        extra = resume_launches[i] - len(outcome.restore_errors) - outcome.resumed
        if outcome.status != "failed" and extra > 0:
            outcome.resumed += extra
            tel.count("worker.restores", extra)

    return BatchReport(
        outcomes=outcomes,
        counters=dict(tel.counters),
        elapsed=time.perf_counter() - start,
    )
