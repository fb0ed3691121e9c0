"""Supervised serve runtime: a crash-recovering session worker.

``repro serve --supervised`` splits the query server into two processes:

* a **session worker** child that owns the :class:`ServeSession` (all
  resident per-combo fixpoints) and speaks the PR 9 line protocol over a
  pipe pair. It writes a heartbeat file around every request, records
  every acked ``edit``'s post-edit source durably *before* replying
  (``serve-source.ckpt``, PR 5 codec), and auto-snapshots the resident
  tables (``serve-resident.ckpt``) after every edit and every
  ``snapshot_every`` requests, if the resident state changed since the
  last write — an unchanged :attr:`ServeSession.state_version` skips the
  encode, hash and fsync (``stats`` counts ``snapshots`` written and
  ``snapshots_skipped``);
* a **supervisor** parent that forwards client requests to the worker and
  watches it: a worker that exits, is killed, blows the per-request hard
  ``request_deadline`` (a watchdog SIGKILL, *not* the cooperative
  :class:`~repro.runtime.budget.Budget`), or stops touching its heartbeat
  mid-request is killed and respawned with seeded exponential-backoff
  delays (:mod:`repro.runtime.backoff`). The in-flight request is
  answered with ``{"ok": false, "error": "retry", "cause": ...,
  "retry_after": ...}`` instead of the server dying; the respawned worker
  reloads the durable source (so acked edits survive) and warm-starts
  from the latest snapshot when its fingerprint still matches — a
  corrupted or stale snapshot fails closed and the worker simply
  re-solves lazily.

Recovery invariant (property-tested in ``tests/server/test_chaos.py``):
because edits are durable-before-ack and snapshots are a pure performance
cache keyed by a source fingerprint, every post-restart answer is
byte-identical to the answer of a never-crashed session that processed
the same acked requests.

On top of supervision the transports add **overload-aware admission
control**: reader threads push requests into a bounded pending queue and
immediately shed with ``{"ok": false, "error": "overloaded"}`` once the
queue holds ``max_pending`` requests. Memory pressure inside the worker
is handled by the session itself (``max_resident_bytes`` LRU eviction,
:meth:`ServeSession.maybe_evict`).

Fault injection: a :class:`~repro.runtime.faults.FaultPlan` with
``kill_request_at`` / ``hang_request_at`` / ``kill_edit_at`` is shipped to
the worker's *first* incarnation only; ``corrupt_snapshot`` is
supervisor-side (bytes of the resident snapshot are flipped before the
first respawn, exercising the fail-closed restore).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import queue as queuelib
import random
import signal
import socket as socketlib
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.runtime.backoff import BackoffPolicy
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.collector import collector_paused
from repro.runtime.errors import CheckpointError, CheckpointVersionError, ReproError
from repro.runtime.faults import FaultPlan, corrupt_file_tail
from repro.telemetry.core import Telemetry

#: file names inside the supervisor's state directory
SOURCE_CKPT = "serve-source.ckpt"
RESIDENT_CKPT = "serve-resident.ckpt"
HEARTBEAT_FILE = "serve-worker.hb"

_SOURCE_KIND = "serve-source"

#: seconds between SIGTERM and SIGKILL when stopping a worker
_TERM_GRACE = 3.0
#: supervisor poll period while waiting on a worker response (seconds)
_POLL = 0.02


@dataclass
class SupervisorConfig:
    """Supervision policy for one serve runtime."""

    #: hard wall-clock ceiling per request; ``None`` disables the watchdog
    request_deadline: float | None = 60.0
    #: mid-request heartbeat staleness that counts as a hung worker
    #: (typically < ``request_deadline`` for earlier detection)
    heartbeat_timeout: float | None = None
    #: how long a fresh worker may take to report ready (loading a large
    #: program + snapshot restore happen here)
    startup_timeout: float = 300.0
    #: auto-snapshot the resident tables every N requests, if the resident
    #: state changed since the last write (0 disables the periodic
    #: cadence; edits always snapshot)
    snapshot_every: int = 16
    #: admission-control cap on queued-but-unserved requests
    max_pending: int = 64
    #: consecutive startup failures before the supervisor gives up on
    #: respawning and answers every request with ``unavailable``
    max_restarts: int = 8
    #: respawn delay schedule (seeded; one jitter draw per respawn)
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(
            base=0.05, factor=2.0, jitter=0.25, max_delay=2.0
        )
    )
    seed: int = 0
    #: fault plan shipped to the first worker incarnation (testing)
    faults: FaultPlan | None = None


def _touch(path: str) -> None:
    with open(path, "w") as f:
        f.write(str(time.time()))


def _load_durable_source(state_dir: str) -> tuple[str | None, int]:
    """The last durably-recorded (edited) source text and generation, or
    ``(None, 0)`` when there is none / it fails validation (fail closed:
    fall back to the original program text). A file in another format
    version holds acknowledged edits this build cannot read: it is kept,
    and a one-line :class:`ReproError` refuses the start."""
    path = os.path.join(state_dir, SOURCE_CKPT)
    if not os.path.exists(path):
        return None, 0
    try:
        payload = load_checkpoint(path)
    except CheckpointVersionError as exc:
        raise ReproError(
            f"refusing to start: {exc}; it holds acknowledged edits, "
            f"so it was kept"
        ) from exc
    except CheckpointError:
        try:
            os.unlink(path)
        except OSError:
            pass
        return None, 0
    if payload.get("kind") != _SOURCE_KIND:
        return None, 0
    return payload.get("source"), int(payload.get("generation", 0))


def _worker_main(
    spec: dict, req_conn, resp_conn, state_dir: str, faults_dict: dict | None
) -> None:
    """Session-worker child entry: restore durable state, report ready,
    then serve requests from the pipe until EOF/shutdown.

    Requests go through :func:`repro.server.protocol.handle_request`, the
    handler ``serve`` uses in-process; the worker's ``on_edit`` hook makes
    each edit durable (and re-snapshots) before the reply is sent. The
    worker never answers a request with anything but one line of JSON; a
    crash (injected or real) simply leaves the supervisor without a
    response, which is its retry signal. A SIGINT/SIGTERM raised as
    :class:`~repro.runtime.errors.AnalysisInterrupted` mid-request ends
    the worker instead of being answered.
    """
    from repro.server.protocol import MAX_REQUEST_BYTES, handle_request
    from repro.server.session import ServeSession

    hb_path = os.path.join(state_dir, HEARTBEAT_FILE)
    resident_path = os.path.join(state_dir, RESIDENT_CKPT)
    source_path = os.path.join(state_dir, SOURCE_CKPT)
    _touch(hb_path)

    injector = None
    if faults_dict:
        plan = dict(faults_dict)
        if plan.get("drop_dep_edge") is not None:
            plan["drop_dep_edge"] = tuple(plan["drop_dep_edge"])
        injector = FaultPlan(**plan).injector()

    # Acked edits outlive crashes: prefer the durably-recorded source over
    # the original program text the supervisor was started with.
    durable_source, generation = _load_durable_source(state_dir)
    session = ServeSession(
        durable_source if durable_source is not None else spec["source"],
        spec["filename"],
        **spec["session"],
    )
    session.generation = generation

    restored: list[str] = []
    restore_error: str | None = None
    if os.path.exists(resident_path):
        try:
            restored = session.restore(resident_path)["residents"]
        except (CheckpointError, ReproError) as exc:
            # fail closed: a poisoned or source-mismatched snapshot is
            # dropped and the session re-solves lazily
            restore_error = str(exc)
            try:
                os.unlink(resident_path)
            except OSError:
                pass
    if spec.get("preload"):
        res = session.resident()
        session._ensure_solved(res, frozenset(res.plan.node_ids))
    _touch(hb_path)
    resp_conn.send(
        json.dumps(
            {
                "ready": True,
                "generation": session.generation,
                "recovered_source": durable_source is not None,
                "restored": restored,
                "restore_error": restore_error,
            }
        )
    )

    snapshot_every = int(spec.get("snapshot_every") or 0)
    max_request_bytes = int(spec.get("max_request_bytes") or MAX_REQUEST_BYTES)
    n_requests = 0
    n_edits = 0
    # ``session.state_version`` at the last successful auto-snapshot
    written_version: int | None = None

    def snapshot_now() -> None:
        nonlocal written_version
        version = session.state_version
        if version == written_version:
            session.counters["snapshots_skipped"] += 1
            return
        try:
            session.snapshot(resident_path)
        except Exception:  # noqa: BLE001 - snapshots are best-effort cache
            return  # the next cadence point retries
        written_version = version

    def on_edit() -> None:
        nonlocal n_edits
        n_edits += 1
        if injector is not None:
            # the atomicity window: the edit is applied in memory but not
            # yet durable — a kill here must roll it back
            injector.after_edit_applied(n_edits)
        save_checkpoint(
            source_path,
            {
                "kind": _SOURCE_KIND,
                "source": session.source,
                "generation": session.generation,
            },
        )
        snapshot_now()

    while True:
        try:
            line = req_conn.recv()
        except (EOFError, OSError):
            break
        if line is None:  # supervisor-side close sentinel
            break
        _touch(hb_path)
        n_requests += 1
        if injector is not None:
            injector.before_request(n_requests)
        # as in protocol.serve_lines: the collector's deferred young
        # collection runs after the reply is on its way
        with collector_paused():
            resp_conn.send(
                handle_request(
                    session,
                    line,
                    max_request_bytes=max_request_bytes,
                    on_edit=on_edit,
                )
            )
        if session.shutdown_requested:
            break
        if snapshot_every and n_requests % snapshot_every == 0:
            snapshot_now()
        _touch(hb_path)


def _peek(line: str) -> tuple[object, str | None]:
    """Best-effort (id, op) of a raw request line, for synthesizing
    supervisor-side answers. Garbage decodes to (None, None) — the worker
    produces the proper protocol error for it."""
    try:
        payload = json.loads(line)
    except ValueError:
        return None, None
    if not isinstance(payload, dict):
        return None, None
    op = payload.get("op")
    return payload.get("id"), op if isinstance(op, str) else None


class Supervisor:
    """Parent-side state machine: spawn, watch, kill, respawn, answer.

    Programmatic use (tests, benchmarks, the chaos harness)::

        sup = Supervisor(source, "prog.c", strict=False, widen=False)
        sup.start()
        resp = sup.ask({"op": "query", "kind": "interval",
                        "proc": "main", "var": "x"})
        sup.stop()

    ``handle_line`` is the transport-facing entry: one raw request line
    in, exactly one response line out, never an exception (interrupts
    excepted). It must only be called from one thread at a time — the
    transports below funnel every admitted request through a single
    consumer loop.
    """

    def __init__(
        self,
        source: str,
        filename: str = "<serve>",
        *,
        state_dir: str | None = None,
        config: SupervisorConfig | None = None,
        max_request_bytes: int | None = None,
        preload: bool = False,
        telemetry=None,
        **session_kwargs,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.telemetry = Telemetry.coerce(telemetry)
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if state_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            state_dir = self._tmpdir.name
        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        self._spec = {
            "source": source,
            "filename": filename,
            "session": dict(session_kwargs),
            "snapshot_every": self.config.snapshot_every,
            "max_request_bytes": max_request_bytes,
            "preload": preload,
        }
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._rng = random.Random(self.config.seed)
        self.incarnation = 0
        self.closing = False
        self._defunct = False
        self._consecutive_failures = 0
        self._corruption_done = False
        self._worker = None
        self._req_conn = None
        self._resp_conn = None
        self.ready_info: dict = {}
        self.counters = {
            "requests": 0,
            "restarts": 0,
            "crashes": 0,
            "deadline_kills": 0,
            "heartbeat_kills": 0,
            "shed": 0,
            "retry_answers": 0,
            "spawn_failures": 0,
            "snapshot_restores": 0,
            "restore_failures": 0,
        }

    # -- worker lifecycle ------------------------------------------------------

    @property
    def worker_pid(self) -> int | None:
        return self._worker.pid if self._worker is not None else None

    def _heartbeat_age(self) -> float | None:
        try:
            return time.time() - os.path.getmtime(
                os.path.join(self.state_dir, HEARTBEAT_FILE)
            )
        except OSError:
            return None

    def _close_conns(self) -> None:
        for conn in (self._req_conn, self._resp_conn):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self._req_conn = self._resp_conn = None

    def _kill_worker(self) -> None:
        """SIGKILL + reap. Used by the watchdog — no grace: a hung worker
        by definition is not going to flush anything useful."""
        if self._worker is None:
            return
        if self._worker.is_alive():
            self._worker.kill()
        self._worker.join()
        self._worker = None
        self._close_conns()

    def _stop_worker(self, signum: int = signal.SIGTERM) -> None:
        """Forward ``signum`` to the worker, give it a grace period, then
        SIGKILL; always reaps the child before returning."""
        if self._worker is None:
            return
        if self._worker.is_alive():
            try:
                os.kill(self._worker.pid, signum)
            except (OSError, TypeError):
                pass
            self._worker.join(_TERM_GRACE)
            if self._worker.is_alive():
                self._worker.kill()
        self._worker.join()
        self._worker = None
        self._close_conns()

    def _spawn(self) -> bool:
        """One spawn attempt; True when the worker reported ready."""
        self.incarnation += 1
        faults = self.config.faults
        if (
            faults is not None
            and faults.corrupt_snapshot
            and self.incarnation == 2
            and not self._corruption_done
        ):
            resident = os.path.join(self.state_dir, RESIDENT_CKPT)
            if os.path.exists(resident):
                corrupt_file_tail(resident)
                self._corruption_done = True
        faults_dict = None
        if faults is not None and self.incarnation == 1:
            faults_dict = dataclasses.asdict(faults)
        req_parent, req_child = self._ctx.Pipe()
        resp_child, resp_parent = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._spec, req_child, resp_child, self.state_dir, faults_dict),
            daemon=True,
        )
        proc.start()
        req_child.close()
        resp_child.close()
        deadline = time.monotonic() + self.config.startup_timeout
        while time.monotonic() < deadline:
            try:
                if resp_parent.poll(0.05):
                    msg = json.loads(resp_parent.recv())
                    if msg.get("ready"):
                        self._worker = proc
                        self._req_conn = req_parent
                        self._resp_conn = resp_parent
                        self.ready_info = msg
                        if msg.get("restored"):
                            self.counters["snapshot_restores"] += 1
                            self.telemetry.count("serve.snapshot_restores")
                        if msg.get("restore_error"):
                            self.counters["restore_failures"] += 1
                            self.telemetry.count("serve.restore_failures")
                        return True
                    break  # first message was not a ready banner: bad spawn
            except (EOFError, OSError):
                break
            if not proc.is_alive():
                break
        if proc.is_alive():
            proc.kill()
        proc.join()
        for conn in (req_parent, resp_parent):
            try:
                conn.close()
            except OSError:
                pass
        self.counters["spawn_failures"] += 1
        self.telemetry.count("serve.spawn_failures")
        return False

    def _ensure_worker(self) -> bool:
        """A live, ready worker — respawning (with backoff) as needed."""
        if self._defunct:
            return False
        if self._worker is not None and self._worker.is_alive():
            return True
        startup_failures = 0
        while True:
            if self.incarnation > 0:
                attempt = max(1, min(self._consecutive_failures, 12))
                time.sleep(self.config.backoff.delay(attempt, self._rng))
            if self._spawn():
                if self.incarnation > 1:
                    self.counters["restarts"] += 1
                    self.telemetry.count("serve.restarts")
                return True
            startup_failures += 1
            self._consecutive_failures += 1
            if startup_failures > self.config.max_restarts:
                self._defunct = True
                return False

    def start(self) -> dict:
        """Spawn the first worker; raises :class:`ReproError` when it
        cannot come up at all, or when the state directory's durable
        source is in a format version this build does not read."""
        _load_durable_source(self.state_dir)  # raises before any spawn
        if not self._ensure_worker():
            raise ReproError(
                f"serve worker failed to start after "
                f"{self.config.max_restarts + 1} attempts"
            )
        return self.ready_info

    def stop(self, signum: int = signal.SIGTERM) -> None:
        """Forward ``signum`` to the worker, reap it, release state."""
        self.closing = True
        self._stop_worker(signum)
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # -- request path ----------------------------------------------------------

    def _retry_after(self) -> float:
        # informational estimate of the next respawn delay (jitter-free so
        # it does not consume the seeded schedule)
        attempt = max(1, min(self._consecutive_failures, 12))
        delay = self.config.backoff.base * self.config.backoff.factor ** (
            attempt - 1
        )
        if self.config.backoff.max_delay is not None:
            delay = min(delay, self.config.backoff.max_delay)
        return round(delay, 4)

    def _retry_answer(self, request_id, cause: str) -> str:
        from repro.server.protocol import encode_response

        self.counters["retry_answers"] += 1
        self.telemetry.count("serve.retry_answers")
        resp: dict = {
            "ok": False,
            "error": "retry",
            "cause": cause,
            "retry_after": self._retry_after(),
            "message": f"worker lost mid-request ({cause}); retry the request",
        }
        if request_id is not None:
            resp["id"] = request_id
        return encode_response(resp)

    def _error_line(self, request_id, code: str, message: str) -> str:
        from repro.server.protocol import encode_response, error_response

        return encode_response(error_response(code, message, request_id))

    def _merge_stats(self, resp_line: str) -> str:
        from repro.server.protocol import encode_response

        try:
            resp = json.loads(resp_line)
        except ValueError:
            return resp_line
        if isinstance(resp, dict) and resp.get("ok"):
            resp["supervisor"] = {
                **self.counters,
                "incarnation": self.incarnation,
                "worker_pid": self.worker_pid,
            }
            return encode_response(resp)
        return resp_line

    def _worker_lost(self, request_id, cause: str) -> str:
        self.counters["crashes"] += 1
        self.telemetry.count("serve.crashes")
        self._consecutive_failures += 1
        self._kill_worker()
        return self._retry_answer(request_id, cause)

    def handle_line(self, line: str) -> str:
        """Process one raw request line; returns exactly one response
        line. Crash/hang/deadline events surface as ``retry`` answers."""
        request_id, op = _peek(line)
        self.counters["requests"] += 1
        if self.closing:
            return self._error_line(
                request_id, "shutting-down", "server is shutting down"
            )
        if not self._ensure_worker():
            return self._error_line(
                request_id,
                "unavailable",
                "session worker cannot be (re)started; giving up",
            )
        try:
            self._req_conn.send(line)
        except (OSError, ValueError):
            return self._worker_lost(request_id, "crash")
        started = time.monotonic()
        deadline = (
            started + self.config.request_deadline
            if self.config.request_deadline is not None
            else None
        )
        while True:
            try:
                have_resp = self._resp_conn.poll(_POLL)
            except (OSError, EOFError):
                return self._worker_lost(request_id, "crash")
            if have_resp:
                try:
                    resp_line = self._resp_conn.recv()
                except (EOFError, OSError):
                    return self._worker_lost(request_id, "crash")
                self._consecutive_failures = 0
                if op == "stats":
                    resp_line = self._merge_stats(resp_line)
                if op == "shutdown":
                    self.closing = True
                    self._stop_worker()
                return resp_line
            if not self._worker.is_alive():
                # a response may have raced the death through the pipe
                try:
                    if self._resp_conn.poll(0.2):
                        continue
                except (OSError, EOFError):
                    pass
                return self._worker_lost(request_id, "crash")
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                self.counters["deadline_kills"] += 1
                self.telemetry.count("serve.deadline_kills")
                self._consecutive_failures += 1
                self._kill_worker()
                return self._retry_answer(request_id, "deadline")
            hb = self.config.heartbeat_timeout
            if hb is not None:
                age = self._heartbeat_age()
                in_flight = now - started
                if age is not None and age >= hb and in_flight >= hb:
                    self.counters["heartbeat_kills"] += 1
                    self.telemetry.count("serve.heartbeat_kills")
                    self._consecutive_failures += 1
                    self._kill_worker()
                    return self._retry_answer(request_id, "heartbeat")

    def ask(self, request: dict) -> dict:
        """Round-trip one request dict (programmatic convenience)."""
        return json.loads(self.handle_line(json.dumps(request)))

    def shed(self, line: str, write) -> None:
        """Admission control: answer an unadmitted request immediately
        with ``overloaded`` (called from transport reader threads)."""
        request_id, _ = _peek(line)
        self.counters["shed"] += 1
        self.telemetry.count("serve.shed")
        write(
            self._error_line(
                request_id,
                "overloaded",
                f"pending queue full (max {self.config.max_pending}); "
                "retry later",
            )
        )


# --------------------------------------------------------------------------
# Transports with admission control
# --------------------------------------------------------------------------

_EOF = object()


def serve_supervised_stdio(sup: Supervisor, stdin, stdout) -> int:
    """Drive a supervisor over text streams. A reader thread admits
    requests into a bounded queue (shedding with ``overloaded`` beyond
    ``max_pending``); the calling thread is the single consumer, so
    signals still interrupt it cleanly."""
    lock = threading.Lock()

    def write(line: str) -> None:
        with lock:
            stdout.write(line + "\n")
            stdout.flush()

    # SimpleQueue, not Queue: the signal handlers raise in this thread, and
    # an exception raised inside Queue.get's Condition.wait can leave its
    # mutex released, so the ``with`` around it fails with "release
    # unlocked lock" instead of unwinding as AnalysisInterrupted. The C
    # SimpleQueue keeps no Python-level lock state to corrupt.
    pending: queuelib.SimpleQueue = queuelib.SimpleQueue()

    def reader() -> None:
        try:
            for raw in stdin:
                line = raw.strip()
                if not line:
                    continue
                if pending.qsize() >= sup.config.max_pending:
                    sup.shed(line, write)
                    continue
                pending.put(line)
        finally:
            pending.put(_EOF)

    thread = threading.Thread(target=reader, daemon=True, name="serve-stdin")
    thread.start()
    handled = 0
    eof = False
    while not (eof and pending.empty()):
        try:
            item = pending.get(timeout=0.1)
        except queuelib.Empty:
            continue
        if item is _EOF:
            eof = True
            continue
        handled += 1
        write(sup.handle_line(item))
        if sup.closing:
            break
    return handled


def serve_supervised_socket(sup: Supervisor, path: str) -> int:
    """Serve concurrent client connections on a Unix domain socket, all
    funneled through one bounded admission queue. Responses carry the
    request ``id``; shed responses may overtake queued ones."""
    from repro.server.protocol import prepare_socket_path

    prepare_socket_path(path)
    pending: queuelib.SimpleQueue = queuelib.SimpleQueue()  # as in stdio
    stop = threading.Event()
    handled = 0

    def conn_reader(conn) -> None:
        stream = conn.makefile("rw", encoding="utf-8")
        wlock = threading.Lock()

        def write(line: str) -> None:
            try:
                with wlock:
                    stream.write(line + "\n")
                    stream.flush()
            except OSError:
                pass  # client went away; answers to it are moot

        with conn:
            for raw in stream:
                line = raw.strip()
                if not line:
                    continue
                if pending.qsize() >= sup.config.max_pending:
                    sup.shed(line, write)
                    continue
                pending.put((line, write))

    srv = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    try:
        srv.bind(path)
        srv.listen(8)
        srv.settimeout(0.1)

        def acceptor() -> None:
            while not stop.is_set():
                try:
                    conn, _ = srv.accept()
                except socketlib.timeout:
                    continue
                except OSError:
                    return
                threading.Thread(
                    target=conn_reader, args=(conn,), daemon=True,
                    name="serve-conn",
                ).start()

        threading.Thread(
            target=acceptor, daemon=True, name="serve-accept"
        ).start()
        while not sup.closing:
            try:
                line, write = pending.get(timeout=0.1)
            except queuelib.Empty:
                continue
            handled += 1
            write(sup.handle_line(line))
    finally:
        stop.set()
        srv.close()
        try:
            os.unlink(path)
        except OSError:
            pass
    return handled
