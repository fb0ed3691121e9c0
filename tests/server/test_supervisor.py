"""Supervised serve runtime: crash respawn, watchdog kills, snapshot
restore, fail-closed corrupt snapshots, LRU eviction, and admission
control — all seeded and in-process (the CLI-level signal tests live in
``test_robustness.py``, the full chaos property in ``test_chaos.py``).
"""

from __future__ import annotations

import hashlib
import io
import json
import threading
import time

import pytest

from repro.api import analyze
from repro.runtime.checkpoint import CHECKPOINT_VERSION, encode_checkpoint
from repro.runtime.errors import ReproError
from repro.runtime.faults import FaultPlan
from repro.server.session import ServeSession
from repro.server.supervisor import (
    SOURCE_CKPT,
    BackoffPolicy,
    Supervisor,
    SupervisorConfig,
    serve_supervised_stdio,
)

SRC = """int g;
int f(int a) {
    int r;
    r = a + 1;
    return r;
}
int main(void) {
    g = f(41);
    return g;
}
"""

QUERY = {"op": "query", "kind": "interval", "proc": "main", "var": "g"}

#: fast respawns for tests
FAST_BACKOFF = BackoffPolicy(base=0.01, factor=2.0, jitter=0.0, max_delay=0.1)


def make_sup(**config_kwargs) -> Supervisor:
    config_kwargs.setdefault("backoff", FAST_BACKOFF)
    config_kwargs.setdefault("request_deadline", 30.0)
    return Supervisor(SRC, "prog.c", config=SupervisorConfig(**config_kwargs))


@pytest.fixture
def expected_g():
    return str(analyze(SRC).interval_at_exit("main", "g"))


class TestCleanPath:
    def test_round_trip_and_stats(self, expected_g):
        sup = make_sup()
        try:
            sup.start()
            assert sup.ask({"op": "ping", "id": 1})["ok"] is True
            q = sup.ask({**QUERY, "id": 2})
            assert q["ok"] is True
            assert q["interval"]["repr"] == expected_g
            stats = sup.ask({"op": "stats", "id": 3})
            assert stats["ok"] is True
            meta = stats["supervisor"]
            assert meta["incarnation"] == 1
            assert meta["restarts"] == 0
            assert meta["worker_pid"] == sup.worker_pid
        finally:
            sup.stop()

    def test_shutdown_op_reaps_the_worker(self):
        sup = make_sup()
        try:
            sup.start()
            pid = sup.worker_pid
            resp = sup.ask({"op": "shutdown", "id": 9})
            assert resp["ok"] is True
            assert sup.closing
            assert sup.worker_pid is None
            with pytest.raises(OSError):
                import os

                os.kill(pid, 0)  # the child must be gone, not a zombie
        finally:
            sup.stop()


class TestCrashRecovery:
    def test_kill_mid_query_yields_retry_then_recovers(self, expected_g):
        sup = make_sup(faults=FaultPlan(kill_request_at=2))
        try:
            sup.start()
            assert sup.ask({"op": "ping", "id": 1})["ok"] is True
            lost = sup.ask({**QUERY, "id": 2})
            assert lost["ok"] is False
            assert lost["error"] == "retry"
            assert lost["cause"] == "crash"
            assert lost["id"] == 2
            assert lost["retry_after"] > 0
            again = sup.ask({**QUERY, "id": 3})
            assert again["ok"] is True, again
            assert again["interval"]["repr"] == expected_g
            assert sup.counters["restarts"] == 1
            assert sup.counters["crashes"] == 1
            assert sup.incarnation == 2
        finally:
            sup.stop()

    def test_faults_apply_to_first_incarnation_only(self):
        # a respawned worker must not re-fire kill_request_at and livelock
        sup = make_sup(faults=FaultPlan(kill_request_at=1))
        try:
            sup.start()
            assert sup.ask({"op": "ping", "id": 1})["error"] == "retry"
            for i in range(2, 5):
                assert sup.ask({"op": "ping", "id": i})["ok"] is True
            assert sup.counters["restarts"] == 1
        finally:
            sup.stop()

    def test_hang_is_killed_at_the_request_deadline(self, expected_g):
        sup = make_sup(
            request_deadline=0.8,
            faults=FaultPlan(hang_request_at=2, hang_seconds=60.0),
        )
        try:
            sup.start()
            assert sup.ask({"op": "ping", "id": 1})["ok"] is True
            t0 = time.monotonic()
            lost = sup.ask({**QUERY, "id": 2})
            elapsed = time.monotonic() - t0
            assert lost["error"] == "retry"
            assert lost["cause"] == "deadline"
            assert elapsed < 30.0  # the watchdog, not the 60 s hang, ended it
            assert sup.counters["deadline_kills"] == 1
            again = sup.ask({**QUERY, "id": 3})
            assert again["ok"] is True
            assert again["interval"]["repr"] == expected_g
        finally:
            sup.stop()

    def test_lost_heartbeat_is_killed_before_the_deadline(self):
        sup = make_sup(
            request_deadline=60.0,
            heartbeat_timeout=0.5,
            faults=FaultPlan(hang_request_at=2, hang_seconds=60.0),
        )
        try:
            sup.start()
            assert sup.ask({"op": "ping", "id": 1})["ok"] is True
            lost = sup.ask({**QUERY, "id": 2})
            assert lost["error"] == "retry"
            assert lost["cause"] == "heartbeat"
            assert sup.counters["heartbeat_kills"] == 1
            assert sup.counters["deadline_kills"] == 0
        finally:
            sup.stop()


class TestSnapshotRestore:
    def test_restart_warm_starts_from_snapshot(self, expected_g):
        sup = make_sup(snapshot_every=1, faults=FaultPlan(kill_request_at=2))
        try:
            sup.start()
            first = sup.ask({**QUERY, "id": 1})
            assert first["ok"] is True
            assert first["solve"] in ("global", "cone")
            lost = sup.ask({**QUERY, "id": 2})
            assert lost["error"] == "retry"
            again = sup.ask({**QUERY, "id": 3})
            assert again["ok"] is True
            assert again["interval"]["repr"] == expected_g
            # the respawned worker restored the resident table: a pure read
            assert again["solve"] == "resident"
            assert sup.counters["snapshot_restores"] == 1
            assert sup.ready_info["restored"] == ["interval/sparse"]
        finally:
            sup.stop()

    def test_corrupt_snapshot_fails_closed_and_resolves(self, expected_g):
        sup = make_sup(
            snapshot_every=1,
            faults=FaultPlan(kill_request_at=2, corrupt_snapshot=True),
        )
        try:
            sup.start()
            assert sup.ask({**QUERY, "id": 1})["ok"] is True
            assert sup.ask({**QUERY, "id": 2})["error"] == "retry"
            again = sup.ask({**QUERY, "id": 3})
            # fail closed: no restored table, but the answer is still
            # correct via a lazy re-solve
            assert again["ok"] is True
            assert again["interval"]["repr"] == expected_g
            assert again["solve"] in ("global", "cone")
            assert sup.counters["restore_failures"] == 1
            assert sup.counters["snapshot_restores"] == 0
            assert sup.ready_info["restore_error"]
        finally:
            sup.stop()

    def test_acked_edit_survives_the_crash(self):
        # durable-before-ack: once the client saw the edit succeed, the
        # post-edit program must survive any later crash
        sup = make_sup(faults=FaultPlan(kill_request_at=3))
        try:
            sup.start()
            edited = SRC.replace("a + 1", "a + 2")
            ack = sup.ask({"op": "edit", "source": edited, "id": 1})
            assert ack["ok"] is True
            assert ack["generation"] == 1
            q = sup.ask({**QUERY, "id": 2})
            assert q["ok"] is True
            assert q["generation"] == 1
            assert sup.ask({"op": "ping", "id": 3})["error"] == "retry"
            after = sup.ask({**QUERY, "id": 4})
            assert after["ok"] is True
            assert after["generation"] == 1  # not rolled back to 0
            want = analyze(edited).interval_at_exit("main", "g")
            assert after["interval"]["repr"] == str(want)
        finally:
            sup.stop()


def _durable_source_file(state_dir, source: str, generation: int, version: int):
    """Write ``serve-source.ckpt`` as the build reading ``version`` would."""
    body = json.dumps(
        {"kind": "serve-source", "source": source, "generation": generation},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    header = json.loads(encode_checkpoint({}).split(b"\n", 1)[0])
    header.update(
        version=version, length=len(body), sha256=hashlib.sha256(body).hexdigest()
    )
    path = state_dir / SOURCE_CKPT
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    return path


class TestDurableSource:
    """``serve-source.ckpt`` holds acknowledged edits: a file from another
    format version refuses the start and is kept, a corrupt one falls back
    to the original text."""

    EDITED = SRC.replace("a + 1", "a + 2")

    def test_other_format_version_is_kept_and_refuses_the_start(self, tmp_path):
        path = _durable_source_file(tmp_path, self.EDITED, 3, CHECKPOINT_VERSION - 1)
        data = path.read_bytes()
        sup = Supervisor(SRC, "prog.c", state_dir=str(tmp_path))
        try:
            with pytest.raises(ReproError) as exc:
                sup.start()
        finally:
            sup.stop()
        message = str(exc.value)
        assert "\n" not in message
        assert str(path) in message
        assert f"format version {CHECKPOINT_VERSION - 1}" in message
        assert f"reads version {CHECKPOINT_VERSION}" in message
        assert path.read_bytes() == data

    def test_cli_exits_2_on_another_format_version(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "prog.c"
        source.write_text(SRC)
        state = tmp_path / "state"
        state.mkdir()
        path = _durable_source_file(state, self.EDITED, 3, CHECKPOINT_VERSION + 1)
        argv = ["serve", str(source), "--supervised", "--state-dir", str(state)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and str(path) in err
        assert path.exists()

    def test_corrupt_file_falls_back_to_the_original_text(
        self, tmp_path, expected_g
    ):
        path = _durable_source_file(tmp_path, self.EDITED, 3, CHECKPOINT_VERSION)
        path.write_bytes(path.read_bytes()[:-5])
        sup = Supervisor(SRC, "prog.c", state_dir=str(tmp_path))
        try:
            info = sup.start()
            assert info["recovered_source"] is False
            assert info["generation"] == 0
            answer = sup.ask({**QUERY, "id": 1})
            assert answer["interval"]["repr"] == expected_g
        finally:
            sup.stop()
        assert not path.exists()

    def test_current_version_restores_the_edits(self, tmp_path):
        _durable_source_file(tmp_path, self.EDITED, 3, CHECKPOINT_VERSION)
        sup = Supervisor(SRC, "prog.c", state_dir=str(tmp_path))
        try:
            info = sup.start()
            assert info["recovered_source"] is True
            assert info["generation"] == 3
            answer = sup.ask({**QUERY, "id": 1})
            want = analyze(self.EDITED).interval_at_exit("main", "g")
            assert answer["interval"]["repr"] == str(want)
        finally:
            sup.stop()


class TestEviction:
    # session-level: --max-resident-bytes LRU eviction

    def test_over_budget_residents_are_evicted_lru_first(self):
        session = ServeSession(SRC, max_resident_bytes=1)
        q = session.query_interval("main", "g")
        assert q.solve in ("global", "cone")
        # the answer was produced, then the (over-budget) resident dropped
        assert session.counters["evictions"] >= 1
        assert not session.residents
        # queries keep working, each falling back to a lazy re-solve
        q2 = session.query_interval("main", "g")
        assert str(q2.interval) == str(q.interval)

    def test_lru_order_keeps_the_hot_combo(self):
        session = ServeSession(SRC)
        session.query_interval("main", "g", mode="sparse")
        session.query_interval("main", "g", mode="vanilla")
        session.query_interval("main", "g", mode="sparse")  # sparse is hot
        sparse_bytes = session.residents[("interval", "sparse")].approx_bytes()
        session.max_resident_bytes = sparse_bytes  # room for one combo
        evicted = session.maybe_evict()
        assert evicted == ["interval/vanilla"]
        assert ("interval", "sparse") in session.residents

    def test_stats_reports_budget_and_bytes(self):
        session = ServeSession(SRC, max_resident_bytes=1 << 30)
        session.query_interval("main", "g")
        stats = session.stats()
        assert stats["max_resident_bytes"] == 1 << 30
        assert stats["residents"]["interval/sparse"]["bytes"] > 0


class TestAdmissionControl:
    def test_burst_beyond_max_pending_is_shed(self):
        sup = Supervisor(
            SRC, config=SupervisorConfig(max_pending=2, backoff=FAST_BACKOFF)
        )
        release = threading.Event()

        def slow_handle(line):  # stand-in worker: first request blocks
            release.wait(5.0)
            payload = json.loads(line)
            return json.dumps({"ok": True, "id": payload.get("id")})

        sup.handle_line = slow_handle
        n = 30
        lines = "".join(
            json.dumps({"op": "ping", "id": i}) + "\n" for i in range(n)
        )
        out = io.StringIO()
        done: list[int] = []

        def run():
            done.append(serve_supervised_stdio(sup, io.StringIO(lines), out))

        t = threading.Thread(target=run)
        t.start()
        time.sleep(0.3)  # consumer blocked on request 0, reader sheds
        release.set()
        t.join(10.0)
        assert not t.is_alive()
        replies = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert len(replies) == n  # every request got exactly one answer
        shed = [r for r in replies if r.get("error") == "overloaded"]
        served = [r for r in replies if r.get("ok")]
        assert sup.counters["shed"] == len(shed)
        assert len(shed) >= 1
        assert len(served) + len(shed) == n
        # admitted requests were at most the queue cap + the in-flight one
        # while the consumer was blocked; everything else was shed fast
        assert len(shed) >= n - 10

    def test_shed_response_echoes_the_request_id(self):
        sup = Supervisor(
            SRC, config=SupervisorConfig(max_pending=1, backoff=FAST_BACKOFF)
        )
        got: list[str] = []
        sup.shed('{"op": "ping", "id": "xyz"}', got.append)
        resp = json.loads(got[0])
        assert resp["error"] == "overloaded"
        assert resp["id"] == "xyz"
        assert sup.counters["shed"] == 1
