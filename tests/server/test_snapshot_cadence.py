"""Auto-snapshot cadence: the session worker rewrites
``serve-resident.ckpt`` only when the session's snapshot payload changed
since its last successful write, and the file always holds exactly what
an in-process session that processed the same requests would snapshot.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.runtime.checkpoint import load_checkpoint
from repro.server.chaos import generated_workload
from repro.server.protocol import dispatch_request
from repro.server.session import ServeSession
from repro.server.supervisor import (
    RESIDENT_CKPT,
    BackoffPolicy,
    Supervisor,
    SupervisorConfig,
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
STATS = {"op": "stats"}

FAST_BACKOFF = BackoffPolicy(base=0.01, factor=2.0, jitter=0.0, max_delay=0.1)

#: combos of the interleavings; the octagon/base tables alone exceed the
#: resident budget below, so LRU eviction fires regularly
COMBOS = [
    ("interval", "sparse"),
    ("interval", "base"),
    ("octagon", "sparse"),
    ("octagon", "base"),
]
MAX_RESIDENT_BYTES = 300_000
EXACT = {"strict": False, "widen": False}


def settle(sup: Supervisor) -> None:
    """Wait until the worker finished the cadence step of the last acked
    request: it writes its snapshot after replying, and it reads the next
    request only afterwards. A ping changes no state."""
    assert sup.ask({"op": "ping", "id": "barrier"})["ok"]


def snapshot_payload(path) -> dict:
    payload = load_checkpoint(path)
    return {key: payload[key] for key in ("fingerprint", "generation", "residents")}


def interleaving(seed: int, n_ops: int = 30) -> tuple[str, list[dict]]:
    """Seeded interval and octagon queries over :data:`COMBOS`, with the
    generated workload's whole-source edits and a few stats reads mixed
    in."""
    source, queries, edits = generated_workload()
    rng = random.Random(seed)
    ops: list[dict] = []
    for i in range(n_ops):
        roll = rng.random()
        if roll < 0.1 and edits:
            ops.append({"op": "edit", **edits.pop(0)})
        elif roll < 0.15:
            ops.append({"op": "stats"})
        else:
            proc, var = queries[rng.randrange(len(queries))]
            domain, mode = COMBOS[rng.randrange(len(COMBOS))]
            ops.append(
                {"op": "query", "kind": "interval", "proc": proc,
                 "var": var, "domain": domain, "mode": mode}
            )
    return source, [{**op, "id": i} for i, op in enumerate(ops)]


@pytest.mark.parametrize("seed", [0, 1])
def test_snapshot_matches_in_process_session(tmp_path, seed):
    source, schedule = interleaving(seed)
    state_dir = tmp_path / "state"
    sup = Supervisor(
        source,
        "<generated>",
        state_dir=str(state_dir),
        config=SupervisorConfig(snapshot_every=1, backoff=FAST_BACKOFF),
        max_resident_bytes=MAX_RESIDENT_BYTES,
        **EXACT,
    )
    reference = ServeSession(
        source, "<generated>", max_resident_bytes=MAX_RESIDENT_BYTES, **EXACT
    )
    ref_path = str(tmp_path / "reference.ckpt")
    solves = set()
    try:
        sup.start()
        for request in schedule:
            resp = sup.ask(request)
            assert resp["ok"] is True, resp
            want = dispatch_request(reference, dict(request))
            if request["op"] == "query":
                solves.add(resp["solve"])
                assert resp["interval"] == want["interval"]
            settle(sup)
            reference.snapshot(ref_path)
            assert snapshot_payload(
                state_dir / RESIDENT_CKPT
            ) == snapshot_payload(ref_path), f"after request {request['id']}"
        counters = sup.ask({**STATS, "id": "final"})["queries"]
    finally:
        sup.stop()
    assert {"resident", "cone", "global"} <= solves
    assert counters["evictions"] >= 1
    assert counters["edits"] >= 1
    assert counters["snapshots_skipped"] >= 1


def test_resident_reads_leave_the_snapshot_untouched(tmp_path):
    sup = Supervisor(
        SRC,
        "prog.c",
        state_dir=str(tmp_path),
        config=SupervisorConfig(snapshot_every=1, backoff=FAST_BACKOFF),
    )
    path = tmp_path / RESIDENT_CKPT
    try:
        sup.start()
        assert sup.ask({**QUERY, "id": 0})["solve"] == "global"
        settle(sup)
        written = sup.ask({**STATS, "id": 1})["queries"]["snapshots"]
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        for i in range(100):
            assert sup.ask({**QUERY, "id": 2 + i})["solve"] == "resident"
        settle(sup)
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before
        counters = sup.ask({**STATS, "id": 102})["queries"]
        assert counters["snapshots"] == written
        assert counters["snapshots_skipped"] >= 100
        # the explicit op is the client's choice of path: it always writes
        for i in range(2):
            out = str(tmp_path / "explicit.ckpt")
            assert sup.ask({"op": "snapshot", "path": out, "id": 200 + i})["ok"]
        counters = sup.ask({**STATS, "id": 202})["queries"]
        assert counters["snapshots"] == written + 2
    finally:
        sup.stop()


def test_failed_write_is_retried_at_the_next_cadence(tmp_path):
    sup = Supervisor(
        SRC,
        "prog.c",
        state_dir=str(tmp_path),
        config=SupervisorConfig(snapshot_every=1, backoff=FAST_BACKOFF),
    )
    path = tmp_path / RESIDENT_CKPT
    try:
        sup.start()
        assert sup.ask({**QUERY, "id": 0})["ok"]
        settle(sup)
        # a directory in the file's place makes the atomic rename fail
        os.unlink(path)
        os.mkdir(path)
        assert sup.ask({**QUERY, "id": 1, "domain": "octagon"})["ok"]
        settle(sup)
        assert path.is_dir()
        os.rmdir(path)
        settle(sup)  # no state change, yet the failed write is retried
        assert sorted(snapshot_payload(path)["residents"]) == [
            "interval/sparse",
            "octagon/sparse",
        ]
    finally:
        sup.stop()


def test_state_version_tracks_every_payload_change(tmp_path):
    source, _, edits = generated_workload()
    session = ServeSession(source, "<generated>", **EXACT)
    seen = [session.state_version]

    def changed() -> bool:
        seen.append(session.state_version)
        return seen[-1] > seen[-2]

    session.resident("interval", "base")
    assert changed()  # resident creation
    session.query_interval("f2", "v0", domain="interval", mode="base")
    assert changed()  # cone or global solve
    session.query_interval("f2", "v0", domain="interval", mode="base")
    assert not changed()  # a pure table read
    session.stats()
    assert not changed()
    path = str(tmp_path / "s.ckpt")
    session.snapshot(path)
    assert not changed()
    session.restore(path)
    assert changed()
    session.max_resident_bytes = 0
    assert session.maybe_evict() == ["interval/base"]
    assert changed()
    session.edit(source=edits[0]["source"])
    assert changed()  # new source and generation, with no residents left
