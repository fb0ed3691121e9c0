"""Protocol units: request decoding, error responses, the serve loop, and
snapshot/restore through the PR 5 checkpoint codec."""

from __future__ import annotations

import json

import pytest

from repro.runtime.errors import CheckpointError
from repro.server.protocol import (
    ProtocolError,
    decode_request,
    encode_response,
    error_response,
    handle_request,
    serve_lines,
)
from repro.server.session import ServeSession

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


def drive(session, requests):
    out = []
    serve_lines(session, requests, out.append)
    return [json.loads(line) for line in out]


# -- decoding ---------------------------------------------------------------


def test_decode_valid_request():
    req = decode_request('{"op": "ping", "id": 7}')
    assert req["op"] == "ping"
    assert req["id"] == 7


def test_decode_rejects_oversized():
    line = json.dumps({"op": "query", "blob": "x" * 100})
    with pytest.raises(ProtocolError) as exc:
        decode_request(line, max_bytes=64)
    assert exc.value.code == "oversized"


def test_decode_rejects_bad_json():
    with pytest.raises(ProtocolError) as exc:
        decode_request("{not json")
    assert exc.value.code == "bad-json"


def test_decode_rejects_non_object():
    with pytest.raises(ProtocolError) as exc:
        decode_request("[1, 2, 3]")
    assert exc.value.code == "bad-request"


def test_decode_rejects_missing_and_unknown_op():
    with pytest.raises(ProtocolError) as exc:
        decode_request('{"id": 1}')
    assert exc.value.code == "bad-request"
    with pytest.raises(ProtocolError) as exc:
        decode_request('{"op": "frobnicate"}')
    assert exc.value.code == "unknown-op"


def test_encode_response_is_one_line():
    line = encode_response(error_response("bad-json", "multi\nline\nmessage"))
    assert "\n" not in line
    assert json.loads(line)["ok"] is False


# -- serve loop -------------------------------------------------------------


def test_serve_loop_answers_and_echoes_ids():
    session = ServeSession(SRC, strict=False, widen=False)
    replies = drive(
        session,
        [
            '{"id": 1, "op": "ping"}',
            '{"id": 2, "op": "query", "kind": "interval",'
            ' "proc": "main", "var": "g"}',
            '{"id": 3, "op": "stats"}',
        ],
    )
    assert [r["id"] for r in replies] == [1, 2, 3]
    assert all(r["ok"] for r in replies)
    assert replies[1]["interval"]["lo"] == 42
    assert replies[1]["interval"]["hi"] == 42
    assert replies[2]["queries"]["edits"] == 0


def test_serve_loop_skips_blank_lines():
    session = ServeSession(SRC, strict=False, widen=False)
    replies = drive(session, ["", "   ", '{"op": "ping"}'])
    assert len(replies) == 1


def test_shutdown_stops_the_loop():
    session = ServeSession(SRC, strict=False, widen=False)
    replies = drive(
        session,
        ['{"id": 1, "op": "shutdown"}', '{"id": 2, "op": "ping"}'],
    )
    assert len(replies) == 1
    assert replies[0] == {"id": 1, "ok": True, "op": "shutdown"}
    assert session.shutdown_requested


def test_on_edit_hook_runs_after_successful_edits_only():
    session = ServeSession(SRC, strict=False, widen=False)
    calls = []

    def on_edit():
        calls.append(session.generation)

    def handle(line):
        return json.loads(handle_request(session, line, on_edit=on_edit))

    assert handle('{"id": 1, "op": "ping"}')["ok"]
    bad = handle('{"id": 2, "op": "edit", "function": "f"}')
    assert bad["error"] == "bad-request"
    assert calls == []
    edit = '{"id": 3, "op": "edit", "function": "f", "body": "    return a;"}'
    assert handle(edit)["generation"] == 1
    assert calls == [1], "the hook sees the applied edit, once"


def test_on_edit_hook_failure_is_an_error_reply():
    session = ServeSession(SRC, strict=False, widen=False)

    def on_edit():
        raise OSError("disk full")

    edit = '{"id": 4, "op": "edit", "function": "f", "body": "    return a;"}'
    reply = json.loads(handle_request(session, edit, on_edit=on_edit))
    assert reply == {
        "id": 4, "ok": False, "error": "internal", "message": "OSError: disk full"
    }


def test_check_query_is_json_serializable():
    # overrun reports embed Interval/Verdict values; the wire rendering
    # must flatten every one of them (regression: `size` leaked raw)
    session = ServeSession(
        "int a[4];\nint main(void) {\n    int i;\n    i = 9;\n"
        "    a[i] = 1;\n    return 0;\n}\n",
        strict=False,
        widen=False,
    )
    (reply,) = drive(
        session,
        ['{"id": 1, "op": "query", "kind": "check", "proc": "main"}'],
    )
    assert reply["ok"] is True
    assert reply["reports"], "the out-of-bounds write must be reported"
    report = reply["reports"][0]
    assert report["verdict"] == "alarm"
    assert isinstance(report["offset"], str)
    assert isinstance(report["size"], str)


def test_unknown_query_kind_is_an_error_response():
    session = ServeSession(SRC, strict=False, widen=False)
    (reply,) = drive(
        session, ['{"id": 1, "op": "query", "kind": "vibes"}']
    )
    assert reply["ok"] is False
    assert reply["id"] == 1


def test_edit_requires_source_or_function_body():
    session = ServeSession(SRC, strict=False, widen=False)
    (reply,) = drive(session, ['{"id": 1, "op": "edit"}'])
    assert reply["ok"] is False
    assert "source" in reply["message"]


#: request fields of the wrong type, each with its test id
MISTYPED = {
    "line-string": {"op": "query", "proc": "main", "var": "g", "line": "3"},
    "line-bool": {"op": "query", "proc": "main", "var": "g", "line": True},
    "line-negative": {"op": "query", "proc": "main", "var": "g", "line": -1},
    "line-float": {"op": "query", "proc": "main", "var": "g", "line": 2.5},
    "proc-int": {"op": "query", "proc": 7, "var": "g"},
    "var-list": {"op": "query", "proc": "main", "var": ["g"]},
    "check-proc-int": {"op": "query", "kind": "check", "proc": 7},
    "source-int": {"op": "edit", "source": 5},
    "function-int": {"op": "edit", "function": 7, "body": "    return 1;"},
    "body-object": {"op": "edit", "function": "f", "body": {"text": "1"}},
}


@pytest.mark.parametrize("fields", MISTYPED.values(), ids=MISTYPED.keys())
def test_mistyped_fields_are_bad_requests(fields):
    session = ServeSession(SRC, strict=False, widen=False)
    (reply, ping) = drive(
        session, [json.dumps({"id": 1, **fields}), '{"id": 2, "op": "ping"}']
    )
    assert reply["ok"] is False and reply["error"] == "bad-request", reply
    assert reply["id"] == 1
    assert ping["ok"] is True and ping["generation"] == 0


def test_line_zero_and_null_fields_are_accepted():
    session = ServeSession(SRC, strict=False, widen=False)
    replies = drive(
        session,
        [
            '{"id": 1, "op": "query", "proc": "main", "var": "g", "line": 0}',
            '{"id": 2, "op": "query", "proc": "main", "var": "g", "line": null}',
        ],
    )
    assert [r["ok"] for r in replies] == [True, True], replies


# -- snapshot / restore -----------------------------------------------------


def test_snapshot_restore_roundtrip_answers_without_solving(tmp_path):
    path = str(tmp_path / "resident.ckpt")
    first = ServeSession(SRC, strict=False, widen=False)
    q = first.query_interval("main", "g")
    assert q.solve in ("cone", "global")
    info = first.snapshot(path)
    assert info["residents"] == 1

    second = ServeSession(SRC, strict=False, widen=False)
    second.restore(path)
    q2 = second.query_interval("main", "g")
    assert q2.solve == "resident"
    assert q2.visited == 0
    assert str(q2.interval) == str(q.interval)


def test_restore_fails_closed_on_other_program(tmp_path):
    path = str(tmp_path / "resident.ckpt")
    first = ServeSession(SRC, strict=False, widen=False)
    first.query_interval("main", "g")
    first.snapshot(path)

    other = ServeSession(SRC.replace("a + 1", "a + 2"), strict=False, widen=False)
    with pytest.raises(CheckpointError):
        other.restore(path)


def test_restore_error_does_not_kill_the_session(tmp_path):
    path = str(tmp_path / "missing.ckpt")
    session = ServeSession(SRC, strict=False, widen=False)
    replies = drive(
        session,
        [
            json.dumps({"id": 1, "op": "restore", "path": path}),
            '{"id": 2, "op": "ping"}',
        ],
    )
    assert replies[0]["ok"] is False
    assert replies[1]["ok"] is True


# -- socket path hygiene (prepare_socket_path / probe_unix_socket) ---------


def test_stale_socket_file_is_removed(tmp_path):
    import os
    import socket as socketlib

    from repro.server.protocol import prepare_socket_path

    path = str(tmp_path / "serve.sock")
    srv = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    srv.bind(path)
    srv.close()  # nobody listening anymore: the file is stale
    assert os.path.exists(path)
    prepare_socket_path(path)  # must not raise
    assert not os.path.exists(path)


def test_missing_path_is_fine(tmp_path):
    from repro.server.protocol import prepare_socket_path

    prepare_socket_path(str(tmp_path / "never-created.sock"))


def test_live_server_is_never_clobbered(tmp_path):
    import json as jsonlib
    import os
    import socket as socketlib
    import threading

    from repro.runtime.errors import ReproError
    from repro.server.protocol import prepare_socket_path, probe_unix_socket

    path = str(tmp_path / "serve.sock")
    srv = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    srv.bind(path)
    srv.listen(1)

    def answer_one_ping():
        conn, _ = srv.accept()
        with conn, conn.makefile("rw", encoding="utf-8") as stream:
            stream.readline()
            stream.write(
                jsonlib.dumps({"ok": True, "op": "ping", "generation": 7})
                + "\n"
            )
            stream.flush()

    thread = threading.Thread(target=answer_one_ping, daemon=True)
    thread.start()
    try:
        with pytest.raises(ReproError, match="live repro serve"):
            prepare_socket_path(path)
        assert os.path.exists(path)  # the live server's socket survived
    finally:
        srv.close()
        thread.join(timeout=5)

    # a mute-but-accepting listener still counts as live (connect wins)
    srv2 = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    os.unlink(path)
    srv2.bind(path)
    srv2.listen(1)
    try:
        assert probe_unix_socket(path, timeout=0.2) == {}
        with pytest.raises(ReproError, match="live repro serve"):
            prepare_socket_path(path)
    finally:
        srv2.close()
