"""Long-running demand-driven query server (``repro serve``).

:mod:`repro.server.protocol` — line-oriented JSON request/response codec.
:mod:`repro.server.session` — resident analysis state, cone-restricted
queries, incremental edits.
:mod:`repro.server.supervisor` — crash-recovering supervised runtime
(worker child, watchdog deadlines, snapshot restore, admission control).
:mod:`repro.server.chaos` — seeded fault-scenario harness for the
recovery invariant (also the CI ``serve-chaos`` entry point).
"""

from repro.server.protocol import (
    MAX_REQUEST_BYTES,
    ProtocolError,
    decode_request,
    dispatch_request,
    encode_response,
    error_response,
    handle_request,
    prepare_socket_path,
    probe_unix_socket,
    serve_lines,
)
from repro.server.session import ResidentAnalysis, ServeSession
from repro.server.supervisor import (
    Supervisor,
    SupervisorConfig,
    serve_supervised_stdio,
    serve_supervised_socket,
)

__all__ = [
    "MAX_REQUEST_BYTES",
    "ProtocolError",
    "ResidentAnalysis",
    "ServeSession",
    "Supervisor",
    "SupervisorConfig",
    "decode_request",
    "dispatch_request",
    "encode_response",
    "error_response",
    "handle_request",
    "prepare_socket_path",
    "probe_unix_socket",
    "serve_lines",
    "serve_supervised_socket",
    "serve_supervised_stdio",
]
