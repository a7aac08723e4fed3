"""The serving client refuses NaN/±Infinity in what the server sends.

JSON has no non-finite numbers and the server never writes them, so a
response holding one is not a result: each of the client's reads
(``_decode`` for JSON responses, and both line reads of a streamed
``sweep_rows`` body) raises :class:`~repro.common.errors.TraceError`
instead of handing a ``nan`` to the caller.  Likewise a 2xx body that is
not JSON at all raises :class:`~repro.serve.client.ServeError` carrying
the status, rather than coming back as a success document.  A stub HTTP
server plays the misbehaving peer.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.common.errors import TraceError
from repro.serve.client import ServeClient, ServeError


def serve_body(body: bytes):
    """A stub server answering every request with 200 and ``body``."""

    class Handler(BaseHTTPRequestHandler):
        def _answer(self) -> None:
            self.rfile.read(int(self.headers.get("Content-Length") or 0))
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        do_GET = do_POST = _answer

        def log_message(self, *args) -> None:
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


@pytest.fixture
def stub():
    servers = []

    def start(body: bytes) -> ServeClient:
        servers.append(serve_body(body))
        return ServeClient("127.0.0.1", servers[-1].server_address[1], timeout=10, retry=None)

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity"])
def test_json_response_rejects_non_finite(stub, token):
    with stub(b'{"makespan_us": ' + token + b"}") as client:
        with pytest.raises(TraceError, match="JSON domain"):
            client.stats()


@pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity"])
def test_streamed_rows_reject_non_finite(stub, token):
    row = b'{"makespan_us": ' + token + b"}"
    with stub(b'{"makespan_us": 1.0}\n' + row + b"\n") as client:
        rows = client.sweep_rows(workloads=["microbench"])
        assert next(rows) == {"makespan_us": 1.0}
        with pytest.raises(TraceError, match="JSON domain"):
            next(rows)
    with stub(b'{"makespan_us": 1.0}\n' + row) as client:  # last line, no newline
        with pytest.raises(TraceError, match="JSON domain"):
            list(client.sweep_rows(workloads=["microbench"]))


@pytest.mark.parametrize("body", [b"not json at all", b"\xff\xfe"])
def test_non_json_success_body_raises(stub, body):
    with stub(body) as client:
        with pytest.raises(ServeError, match="not JSON") as raised:
            client.stats()
        assert raised.value.status == 200
