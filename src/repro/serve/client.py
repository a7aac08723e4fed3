"""Synchronous client library for the serving layer.

Thin stdlib-``http.client`` wrappers used by the test harness, the load
generator and the ``python -m repro.serve`` CLI subcommands.  One
:class:`ServeClient` holds one keep-alive connection (create one client
per thread); a saturated server surfaces as :class:`ServeSaturated`
carrying the ``Retry-After`` the admission controller measured.

    >>> client = ServeClient("127.0.0.1", 8080)          # doctest: +SKIP
    >>> client.simulate(workload="sparselu", manager="nexus#6",
    ...                 cores=4, scale=0.1)["makespan_us"]  # doctest: +SKIP
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.common.errors import reject_non_finite
from repro.resilience.retry import (
    RetryBudgetExhausted,
    RetryPolicy,
    call_with_retry,
)
from repro.trace.serialization import trace_to_json
from repro.trace.trace import Trace

__all__ = ["ServeClient", "ServeError", "ServeSaturated", "CLIENT_RETRY_POLICY"]

#: Default client-side policy: the same shared
#: :class:`~repro.resilience.retry.RetryPolicy` the socket workers use
#: for reconnects — one backoff discipline across every client seam.
CLIENT_RETRY_POLICY = RetryPolicy(
    max_attempts=4, base_delay=0.05, max_delay=1.0, deadline=30.0)


class ServeError(Exception):
    """A failed response from the serving layer: a non-2xx status, or a
    2xx status whose body is not JSON."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeSaturated(ServeError):
    """HTTP 429: the bounded queue is full; honour ``retry_after_s``."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(429, message)
        self.retry_after_s = retry_after_s


class ServeClient:
    """One keep-alive connection to a serving deployment.

    Idempotent JSON requests (everything here is — the engine is
    deterministic) are retried under ``retry``: transport errors and
    5xx back off on the policy's deterministic-jitter schedule, while a
    429 honours the server's measured ``Retry-After`` instead.  Pass
    ``retry=None`` for strict single-shot behaviour.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 300.0,
                 retry: Optional[RetryPolicy] = CLIENT_RETRY_POLICY) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.retries = 0  # attempts beyond the first, across all calls
        self._sleep: Callable[[float], None] = time.sleep
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing ----------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None,
                 content_type: str = "application/json") -> http.client.HTTPResponse:
        conn = self._connection()
        headers = {"Content-Type": content_type} if body is not None else {}
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
        except (http.client.HTTPException, ConnectionError, OSError):
            # A dropped keep-alive connection: reconnect once.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
        return response

    def _json_once(self, method: str, path: str,
                   body: Optional[bytes]) -> Dict[str, Any]:
        response = self._request(method, path, body)
        payload = response.read()
        return self._decode(response, payload)

    def _json(self, method: str, path: str,
              document: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        body = None if document is None else json.dumps(document).encode("utf-8")
        if self.retry is None:
            return self._json_once(method, path, body)
        return self._with_retry(lambda: self._json_once(method, path, body),
                                describe=f"{method} {path}")

    def _with_retry(self, fn: Callable[[], Any], describe: str) -> Any:
        def _count(attempt: int, exc: BaseException, pause: float) -> None:
            self.retries += 1
            self.close()  # a fresh connection for the next attempt

        try:
            return call_with_retry(
                fn,
                self.retry,
                retry_on=(OSError, http.client.HTTPException, ServeError),
                should_retry=lambda exc: not isinstance(exc, ServeError)
                or isinstance(exc, ServeSaturated) or exc.status >= 500,
                retry_after=lambda exc: exc.retry_after_s
                if isinstance(exc, ServeSaturated) else None,
                key=describe,
                describe=describe,
                sleep=self._sleep,
                on_retry=_count,
            )
        except RetryBudgetExhausted as exhausted:
            # Preserve the client's exception contract: callers catch
            # ServeError/OSError, not the retry layer's budget error.
            raise exhausted.last_error from exhausted

    @staticmethod
    def _decode(response: http.client.HTTPResponse, payload: bytes) -> Dict[str, Any]:
        try:
            document = (json.loads(payload.decode("utf-8"), parse_constant=reject_non_finite)
                        if payload else {})
        except (json.JSONDecodeError, UnicodeDecodeError):
            text = payload[:200].decode("latin-1")
            if response.status < 400:
                raise ServeError(response.status, f"response body is not JSON: {text!r}")
            document = {"error": text}
        if response.status == 429:
            retry = document.get("retry_after_s",
                                 response.headers.get("Retry-After", 1))
            raise ServeSaturated(str(document.get("error", "saturated")),
                                 float(retry))
        if response.status >= 400:
            raise ServeError(response.status,
                             str(document.get("error", "request failed")))
        return document

    # -- endpoints ---------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/stats")

    def workloads(self) -> List[str]:
        return list(self._json("GET", "/v1/workloads")["workloads"])

    def simulate(self, **fields: Any) -> Dict[str, Any]:
        """Submit one grid cell; returns the response document
        (``cache_key``, ``cached``, ``makespan_us``, ``result``)."""
        return self._json("POST", "/v1/simulate", fields)

    def upload_trace(self, trace: Trace) -> str:
        """Upload a materialised trace (document format); returns its id."""
        body = json.dumps(trace_to_json(trace)).encode("utf-8")
        response = self._request("POST", "/v1/traces", body)
        return str(self._decode(response, response.read())["trace_id"])

    def upload_trace_text(self, text: str) -> str:
        """Upload a chunked-JSONL trace stream carried as text."""
        response = self._request("POST", "/v1/traces", text.encode("utf-8"),
                                 content_type="application/jsonl")
        return str(self._decode(response, response.read())["trace_id"])

    def sweep_report(self, **fields: Any) -> Dict[str, Any]:
        """Run a sweep and return its report document."""
        fields["format"] = "report"
        return self._json("POST", "/v1/sweep", fields)

    def sweep_rows(self, **fields: Any) -> Iterator[Dict[str, Any]]:
        """Run a sweep, yielding result rows as the server streams them.

        ``http.client`` decodes the chunked transfer transparently; a
        server-side truncation (missing terminal chunk) surfaces as
        :class:`http.client.IncompleteRead`.
        """
        fields["format"] = "jsonl"
        body = json.dumps(fields).encode("utf-8")
        response = self._request("POST", "/v1/sweep", body)
        if response.status != 200:
            self._decode(response, response.read())  # raises
        buffer = b""
        while True:
            block = response.read(65536)
            if not block:
                break
            buffer += block
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if line.strip():
                    yield json.loads(line, parse_constant=reject_non_finite)
        if buffer.strip():
            yield json.loads(buffer, parse_constant=reject_non_finite)
        # The server closes streamed connections (Connection: close).
        self.close()

    def sweep_raw(self, **fields: Any) -> bytes:
        """Run a sweep and return the raw streamed JSONL body.

        This is the byte-identity surface: the returned bytes must equal
        the file a :class:`~repro.experiments.runner.SweepRunner` writes
        for the same grid (trailing newlines included).  The whole
        request (including a stream cut short mid-body) retries under
        the client policy — sweeps are deterministic, so a re-run can
        only produce the same bytes.
        """
        fields["format"] = "jsonl"
        body = json.dumps(fields).encode("utf-8")

        def _once() -> bytes:
            response = self._request("POST", "/v1/sweep", body)
            if response.status != 200:
                self._decode(response, response.read())  # raises
            payload = response.read()
            self.close()  # the server closes streamed connections
            return payload

        if self.retry is None:
            return _once()
        return self._with_retry(_once, describe="POST /v1/sweep")
