"""The asyncio HTTP/JSON server of the serving layer.

Pure-stdlib HTTP/1.1 on :func:`asyncio.start_server` — the container
ships no web framework, and the protocol surface we need (JSON bodies,
keep-alive, chunked transfer both ways) is small enough to own.  The
endpoints:

====== =================== ===================================================
Method Path                Semantics
====== =================== ===================================================
GET    ``/healthz``        liveness + queue depth
GET    ``/v1/stats``       serving counters (cache hits, coalesced, 429s, ...)
GET    ``/v1/workloads``   registered workload names
POST   ``/v1/traces``      upload a trace (document JSON or chunked JSONL);
                           returns its content-addressed ``trace_id``
POST   ``/v1/simulate``    one grid cell -> result document (+ makespan)
POST   ``/v1/sweep``       a full grid -> chunked-JSONL rows or a report
====== =================== ===================================================

Every simulation funnels through the :class:`~repro.serve.batcher.
Batcher` (cache -> dedupe -> admission -> blocks), so the serving
layer inherits the sweep runner's content addressing: a cell served over
HTTP, by the CLI, or by a direct :class:`~repro.experiments.runner.
SweepRunner` produces the same cache key and byte-identical JSONL rows.
Saturation answers ``429`` with a measured ``Retry-After``; failure
semantics are tabulated in ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.analysis.factories import parse_manager
from repro.common.errors import ConfigurationError, SimulationError, TraceError, reject_non_finite
from repro.experiments.cache import ResultCache
from repro.experiments.spec import RunPoint, SweepSpec, WorkloadSpec
from repro.serve.admission import Saturated
from repro.serve.batcher import Batcher
from repro.system.scheduling import canonical_policy_name
from repro.system.topology import canonical_topology
from repro.trace.serialization import (
    canonical_json_line,
    trace_digest,
    trace_from_json,
    trace_from_stream_text,
)

__all__ = ["HttpError", "Request", "ServeConfig", "Server", "ServerHandle",
           "start_in_thread"]

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: asyncio stream buffer limit — bounds header size and chunk-size lines.
_STREAM_LIMIT = 256 * 1024


class HttpError(Exception):
    """A request error with an HTTP status (rendered as a JSON body)."""

    def __init__(self, status: int, message: str,
                 headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: str
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Dict[str, Any]:
        try:
            document = json.loads(self.body.decode("utf-8"),
                                  parse_constant=reject_non_finite)
        except (UnicodeDecodeError, json.JSONDecodeError, TraceError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise HttpError(400, "request body must be a JSON object")
        return document


#: Decodes the first JSON value of a ``/v1/traces`` body (no NaN/±Infinity).
_TRACE_DECODER = json.JSONDecoder(parse_constant=reject_non_finite)

_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false"}


def _typed(name: str, value: Any, kind: type, default: Any = None) -> Any:
    """Request field ``name`` as ``kind`` (int, float or bool); 400 otherwise.

    ``None`` (absent or JSON ``null``) gives ``default``.  No value is
    coerced across JSON types: a bool is not a number, a float is not an
    int and a string is neither; only an int may stand for a float.
    """
    if value is None:
        return default
    if isinstance(value, bool):
        valid = kind is bool
    elif isinstance(value, int):
        valid = kind is not bool
    else:
        valid = kind is float and isinstance(value, float) and math.isfinite(value)
    if not valid:
        raise HttpError(400, f"{name!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return kind(value)


@dataclass
class ServeConfig:
    """Knobs of one serving deployment (see ``docs/serving.md``)."""

    host: str = "127.0.0.1"
    port: int = 0
    cache_dir: Optional[str] = None
    #: Seconds a partial block waits to fill before running anyway.
    batch_window: float = 0.002
    #: Bounded-queue depth: admitted-but-unfinished cells past which the
    #: server answers 429 + Retry-After.
    max_pending: int = 256
    #: Simulation threads (overlap simulation with request I/O).
    executor_threads: int = 2
    #: Reject request bodies (after de-chunking) larger than this.
    max_body_bytes: int = 64 * 1024 * 1024
    #: Uploaded traces kept in memory (LRU beyond this).
    max_traces: int = 64
    #: Deterministic fault injection, compact form ``"profile:seed"``
    #: (e.g. ``"soak:2015"``); ``None`` also consults ``REPRO_CHAOS``.
    chaos: Optional[str] = None


# -- request plumbing --------------------------------------------------------
async def _read_request(reader: asyncio.StreamReader, max_body: int) -> Optional[Request]:
    """Parse one request off the connection; ``None`` on clean EOF."""
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(431, "request head too large") from exc
    head = raw.decode("latin-1").split("\r\n")
    parts = head[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {head[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)
    headers: Dict[str, str] = {}
    for line in head[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if headers.get("transfer-encoding", "").lower() == "chunked":
        chunks: List[bytes] = []
        total = 0
        while True:
            size_line = await reader.readuntil(b"\r\n")
            try:
                size = int(size_line.split(b";", 1)[0].strip(), 16)
            except ValueError as exc:
                raise HttpError(400, "malformed chunk size") from exc
            if size == 0:
                await reader.readuntil(b"\r\n")  # trailer terminator
                break
            total += size
            if total > max_body:
                raise HttpError(413, f"request body exceeds {max_body} bytes")
            chunk = await reader.readexactly(size)
            await reader.readexactly(2)  # trailing CRLF
            chunks.append(chunk)
        body = b"".join(chunks)
    elif "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError(400, "malformed Content-Length") from exc
        if length > max_body:
            raise HttpError(413, f"request body exceeds {max_body} bytes")
        body = await reader.readexactly(length)
    return Request(method=method.upper(), path=split.path, query=split.query,
                   headers=headers, body=body)


def _render_head(status: int, headers: List[Tuple[str, str]]) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _send_json(
    writer: asyncio.StreamWriter,
    status: int,
    document: Any,
    *,
    keep_alive: bool,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> None:
    body = (canonical_json_line(document) + "\n").encode("utf-8")
    headers = [
        ("Content-Type", "application/json"),
        ("Content-Length", str(len(body))),
        ("Connection", "keep-alive" if keep_alive else "close"),
        *extra_headers,
    ]
    writer.write(_render_head(status, headers) + body)
    await writer.drain()


class _ChunkedWriter:
    """Chunked-transfer response body (the JSONL streaming path)."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer

    async def start(self, *, keep_alive: bool,
                    content_type: str = "application/jsonl") -> None:
        self._writer.write(_render_head(200, [
            ("Content-Type", content_type),
            ("Transfer-Encoding", "chunked"),
            ("Connection", "keep-alive" if keep_alive else "close"),
        ]))
        await self._writer.drain()

    async def send(self, payload: bytes) -> None:
        if not payload:
            return
        self._writer.write(b"%x\r\n" % len(payload) + payload + b"\r\n")
        await self._writer.drain()

    async def finish(self) -> None:
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()


# -- the server --------------------------------------------------------------
class Server:
    """One serving deployment: HTTP front end + batcher + trace store."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.cache = (ResultCache(self.config.cache_dir)
                      if self.config.cache_dir else None)
        self.batcher: Optional[Batcher] = None
        self.address: Optional[Tuple[str, int]] = None
        #: Uploaded traces, content-addressed by ``trace_digest`` (LRU).
        self.traces: "OrderedDict[str, WorkloadSpec]" = OrderedDict()
        self.streams_aborted = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        config = self.config
        from repro.chaos.plan import parse_chaos, plan_from_env

        plan = parse_chaos(config.chaos) if config.chaos else plan_from_env()
        self.batcher = Batcher(
            cache=self.cache,
            batch_window=config.batch_window,
            max_pending=config.max_pending,
            executor_threads=config.executor_threads,
            chaos=plan,
        )
        await self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, config.host, config.port, limit=_STREAM_LIMIT)
        self.address = self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Tear down idle keep-alive connections (and any still streaming)
        # so the event loop drains before it is closed.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self.batcher is not None:
            await self.batcher.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- connection loop ---------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await _read_request(reader, self.config.max_body_bytes)
                except HttpError as err:
                    await _send_json(writer, err.status, {"error": str(err)},
                                     keep_alive=False, extra_headers=err.headers)
                    break
                if request is None:
                    break
                keep_alive = request.headers.get("connection", "").lower() != "close"
                started_stream = await self._dispatch(request, writer, keep_alive)
                if started_stream is None or not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            self.streams_aborted += 1
        except asyncio.CancelledError:
            pass  # server shutdown
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> Optional[bool]:
        """Route one request.  Returns ``None`` when the connection must
        close (a streamed response that cannot delimit an error)."""
        try:
            return await self._route(request, writer, keep_alive)
        except Saturated as err:
            retry = max(1, int(round(err.retry_after)))
            await _send_json(
                writer, 429,
                {"error": str(err), "retry_after_s": retry,
                 "pending": err.pending, "max_pending": err.max_pending},
                keep_alive=keep_alive, extra_headers=(("Retry-After", str(retry)),))
        except HttpError as err:
            await _send_json(writer, err.status, {"error": str(err)},
                             keep_alive=keep_alive, extra_headers=err.headers)
        except (ConfigurationError, TraceError) as err:
            await _send_json(writer, 400, {"error": str(err)}, keep_alive=keep_alive)
        except (ConnectionResetError, BrokenPipeError):
            raise  # client went away: surface to the connection loop
        except Exception as err:  # simulation/internal failure: clean 5xx
            await _send_json(
                writer, 500,
                {"error": f"{type(err).__name__}: {err}"}, keep_alive=keep_alive)
        return True

    async def _route(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> Optional[bool]:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            await _send_json(writer, 200, self._health(), keep_alive=keep_alive)
        elif path == "/v1/stats" and method == "GET":
            await _send_json(writer, 200, self._stats(), keep_alive=keep_alive)
        elif path == "/v1/workloads" and method == "GET":
            from repro.workloads.registry import list_workloads

            await _send_json(writer, 200, {"workloads": list_workloads()},
                             keep_alive=keep_alive)
        elif path == "/v1/traces" and method == "POST":
            await _send_json(writer, 200, self._upload_trace(request),
                             keep_alive=keep_alive)
        elif path == "/v1/simulate" and method == "POST":
            await self._simulate(request, writer, keep_alive)
        elif path == "/v1/sweep" and method == "POST":
            return await self._sweep(request, writer, keep_alive)
        elif path in ("/healthz", "/v1/stats", "/v1/workloads", "/v1/traces",
                      "/v1/simulate", "/v1/sweep"):
            raise HttpError(405, f"{method} not allowed on {path}",
                            headers=(("Allow", "GET, POST"),))
        else:
            raise HttpError(404, f"no such endpoint {path!r}")
        return True

    # -- endpoint bodies ---------------------------------------------------
    def _health(self) -> Dict[str, Any]:
        assert self.batcher is not None
        admission = self.batcher.admission
        return {
            "status": "ok",
            "pending": admission.pending,
            "max_pending": admission.max_pending,
        }

    def _stats(self) -> Dict[str, Any]:
        assert self.batcher is not None
        admission = self.batcher.admission
        doc = self.batcher.stats.to_json()
        doc.update({
            "pending": admission.pending,
            "max_pending": admission.max_pending,
            "rejected_requests": admission.rejected,
            "service_rate_cells_per_s": admission.service_rate,
            "traces_registered": len(self.traces),
            "streams_aborted": self.streams_aborted,
        })
        return doc

    def _upload_trace(self, request: Request) -> Dict[str, Any]:
        try:
            text = request.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise HttpError(400, f"trace body is not UTF-8: {exc}") from exc
        body = text.lstrip()
        if not body:
            raise HttpError(400, "empty trace body")
        # The first JSON value decides the format, wherever it ends: a
        # ``trace-stream`` header starts a chunked-JSONL stream, anything
        # else must be the whole body, a (possibly pretty-printed) document.
        try:
            head, end = _TRACE_DECODER.raw_decode(body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"trace body is not JSON: {exc}") from exc
        if isinstance(head, dict) and head.get("kind") == "trace-stream":
            trace = trace_from_stream_text(body, source="<upload>")
        else:
            if body[end:].strip():
                raise HttpError(400, "trace document has data after its first JSON "
                                     "value (a stream starts with a "
                                     "'trace-stream' header line)")
            if not isinstance(head, dict):
                raise HttpError(400, "trace document must be a JSON object")
            trace = trace_from_json(head)
        trace_id = trace_digest(trace)
        if trace_id not in self.traces:
            self.traces[trace_id] = WorkloadSpec.of(trace)
            while len(self.traces) > self.config.max_traces:
                self.traces.popitem(last=False)
        else:
            self.traces.move_to_end(trace_id)
        return {
            "trace_id": trace_id,
            "name": trace.name,
            "num_tasks": trace.num_tasks,
            "num_events": len(trace),
        }

    def _resolve_workload(self, entry: Any, *, scale: float,
                          max_tasks: Optional[int]) -> WorkloadSpec:
        """Turn a request workload reference into a :class:`WorkloadSpec`.

        Accepts a registry name, ``{"trace_id": ...}`` for an uploaded
        trace, or ``{"inline": <trace document>}``.
        """
        if isinstance(entry, str):
            from repro.workloads.registry import list_workloads

            if entry not in list_workloads():
                raise HttpError(
                    404, f"unknown workload {entry!r} (see GET /v1/workloads)")
            return WorkloadSpec.of(entry, scale=scale, max_tasks=max_tasks)
        if isinstance(entry, dict) and "trace_id" in entry:
            spec = self.traces.get(str(entry["trace_id"]))
            if spec is None:
                raise HttpError(
                    404, f"unknown trace_id {entry['trace_id']!r} "
                         "(upload it via POST /v1/traces)")
            return WorkloadSpec.of(spec, max_tasks=max_tasks)
        if isinstance(entry, dict) and "inline" in entry:
            if not isinstance(entry["inline"], dict):
                raise HttpError(400, "inline workload must be a trace document")
            return WorkloadSpec.of(trace_from_json(entry["inline"]),
                                   max_tasks=max_tasks)
        raise HttpError(
            400, "workload must be a registry name, {\"trace_id\": ...} or "
                 "{\"inline\": <trace document>}")

    def _point_from_request(self, doc: Dict[str, Any]) -> RunPoint:
        """Build the grid cell a ``/v1/simulate`` body describes.

        Constructed through the exact same :class:`WorkloadSpec` calls as
        :class:`SweepSpec`, so the cell's ``cache_key`` is identical to
        what a sweep over the same configuration would compute — that
        identity is what makes serving dedupe work across entry points.
        """
        for field in ("manager", "cores"):
            if field not in doc:
                raise HttpError(400, f"simulate request needs {field!r}")
        if "workload" not in doc:
            raise HttpError(400, "simulate request needs 'workload'")
        scale = _typed("scale", doc.get("scale"), float, 1.0)
        max_tasks = _typed("max_tasks", doc.get("max_tasks"), int)
        seed = _typed("seed", doc.get("seed"), int)
        depth = _typed("depth", doc.get("depth"), int)
        cores = _typed("cores", doc["cores"], int)
        if cores is None or cores < 1:
            raise HttpError(400, f"cores must be >= 1, got {cores}")
        workload = self._resolve_workload(
            doc["workload"], scale=scale, max_tasks=max_tasks)
        workload = workload.with_seed(seed).with_depth(depth)
        dynamic = _typed("dynamic", doc.get("dynamic"), bool, False)
        if dynamic and not workload.is_dynamic:
            raise HttpError(400, f"workload {workload.name!r} is not dynamic")
        manager_name, factory = parse_manager(str(doc["manager"]))
        return RunPoint(
            workload=workload,
            manager_name=manager_name,
            factory=factory,
            cores=cores,
            validate=_typed("validate", doc.get("validate"), bool, False),
            keep_schedule=_typed("keep_schedule", doc.get("keep_schedule"), bool, False),
            scheduler=canonical_policy_name(str(doc.get("scheduler", "fifo"))),
            topology=canonical_topology(str(doc.get("topology", "homogeneous"))),
            stream=_typed("stream", doc.get("stream"), bool, False),
            dynamic=dynamic,
        )

    def _spec_from_request(self, doc: Dict[str, Any]) -> SweepSpec:
        """Build the :class:`SweepSpec` a ``/v1/sweep`` body describes."""
        for field in ("workloads", "managers"):
            if not doc.get(field):
                raise HttpError(400, f"sweep request needs a non-empty {field!r}")
        core_counts = doc.get("core_counts") or doc.get("cores")
        if not core_counts:
            raise HttpError(400, "sweep request needs a non-empty 'core_counts'")
        axes = {"core_counts": core_counts, "seeds": doc.get("seeds") or [None],
                "depths": doc.get("depths") or [None]}
        for name, values in axes.items():
            if not isinstance(values, list):
                raise HttpError(400, f"{name!r} must be a list, got {values!r}")
            axes[name] = [_typed(name, value, int) for value in values]
        if None in axes["core_counts"]:
            raise HttpError(400, f"'core_counts' must hold integers, got {core_counts!r}")
        scale = _typed("scale", doc.get("scale"), float, 1.0)
        max_tasks = _typed("max_tasks", doc.get("max_tasks"), int)
        workloads = [
            self._resolve_workload(entry, scale=scale, max_tasks=None)
            for entry in doc["workloads"]
        ]
        return SweepSpec(
            workloads=workloads,
            managers=[str(m) for m in doc["managers"]],
            core_counts=axes["core_counts"],
            seeds=axes["seeds"],
            scale=scale,
            max_cores=doc.get("max_cores"),
            validate=_typed("validate", doc.get("validate"), bool, False),
            keep_schedule=_typed("keep_schedule", doc.get("keep_schedule"), bool, False),
            schedulers=tuple(doc.get("schedulers") or ("fifo",)),
            topologies=tuple(doc.get("topologies") or ("homogeneous",)),
            stream=_typed("stream", doc.get("stream"), bool, False),
            max_tasks=max_tasks,
            dynamic=_typed("dynamic", doc.get("dynamic"), bool, False),
            depths=axes["depths"],
            name=str(doc.get("name", "sweep")),
        )

    async def _simulate(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        assert self.batcher is not None
        point = self._point_from_request(request.json())
        key = point.cache_key() if point.cacheable else None
        [future] = self.batcher.submit_many([point])
        cached = future.done()
        document = await asyncio.shield(future)
        await _send_json(writer, 200, {
            "cache_key": key,
            "cached": cached,
            "makespan_us": document.get("makespan_us"),
            "result": document,
        }, keep_alive=keep_alive)

    async def _sweep(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> Optional[bool]:
        assert self.batcher is not None
        doc = request.json()
        fmt = str(doc.get("format", "jsonl"))
        if fmt not in ("jsonl", "report"):
            raise HttpError(400, f"format must be 'jsonl' or 'report', got {fmt!r}")
        spec = self._spec_from_request(doc)
        points = list(spec.points())
        futures = self.batcher.submit_many(points)

        if fmt == "report":
            documents = await asyncio.gather(
                *(asyncio.shield(future) for future in futures))
            rows = [
                {"point": point.describe(), "result": document}
                for point, document in zip(points, documents)
            ]
            from repro.experiments.runner import rows_to_studies

            tables = [study.render()
                      for study in rows_to_studies(rows).values()]
            await _send_json(writer, 200, {
                "spec_hash": spec.spec_hash(),
                "num_points": len(points),
                "tables": tables,
            }, keep_alive=keep_alive)
            return True

        # JSONL: stream rows in grid order as they resolve, byte-identical
        # to `SweepRunner.run(...).jsonl_lines()`.  Once the first chunk is
        # out, an error can only truncate the stream (no terminal chunk),
        # which clients detect — so the connection closes afterwards
        # instead of risking a desynchronised keep-alive.
        chunked = _ChunkedWriter(writer)
        await chunked.start(keep_alive=False)
        try:
            for point, future in zip(points, futures):
                document = await asyncio.shield(future)
                row = {"point": point.describe(), "result": document}
                await chunked.send((canonical_json_line(row) + "\n").encode("utf-8"))
            await chunked.finish()
        except (ConnectionResetError, BrokenPipeError):
            # The client went away mid-stream; simulations already in
            # flight finish (coalesced requests may share them) and the
            # connection is simply torn down.
            self.streams_aborted += 1
        except Exception:
            # A simulation failed mid-body: we cannot switch to an error
            # response, so truncate (no terminal chunk) — the client
            # reports an incomplete read instead of hanging.
            self.streams_aborted += 1
        return None


# -- thread-hosted server (tests, benchmarks, notebooks) ---------------------
class ServerHandle:
    """A server running its own event loop on a daemon thread."""

    def __init__(self) -> None:
        self.server: Optional[Server] = None
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        assert self.address is not None
        return self.address[0]

    @property
    def port(self) -> int:
        assert self.address is not None
        return self.address[1]

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join its thread (idempotent)."""
        if self._loop is not None and self._stop is not None \
                and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)


def start_in_thread(config: Optional[ServeConfig] = None,
                    *, startup_timeout: float = 30.0) -> ServerHandle:
    """Start a :class:`Server` on a dedicated event-loop thread.

    The in-process deployment used by the tests and the serving
    benchmark; ``python -m repro.serve`` runs the same server on the
    main thread instead.
    """
    handle = ServerHandle()
    started = threading.Event()

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        handle._loop = loop

        async def main() -> None:
            server = Server(config)
            handle._stop = asyncio.Event()
            try:
                await server.start()
            except BaseException as exc:  # port in use, bad config, ...
                handle._error = exc
                started.set()
                return
            handle.server = server
            handle.address = server.address
            started.set()
            try:
                await handle._stop.wait()
            finally:
                await server.stop()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    handle._thread = thread
    thread.start()
    if not started.wait(timeout=startup_timeout):
        raise SimulationError("serve thread failed to start in time")
    if handle._error is not None:
        thread.join(timeout=5)
        raise SimulationError(
            f"serve startup failed: {handle._error}") from handle._error
    return handle
