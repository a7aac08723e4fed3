"""Trace and result (de)serialization.

Traces are stored in one of two self-contained, versioned formats, so
traces generated by one version of the workload generators can be
replayed later, exactly like the paper's collected Starbench traces were
replayed through the ModelSim testbench:

* the *document* format (:func:`save_trace` / :func:`load_trace`): one
  JSON document holding the header and the full event list — compact and
  convenient for traces that fit in memory (the committed golden traces
  use it);
* the *chunked stream* format (:class:`TraceWriter` /
  :func:`open_trace_stream`): JSON-lines — a header line, then chunks of
  events, then an integrity footer.  Readers iterate tasks lazily with
  bounded memory (one chunk decoded at a time) and writers emit as the
  workload generator produces events, so traces far larger than RAM can
  be recorded and replayed.  :func:`load_trace` transparently reads both.

Simulation outcomes (:class:`~repro.system.results.MachineResult`) share
the same machinery: :func:`result_to_json` / :func:`result_from_json`
round-trip one result, and :func:`canonical_json_line` renders any JSON
document to a canonical single-line form (sorted keys, compact
separators) — the byte-reproducible representation the experiment
runner's JSONL streams and content-addressed cache are built on.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import math
import re
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple, Union

from repro.common.errors import TraceError, reject_non_finite
from repro.trace.columns import FULL_TASKWAIT
from repro.trace.events import SpawnEvent, TaskSubmitEvent, TaskwaitEvent, TaskwaitOnEvent, TraceEvent
from repro.trace.task import Direction, check_task, make_task
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (results layer)
    from repro.system.results import MachineResult

#: Schema version written into every serialized trace.
FORMAT_VERSION = 1

#: Schema version of the chunked JSONL trace-stream format.
STREAM_FORMAT_VERSION = 1

#: Marker distinguishing a chunked stream header from a document trace.
_STREAM_KIND = "trace-stream"

#: Default number of events per chunk line (amortises JSON decode cost
#: while keeping peak reader memory at one chunk).
DEFAULT_CHUNK_EVENTS = 1024

#: Schema version written into every serialized machine result.
#: v2: scheduler / topology identity, per-core busy times, task->core map.
RESULT_FORMAT_VERSION = 2


#: Direction flags -> serialized direction (index 0 is no direction).
_DIRECTION_VALUE = (None, "in", "out", "inout")


def _task_json(task_id: int, function: str, addresses: Tuple[int, ...], flags: Tuple[int, ...],
               sizes: Optional[Tuple[int, ...]], duration_us: float, creation_overhead_us: float,
               spawn: bool, parent_id: Optional[int]) -> Dict[str, Any]:
    """The JSON form of one task submission: THE task format of both the
    document and the chunked stream.  A recorded spawn (``spawn``) keeps
    its provenance, so the reader rebuilds a
    :class:`~repro.trace.events.SpawnEvent` and round-trips are exact."""
    doc = {
        "k": "s" if spawn else "t",
        "id": task_id,
        "f": function,
        "p": [{"a": address, "d": _DIRECTION_VALUE[flag], "s": size}
              for address, flag, size in zip(addresses, flags, sizes or repeat(0))],
        "us": duration_us,
        "co": creation_overhead_us,
    }
    if parent_id is not None:
        doc["pid"] = parent_id
    return doc


def _barrier_json(address: int) -> Dict[str, Any]:
    """A ``taskwait`` (:data:`FULL_TASKWAIT`) or ``taskwait on`` barrier."""
    return {"k": "w"} if address == FULL_TASKWAIT else {"k": "wo", "a": address}


def _event_to_json(event: TraceEvent) -> Dict[str, Any]:
    if isinstance(event, TaskSubmitEvent):
        task = event.task
        spawn = isinstance(event, SpawnEvent)
        return _task_json(task.task_id, task.function, task.addresses, task.flags, task.sizes,
                          task.duration_us, task.creation_overhead_us, spawn,
                          event.parent_id if spawn else None)
    if isinstance(event, TaskwaitEvent):
        return _barrier_json(FULL_TASKWAIT)
    if isinstance(event, TaskwaitOnEvent):
        return _barrier_json(event.address)
    raise TraceError(f"unknown trace event type {type(event).__name__}")


def _event_from_json(data: Dict[str, Any]) -> TraceEvent:
    kind = data.get("k")
    if kind in ("t", "s"):
        params = data["p"]
        task_id = int(data["id"])
        function = str(data["f"])
        duration_us = float(data["us"])
        creation_overhead_us = float(data.get("co", 0.0))
        addresses = tuple(int(param["a"]) for param in params)
        sizes = tuple(int(param.get("s", 0)) for param in params)
        sizes = sizes if any(sizes) else None
        check_task(task_id, function, duration_us, creation_overhead_us, addresses, sizes)
        task = make_task(task_id, function, addresses,
                         tuple(Direction.parse(param["d"]).flags for param in params),
                         sizes, duration_us, creation_overhead_us)
        if kind == "s":
            pid = data.get("pid")
            return SpawnEvent(task, parent_id=None if pid is None else int(pid))
        return TaskSubmitEvent(task)
    if kind == "w":
        return TaskwaitEvent()
    if kind == "wo":
        return TaskwaitOnEvent(address=int(data["a"]))
    raise TraceError(f"unknown serialized event kind {kind!r}")


def trace_to_json(trace: Trace) -> Dict[str, Any]:
    """Convert a trace to a JSON-serializable dictionary (read from its
    columns: no event or descriptor object is built)."""
    columns = trace.columns
    task_ids, functions = columns.task_ids, columns.functions
    durations, creations = columns.durations, columns.creations
    offsets, addresses, flags, sizes = (columns.offsets, columns.addresses, columns.flags,
                                        columns.sizes)
    parents = columns.parents or {}
    events = []
    append = events.append
    for start, end, barrier in columns.segments():
        for slot in range(start, end):
            low, high = offsets[slot], offsets[slot + 1]
            append(_task_json(task_ids[slot], functions[slot], addresses[low:high],
                              flags[low:high], None if sizes is None else sizes[low:high],
                              durations[slot], creations[slot], slot in parents,
                              parents.get(slot)))
        if barrier is not None:
            append(_barrier_json(barrier))
    return {
        "format_version": FORMAT_VERSION,
        "name": trace.name,
        "metadata": dict(trace.metadata),
        "events": events,
    }


def trace_from_json(data: Dict[str, Any]) -> Trace:
    """Reconstruct a trace from :func:`trace_to_json` output."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise TraceError(f"unsupported trace format version {version!r} (expected {FORMAT_VERSION})")
    try:
        events = (_event_from_json(e) for e in data["events"])
        return Trace(name=str(data["name"]), events=events, metadata=dict(data.get("metadata", {})))
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed trace document: {exc}") from exc


def save_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` to ``path`` (gzip-compressed when it ends in .gz)."""
    path = Path(path)
    document = _dumps(trace_to_json(trace))
    with _open_text(path, "wt") as handle:
        handle.write(document)
    return path


def _coerce_json_scalar(value: Any) -> Any:
    """Convert numpy scalars (from manager statistics) to plain Python."""
    item = getattr(value, "item", None)
    if callable(item) and type(value).__module__.startswith("numpy"):
        return item()
    raise TypeError(f"object of type {type(value).__name__} is not JSON serializable")


def canonical_json_line(document: Any) -> str:
    """Render ``document`` as canonical single-line JSON (no newline).

    Sorted keys and compact separators make the rendering a pure function
    of the document's value, so identical results produce byte-identical
    lines regardless of which process (or cache) produced them.  NaN and
    ±Infinity are not JSON: a document holding one raises
    :class:`~repro.common.errors.TraceError` naming the value and where
    it sits.

    >>> canonical_json_line({"b": 1, "a": [2.5]})
    '{"a":[2.5],"b":1}'
    """
    return _dumps(document, sort_keys=True, default=_coerce_json_scalar)


def _dumps(document: Any, **options: Any) -> str:
    """Compact JSON of ``document``; a NaN/±Infinity anywhere in it raises
    :class:`~repro.common.errors.TraceError` naming the value's path."""
    try:
        return json.dumps(document, separators=(",", ":"), allow_nan=False, **options)
    except ValueError:
        found = _find_non_finite(document, "$")
        if found is None:
            raise
        path, value = found
        raise TraceError(f"{value!r} at {path} is outside the JSON domain "
                         "(NaN and Infinity are not JSON)") from None


def _find_non_finite(value: Any, path: str) -> Optional[Tuple[str, float]]:
    """The path and value of the first NaN/±inf float inside ``value``."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if isinstance(value, dict):
        items = ((f"{path}.{key}", item) for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{index}]", item) for index, item in enumerate(value))
    else:
        return None
    for item_path, item in items:
        found = _find_non_finite(item, item_path)
        if found is not None:
            return found
    return None


def json_digest(document: Any) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``document``."""
    return hashlib.sha256(canonical_json_line(document).encode("utf-8")).hexdigest()


def trace_digest(trace: Trace) -> str:
    """Content hash of a trace (used to address inline sweep workloads)."""
    return json_digest(trace_to_json(trace))


def _times_to_json(times: Dict[int, float]) -> Dict[str, float]:
    return {str(task_id): value for task_id, value in times.items()}


def _times_from_json(data: Dict[str, float]) -> Dict[int, float]:
    return {int(task_id): float(value) for task_id, value in data.items()}


def result_to_json(result: "MachineResult") -> Dict[str, Any]:
    """Convert a :class:`MachineResult` to a JSON-serializable dictionary."""
    return {
        "format_version": RESULT_FORMAT_VERSION,
        "trace": result.trace_name,
        "manager": result.manager_name,
        "cores": result.num_cores,
        "makespan_us": result.makespan_us,
        "total_work_us": result.total_work_us,
        "num_tasks": result.num_tasks,
        "master_finish_us": result.master_finish_us,
        "core_busy_us": result.core_busy_us,
        "submit_times": _times_to_json(result.submit_times),
        "ready_times": _times_to_json(result.ready_times),
        "start_times": _times_to_json(result.start_times),
        "finish_times": _times_to_json(result.finish_times),
        "manager_stats": dict(result.manager_stats),
        "scheduler": result.scheduler,
        "topology": dict(result.topology),
        "per_core_busy_us": list(result.per_core_busy_us),
        "task_cores": {str(task_id): core for task_id, core in result.task_cores.items()},
    }


def result_from_json(data: Dict[str, Any]) -> "MachineResult":
    """Reconstruct a :class:`MachineResult` from :func:`result_to_json`."""
    from repro.system.results import MachineResult

    version = data.get("format_version")
    if version not in (1, RESULT_FORMAT_VERSION):
        raise TraceError(
            f"unsupported result format version {version!r} (expected {RESULT_FORMAT_VERSION})"
        )
    try:
        return MachineResult(
            trace_name=str(data["trace"]),
            manager_name=str(data["manager"]),
            num_cores=int(data["cores"]),
            makespan_us=float(data["makespan_us"]),
            total_work_us=float(data["total_work_us"]),
            num_tasks=int(data["num_tasks"]),
            submit_times=_times_from_json(data.get("submit_times", {})),
            ready_times=_times_from_json(data.get("ready_times", {})),
            start_times=_times_from_json(data.get("start_times", {})),
            finish_times=_times_from_json(data.get("finish_times", {})),
            master_finish_us=float(data.get("master_finish_us", 0.0)),
            core_busy_us=float(data.get("core_busy_us", 0.0)),
            manager_stats=dict(data.get("manager_stats", {})),
            scheduler=str(data.get("scheduler", "fifo")),
            topology=dict(data.get("topology", {})),
            per_core_busy_us=tuple(float(b) for b in data.get("per_core_busy_us", ())),
            task_cores={int(task_id): int(core)
                        for task_id, core in data.get("task_cores", {}).items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed result document: {exc}") from exc


def iter_jsonl(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield the JSON documents of a (possibly gzipped) JSONL file."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"JSONL file {path} does not exist")
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line, parse_constant=reject_non_finite)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{line_number} is not valid JSON: {exc}") from exc


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace` *or* :class:`TraceWriter`.

    Chunked-stream files are detected by their header line and
    materialised; prefer :func:`open_trace_stream` when the trace may be
    too large to hold in memory.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file {path} does not exist")
    if _is_stream_file(path):
        from repro.trace.stream import materialize

        return materialize(open_trace_stream(path))
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text, parse_constant=reject_non_finite)
    except json.JSONDecodeError as exc:
        raise TraceError(f"trace file {path} is not valid JSON: {exc}") from exc
    return trace_from_json(data)


# -- chunked JSONL trace streams ---------------------------------------------
#
# Layout (one JSON document per line, optionally gzipped):
#
#   {"format_version": 1, "kind": "trace-stream", "name": ..., "metadata": {...}}
#   {"e": [<event>, ...]}            # one chunk of up to chunk_size events
#   ...
#   {"end": true, "num_events": M, "num_tasks": N}
#
# The footer makes silent truncation (a crashed writer, a cut transfer)
# detectable; readers verify the counts when it is present.


def _open_text(path: Path, mode: str):
    """Open ``path`` as UTF-8 text, gzip-compressed when it ends in .gz.

    A written gzip header carries mtime 0, so equal text compresses to
    equal bytes whenever it is written.
    """
    if path.suffix != ".gz":
        return open(path, mode, encoding="utf-8")
    if "w" in mode:
        return io.TextIOWrapper(gzip.GzipFile(path, "wb", mtime=0), encoding="utf-8")
    return gzip.open(path, mode, encoding="utf-8")


#: Bytes of decoded text sniffed when distinguishing the two formats.  A
#: chunked-stream header line (version, kind, name, metadata) fits here
#: comfortably; a document trace is one giant line with no newline inside
#: the prefix, so sniffing never parses more than this much.
_SNIFF_PREFIX_CHARS = 65536


def _is_stream_file(path: Path) -> bool:
    """Cheaply detect the chunked format from a bounded prefix.

    Only the first line is ever parsed, and only when it terminates
    inside the sniff window — a document trace (a single multi-megabyte
    line) is recognised without decoding it.
    """
    try:
        with _open_text(path, "rt") as handle:
            prefix = handle.read(_SNIFF_PREFIX_CHARS)
    except OSError:
        return False
    newline = prefix.find("\n")
    if newline < 0:
        # Single long line: the document format — or a stream header
        # whose metadata outgrew the window.  TraceWriter serialises the
        # header with a fixed key order, so its exact opening bytes are
        # deterministic and cannot occur at the start of a document
        # trace (whose second key is "name").
        return re.match(r'\{"format_version":\d+,"kind":"trace-stream",', prefix) is not None
    try:
        header = json.loads(prefix[:newline], parse_constant=reject_non_finite)
    except json.JSONDecodeError:
        return False
    return isinstance(header, dict) and header.get("kind") == _STREAM_KIND


class TraceWriter:
    """Incremental chunked-JSONL trace writer (bounded writer memory).

    The streaming counterpart of :func:`save_trace`: workload generators
    (or live systems recording real traffic) emit events one at a time
    and the writer flushes them in chunks of ``chunk_size`` — at no point
    does the full trace exist in memory.  Use as a context manager::

        with TraceWriter(path, "my-trace", metadata={"seed": 7}) as writer:
            for event in stream.iter_events():
                writer.write(event)

    A ``.gz`` path suffix selects gzip compression.  The footer (written
    on a clean close) records the event/task counts; readers use it to
    detect truncated files.
    """

    def __init__(
        self,
        path: Union[str, Path],
        name: str,
        metadata: Optional[Dict[str, Any]] = None,
        *,
        chunk_size: int = DEFAULT_CHUNK_EVENTS,
    ) -> None:
        if not name:
            raise TraceError("trace name must be non-empty")
        if chunk_size <= 0:
            raise TraceError(f"chunk_size must be positive, got {chunk_size}")
        self.path = Path(path)
        self.name = name
        self.metadata = dict(metadata or {})
        self.chunk_size = chunk_size
        self.num_events = 0
        self.num_tasks = 0
        self._chunk: list[Dict[str, Any]] = []
        header = _dumps({
            "format_version": STREAM_FORMAT_VERSION,
            "kind": _STREAM_KIND,
            "name": name,
            "metadata": self.metadata,
        })
        self._handle = _open_text(self.path, "wt")
        self._closed = False
        self._handle.write(header + "\n")

    # -- writing -----------------------------------------------------------
    def write(self, event: TraceEvent) -> None:
        """Append one event (flushes a chunk line when the buffer fills)."""
        if self._closed:
            raise TraceError(f"TraceWriter for {self.path} is already closed")
        self._chunk.append(_event_to_json(event))
        self.num_events += 1
        if isinstance(event, TaskSubmitEvent):
            self.num_tasks += 1
        if len(self._chunk) >= self.chunk_size:
            self._flush_chunk()

    def extend(self, events: Iterator[TraceEvent]) -> None:
        """Append every event of an iterable."""
        for event in events:
            self.write(event)

    def close(self) -> Path:
        """Flush the tail chunk, write the integrity footer and close."""
        if not self._closed:
            self._flush_chunk()
            self._write_line({"end": True, "num_events": self.num_events,
                              "num_tasks": self.num_tasks})
            self._handle.close()
            self._closed = True
        return self.path

    # -- context manager ----------------------------------------------------
    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif not self._closed:
            # Leave no footer behind a failed write: readers will report
            # the file as truncated instead of silently replaying a prefix.
            self._handle.close()
            self._closed = True

    # -- internals ----------------------------------------------------------
    def _write_line(self, document: Dict[str, Any]) -> None:
        self._handle.write(_dumps(document) + "\n")

    def _flush_chunk(self) -> None:
        if self._chunk:
            self._write_line({"e": self._chunk})
            self._chunk = []


def write_trace_stream(
    stream: Any,
    path: Union[str, Path],
    *,
    chunk_size: int = DEFAULT_CHUNK_EVENTS,
) -> Path:
    """Write a :class:`~repro.trace.stream.TaskStream` (or a materialised
    trace) to the chunked JSONL format with bounded memory."""
    from repro.trace.stream import as_stream

    stream = as_stream(stream)
    with TraceWriter(path, stream.name, dict(stream.metadata), chunk_size=chunk_size) as writer:
        writer.extend(stream.iter_events())
    return writer.path


def read_stream_header(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate the header line of a chunked trace file."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file {path} does not exist")
    with _open_text(path, "rt") as handle:
        first = handle.readline()
    try:
        header = json.loads(first, parse_constant=reject_non_finite)
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: not a chunked trace stream (bad header): {exc}") from exc
    return validate_stream_header(header, source=str(path))


def parse_stream_documents(
    documents: Iterator[Dict[str, Any]], source: str = "<stream>"
) -> Iterator[TraceEvent]:
    """Yield the events of already-decoded chunk/footer stream lines.

    THE chunk-and-footer grammar of the chunked trace format, shared by
    the file reader (:func:`iter_trace_events`) and in-memory framings
    such as an HTTP upload body (:func:`trace_from_stream_text`):
    ``documents`` holds every decoded line *after* the header, and the
    same truncation/count integrity checks apply regardless of where the
    bytes came from.
    """
    num_events = 0
    num_tasks = 0
    footer: Optional[Dict[str, Any]] = None
    for line_number, document in enumerate(documents, start=2):
        if footer is not None:
            raise TraceError(f"{source}: data after the end-of-stream footer")
        if "end" in document:
            footer = document
            continue
        chunk = document.get("e")
        if not isinstance(chunk, list):
            raise TraceError(f"{source}: line {line_number} is not an event chunk")
        for data in chunk:
            try:
                event = _event_from_json(data)
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceError(f"{source}: malformed event in chunk "
                                 f"(line {line_number}): {exc}") from exc
            num_events += 1
            if isinstance(event, TaskSubmitEvent):
                num_tasks += 1
            yield event
    if footer is None:
        raise TraceError(
            f"{source}: missing end-of-stream footer (truncated or still being written)"
        )
    if footer.get("num_events") != num_events or footer.get("num_tasks") != num_tasks:
        raise TraceError(
            f"{source}: footer counts ({footer.get('num_events')} events, "
            f"{footer.get('num_tasks')} tasks) disagree with the stream "
            f"({num_events} events, {num_tasks} tasks)"
        )


def iter_trace_events(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Lazily yield the events of a chunked trace file.

    Memory stays bounded at one decoded chunk regardless of trace size.
    Raises :class:`~repro.common.errors.TraceError` when the footer is
    missing (truncated file) or its counts disagree with the lines read.
    """
    path = Path(path)
    read_stream_header(path)  # validate before yielding anything

    def body() -> Iterator[Dict[str, Any]]:
        for line_number, document in enumerate(iter_jsonl(path), start=1):
            if line_number == 1:
                continue  # header, already validated
            yield document

    yield from parse_stream_documents(body(), source=str(path))


def validate_stream_header(header: Any, source: str = "<stream>") -> Dict[str, Any]:
    """Validate a decoded chunked-stream header document."""
    if not isinstance(header, dict) or header.get("kind") != _STREAM_KIND:
        raise TraceError(f"{source}: not a chunked trace stream (missing kind marker)")
    version = header.get("format_version")
    if version != STREAM_FORMAT_VERSION:
        raise TraceError(
            f"unsupported trace-stream format version {version!r} "
            f"(expected {STREAM_FORMAT_VERSION})"
        )
    if not header.get("name"):
        raise TraceError(f"{source}: trace-stream header has no name")
    return header


def trace_from_stream_text(text: str, source: str = "<stream>") -> Trace:
    """Materialise a chunked-JSONL trace carried as in-memory text.

    The request-body twin of :func:`load_trace` for the chunked format
    (an HTTP upload, a socket frame): same header validation, same
    chunk grammar, same footer integrity checks.
    """
    lines = iter(text.splitlines())
    try:
        first = next(lines)
    except StopIteration:
        raise TraceError(f"{source}: empty trace stream") from None
    try:
        header = json.loads(first, parse_constant=reject_non_finite)
    except json.JSONDecodeError as exc:
        raise TraceError(f"{source}: not a chunked trace stream (bad header): {exc}") from exc
    validate_stream_header(header, source)

    def body() -> Iterator[Dict[str, Any]]:
        for line_number, line in enumerate(lines, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line, parse_constant=reject_non_finite)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{source}: line {line_number} is not valid JSON: {exc}") from exc

    return Trace(name=str(header["name"]), events=parse_stream_documents(body(), source=source),
                 metadata=dict(header.get("metadata", {})))


def open_trace_stream(path: Union[str, Path]) -> "TraceStream":  # noqa: F821
    """Open a chunked trace file as a replayable, lazy task stream.

    Only the header is read eagerly (name + metadata); events are decoded
    chunk by chunk on each :meth:`~repro.trace.stream.TraceStream.
    iter_events` call, so simulating a million-task trace from disk never
    materialises it.
    """
    from repro.trace.stream import TraceStream

    path = Path(path)
    header = read_stream_header(path)
    return TraceStream(
        str(header["name"]),
        lambda: iter_trace_events(path),
        metadata=dict(header.get("metadata", {})),
    )
