"""The streaming trace pipeline: tasks as a lazy event stream.

The paper argues that the distributed task manager keeps dependency-
resolution overhead flat as task counts grow — but demonstrating that at
production scale means the *trace layer* must not hold a million task
descriptors in memory before the first one is submitted.  This module
defines the streaming counterpart of :class:`~repro.trace.trace.Trace`:

* :class:`TaskStream` — the protocol every trace source satisfies: a
  ``name``, free-form ``metadata`` and an ``iter_events()`` method that
  yields :class:`~repro.trace.events.TraceEvent` objects in submission
  order.  A materialised :class:`~repro.trace.trace.Trace` satisfies it
  too, so every streaming consumer accepts both.
* :class:`TraceStream` — a replayable stream built from an event-iterator
  factory; each ``iter_events()`` call starts a fresh, deterministic
  replay (generators re-seed their RNGs per replay).
  :meth:`TraceStream.from_body` wraps a workload generator's one *body*,
  which writes into whichever sink it is handed (see below).
* :class:`EventEmitter` — the event sink: the streaming analogue of
  :class:`~repro.trace.trace.TraceBuilder` (the column sink).  Both
  assign sequential task ids through the same ``task`` / ``taskwait`` /
  ``taskwait_on`` methods; the emitter *returns* events for the body to
  ``yield`` instead of accumulating columns.
* :func:`materialize` — collapse any stream into an immutable
  :class:`~repro.trace.trace.Trace` (the compatibility bridge: the
  classic ``generate_*`` workload APIs are exactly this, applied to
  their ``stream_*`` counterparts).  A body-backed stream materialises
  by running its body into a :class:`~repro.trace.trace.TraceBuilder`,
  so no event or parameter object is built.
* :func:`limit_stream` / :func:`truncate_trace` — bound a stream to its
  first ``max_tasks`` submissions (the ``max_tasks`` sweep axis).

Memory-boundedness contract: iterating a :class:`TraceStream` produced
by a ``stream_*`` workload generator allocates per-event garbage plus
O(live addresses) state only — never O(total tasks) — and
:meth:`Machine.run_stream <repro.system.machine.Machine.run_stream>`
preserves that bound on the consumer side (see ``docs/streaming.md``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Protocol, Sequence, runtime_checkable

from repro.common.errors import TraceError
from repro.trace.events import TaskSubmitEvent, TaskwaitEvent, TaskwaitOnEvent, TraceEvent
from repro.trace.task import Parameter, check_task, make_task, task_accesses
from repro.trace.trace import Trace, TraceBuilder

#: A workload generator body: called with a sink (an :class:`EventEmitter`
#: or a :class:`~repro.trace.trace.TraceBuilder`), it writes the program
#: through the sink's ``task`` / ``taskwait`` / ``taskwait_on`` methods
#: and yields each call's result.
GeneratorBody = Callable[[object], Iterator[object]]


@runtime_checkable
class TaskStream(Protocol):
    """Anything that can replay a named trace as a lazy event sequence.

    Both :class:`TraceStream` (lazy) and :class:`~repro.trace.trace.Trace`
    (materialised) satisfy this protocol; streaming consumers such as
    :meth:`Machine.run_stream <repro.system.machine.Machine.run_stream>`
    and :func:`repro.trace.serialization.write_trace_stream` accept
    either.
    """

    @property
    def name(self) -> str:
        """Workload name, e.g. ``"h264dec-2x2-10f"``."""
        ...

    @property
    def metadata(self) -> Mapping[str, object]:
        """Free-form generator parameters (self-describing experiments)."""
        ...

    def iter_events(self) -> Iterator[TraceEvent]:
        """Yield the trace events in master-thread submission order."""
        ...


class TraceStream:
    """A replayable, lazily evaluated task stream.

    Parameters
    ----------
    name:
        Workload name (must be non-empty, like a trace's).
    events_factory:
        Zero-argument callable returning a *fresh* event iterator.  Every
        :meth:`iter_events` call invokes it again, so a stream can be
        replayed (streamed to disk, then simulated, then materialised)
        as long as the factory is deterministic.
    metadata:
        Free-form generator parameters recorded alongside the events.

    Example
    -------
    >>> from repro.trace.stream import EventEmitter, TraceStream, materialize
    >>> def events():
    ...     emit = EventEmitter()
    ...     for i in range(3):
    ...         yield emit.task("work", duration_us=5.0, outputs=[0x1000 + 64 * i])
    ...     yield emit.taskwait()
    >>> stream = TraceStream("tiny", events, metadata={"num_tasks": 3})
    >>> trace = materialize(stream)
    >>> trace.num_tasks, trace.num_barriers
    (3, 1)
    """

    __slots__ = ("name", "metadata", "body", "_events_factory")

    def __init__(
        self,
        name: str,
        events_factory: Callable[[], Iterator[TraceEvent]],
        metadata: Optional[Mapping[str, object]] = None,
    ) -> None:
        if not name:
            raise TraceError("stream name must be non-empty")
        self.name = name
        self.metadata: Dict[str, object] = dict(metadata or {})
        #: The generator body behind the stream (``None`` for a plain
        #: event factory); :func:`materialize` runs it into columns.
        self.body: Optional[GeneratorBody] = None
        self._events_factory = events_factory

    @classmethod
    def from_body(cls, name: str, body: GeneratorBody,
                  metadata: Optional[Mapping[str, object]] = None) -> "TraceStream":
        """A stream over a generator body: events come from running it into
        an :class:`EventEmitter`, a materialised trace from running it
        into a :class:`~repro.trace.trace.TraceBuilder`.

        >>> def body(sink):
        ...     for i in range(3):
        ...         yield sink.task("work", duration_us=5.0, outputs=[0x1000 + 64 * i])
        ...     yield sink.taskwait()
        >>> stream = TraceStream.from_body("tiny", body)
        >>> [event.kind for event in stream.iter_events()]
        ['submit', 'submit', 'submit', 'taskwait']
        >>> materialize(stream).events == tuple(stream.iter_events())
        True
        """
        stream = cls(name, lambda: body(EventEmitter()), metadata)
        stream.body = body
        return stream

    def iter_events(self) -> Iterator[TraceEvent]:
        """Start a fresh replay of the stream's events."""
        return iter(self._events_factory())

    def __iter__(self) -> Iterator[TraceEvent]:
        return self.iter_events()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TraceStream {self.name!r}>"


class EventEmitter:
    """Sequential-id event sink for streaming workload generators.

    The streaming analogue of :class:`~repro.trace.trace.TraceBuilder`:
    the ``task`` / ``taskwait`` / ``taskwait_on`` methods construct and
    *return* events (for the generator to ``yield``) instead of
    appending them to columns.  Task ids are assigned sequentially in
    submission order — the same invariant TraceBuilder guarantees — and
    each task is checked as it is emitted, so a materialised stream is
    equal to the trace the builder produces from the same body.

    >>> emit = EventEmitter()
    >>> event = emit.task("render", duration_us=2.0, outputs=[0x2000])
    >>> event.task.task_id, event.task.function
    (0, 'render')
    >>> emit.task("render", duration_us=2.0, outputs=[0x2040]).task.task_id
    1
    >>> emit.num_tasks
    2
    """

    __slots__ = ("_next_task_id",)

    def __init__(self) -> None:
        self._next_task_id = 0

    @property
    def num_tasks(self) -> int:
        """Number of task-submit events emitted so far."""
        return self._next_task_id

    def task(
        self,
        function: str,
        duration_us: float,
        *,
        inputs: Sequence[int] = (),
        outputs: Sequence[int] = (),
        inouts: Sequence[int] = (),
        params: Optional[Sequence[Parameter]] = None,
        creation_overhead_us: float = 0.0,
    ) -> TaskSubmitEvent:
        """Create the next task-submission event (mirrors ``TraceBuilder.task``)."""
        addresses, flags, sizes, given = task_accesses(inputs, outputs, inouts, params)
        task_id = self._next_task_id
        check_task(task_id, function, duration_us, creation_overhead_us, addresses, sizes)
        self._next_task_id = task_id + 1
        return TaskSubmitEvent(make_task(task_id, function, addresses, flags, sizes,
                                         duration_us, creation_overhead_us, given))

    def taskwait(self) -> TaskwaitEvent:
        """Create a full ``taskwait`` barrier event."""
        return TaskwaitEvent()

    def taskwait_on(self, address: int) -> TaskwaitOnEvent:
        """Create a ``taskwait on(address)`` barrier event."""
        return TaskwaitOnEvent(address=address)


def as_stream(source: "TaskStream | Trace | Iterable[TraceEvent]", *,
              name: str = "anonymous-stream") -> TaskStream:
    """Normalise ``source`` into a :class:`TaskStream`.

    Traces and streams pass through unchanged (a
    :class:`~repro.trace.trace.Trace` already satisfies the protocol);
    a bare event iterable is wrapped under ``name``.  Note that a bare
    *iterator* can only be consumed once — prefer passing a replayable
    stream or trace wherever a consumer may iterate twice.
    """
    if hasattr(source, "iter_events"):
        return source  # Trace or TraceStream (or any other protocol impl)
    events = source

    def factory() -> Iterator[TraceEvent]:
        return iter(events)

    return TraceStream(name, factory)


def materialize(stream: "TaskStream | Iterable[TraceEvent]") -> Trace:
    """Collapse a stream into an immutable :class:`~repro.trace.trace.Trace`.

    This is the bridge back to the classic API: every ``generate_*``
    workload function is ``materialize(stream_*(...))``.  A body-backed
    stream (:meth:`TraceStream.from_body`) runs its body into a
    :class:`~repro.trace.trace.TraceBuilder`; any other stream's events
    go through the Trace constructor.  Either way duplicate task ids are
    rejected, exactly as with :meth:`TraceBuilder.build
    <repro.trace.trace.TraceBuilder.build>`.
    """
    stream = as_stream(stream)
    body = getattr(stream, "body", None)
    if body is not None:
        builder = TraceBuilder(stream.name, stream.metadata)
        deque(body(builder), maxlen=0)
        return builder.build()
    return Trace(name=stream.name, events=stream.iter_events(), metadata=dict(stream.metadata))


def limit_stream(stream: TaskStream, max_tasks: Optional[int]) -> TaskStream:
    """Bound ``stream`` to its first ``max_tasks`` task submissions.

    ``None`` returns the stream unchanged.  When the stream is actually
    cut short, a final full ``taskwait`` is appended (unless the last
    surviving event already is one), so the truncated program still joins
    all outstanding work — the truncated trace is a valid, runnable
    prefix of the original.  The limit is recorded in the metadata under
    ``"max_tasks"``, keeping truncated workloads self-describing (and
    distinct from their parents in content-addressed caches).

    >>> from repro.workloads.synthetic import stream_independent
    >>> limited = limit_stream(stream_independent(10, seed=1), 4)
    >>> materialize(limited).num_tasks
    4
    """
    if max_tasks is None:
        return stream
    if max_tasks <= 0:
        raise TraceError(f"max_tasks must be positive, got {max_tasks}")
    stream = as_stream(stream)

    def limited() -> Iterator[TraceEvent]:
        remaining = max_tasks
        last_was_taskwait = False
        truncated = False
        for event in stream.iter_events():
            if isinstance(event, TaskSubmitEvent):
                if remaining == 0:
                    truncated = True
                    break
                remaining -= 1
            yield event
            last_was_taskwait = isinstance(event, TaskwaitEvent)
        if truncated and not last_was_taskwait:
            yield TaskwaitEvent()

    metadata = dict(stream.metadata)
    metadata["max_tasks"] = max_tasks
    return TraceStream(stream.name, limited, metadata)


def truncate_trace(trace: Trace, max_tasks: Optional[int]) -> Trace:
    """Materialised counterpart of :func:`limit_stream`."""
    if max_tasks is None:
        return trace
    return materialize(limit_stream(trace, max_tasks))
