"""The :class:`Trace` container and its builder.

A trace is the unit the simulation consumes: an ordered program of task
submissions and barriers plus metadata about the workload it was
generated from.  Traces are immutable once built and store their
program as validated columns (:class:`~repro.trace.columns.TraceColumns`),
the one form the library's readers use; the
:class:`~repro.trace.events.TraceEvent` sequence and the task descriptors
are views built on first use.  The :class:`TraceBuilder` is the mutable
construction helper — the column sink — the workload generators and the
OmpSs-like runtime API write into.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.common.errors import TraceError
from repro.trace.columns import FULL_TASKWAIT, TraceColumns
from repro.trace.events import SpawnEvent, TaskSubmitEvent, TaskwaitEvent, TaskwaitOnEvent, TraceEvent
from repro.trace.task import (
    FLAG_READS,
    FLAG_READWRITE,
    FLAG_WRITES,
    Parameter,
    TaskDescriptor,
    check_address,
    check_task,
    make_task,
    task_accesses,
)


class Trace:
    """An immutable, replayable task-submission program.

    Attributes
    ----------
    name:
        Workload name, e.g. ``"h264dec-1x1-10f"``.
    columns:
        The program in column form (:class:`~repro.trace.columns.TraceColumns`).
    events:
        Master-thread program: task submissions and barriers in order (a
        view over the columns, built on first use).
    metadata:
        Free-form generator parameters (frame counts, matrix sizes, seed,
        scale factor, ...), recorded so experiments are self-describing.

    ``Trace(name, events=...)`` builds a trace from event objects (sugar
    over :meth:`TraceBuilder.extend`: only the columns are kept);
    :meth:`TraceBuilder.build` builds one from columns.  Both forms are
    equal when they describe the same program.

    Example
    -------
    >>> builder = TraceBuilder("example")
    >>> a = builder.add_task("produce", duration_us=10.0, outputs=[0x1000])
    >>> b = builder.add_task("consume", duration_us=5.0, inputs=[0x1000])
    >>> builder.add_taskwait()
    >>> trace = builder.build()
    >>> trace.num_tasks, trace.num_barriers
    (2, 1)
    >>> trace.total_work_us
    15.0
    >>> [task.function for task in trace.tasks()]
    ['produce', 'consume']
    """

    name: str
    columns: TraceColumns
    metadata: Mapping[str, object]

    def __init__(
        self,
        name: str,
        events: Iterable[TraceEvent],
        metadata: Optional[Mapping[str, object]] = None,
    ) -> None:
        builder = TraceBuilder(name)
        builder.extend(events)
        self._init(name, builder.columns(), metadata)

    @classmethod
    def from_columns(
        cls, name: str, columns: TraceColumns, metadata: Optional[Mapping[str, object]] = None,
    ) -> "Trace":
        """A trace over already-validated columns (no event objects built)."""
        trace = cls.__new__(cls)
        trace._init(name, columns, metadata)
        return trace

    def _init(self, name: str, columns: TraceColumns,
              metadata: Optional[Mapping[str, object]]) -> None:
        if not name:
            raise TraceError("trace name must be non-empty")
        self.__dict__.update(name=name, columns=columns,
                             metadata={} if metadata is None else metadata)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the name, metadata and columns only: the lazy object
        views and compiled programs (``_``-prefixed caches) are rebuilt on
        demand, so shipping a trace to sweep workers stays lean."""
        return {"name": self.name, "columns": self.columns, "metadata": self.metadata}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name == other.name and self.metadata == other.metadata
                and self.columns == other.columns)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"Trace(name={self.name!r}, num_tasks={self.num_tasks}, "
                f"num_barriers={self.num_barriers})")

    # -- object views ------------------------------------------------------
    def descriptors(self) -> List[TaskDescriptor]:
        """The task descriptors by slot (built from the columns once)."""
        tasks = self.__dict__.get("_descriptors")
        if tasks is None:
            tasks = self.__dict__["_descriptors"] = self.columns.descriptors()
        return tasks

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The event sequence (built from the columns on first use)."""
        events = self.__dict__.get("_events")
        if events is None:
            events = self.__dict__["_events"] = self.columns.events(self.descriptors())
        return events

    # -- iteration helpers -------------------------------------------------
    def __len__(self) -> int:
        return self.columns.num_tasks + self.columns.num_barriers

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def iter_events(self) -> Iterator[TraceEvent]:
        """Yield the events in order (a trace satisfies the
        :class:`~repro.trace.stream.TaskStream` protocol, so every
        streaming consumer also accepts materialised traces)."""
        return iter(self.events)

    def tasks(self) -> Iterator[TaskDescriptor]:
        """Yield the task descriptors in submission order."""
        return iter(self.descriptors())

    @property
    def num_tasks(self) -> int:
        """Number of task submissions in the trace."""
        return self.columns.num_tasks

    @property
    def num_barriers(self) -> int:
        """Number of ``taskwait`` plus ``taskwait on`` events."""
        return self.columns.num_barriers

    @property
    def total_work_us(self) -> float:
        """Sum of all task execution times (micro-seconds), left to right."""
        return self.columns.total_work_us

    @property
    def avg_task_us(self) -> float:
        """Mean task execution time (micro-seconds), 0 for empty traces."""
        n = self.num_tasks
        return self.total_work_us / n if n else 0.0

    def task_map(self) -> Dict[int, TaskDescriptor]:
        """Return a dict mapping task id to descriptor."""
        return dict(zip(self.columns.task_ids, self.descriptors()))

    def functions(self) -> Dict[str, int]:
        """Return a mapping of function name to number of task instances."""
        counts: Dict[str, int] = {}
        for function in self.columns.functions:
            counts[function] = counts.get(function, 0) + 1
        return counts

    def param_count_range(self) -> tuple[int, int]:
        """Minimum and maximum number of parameters over all tasks."""
        offsets = self.columns.offsets
        counts = [high - low for low, high in zip(offsets, offsets[1:])]
        if not counts:
            return (0, 0)
        return (min(counts), max(counts))

    def access_program(self):
        """The trace's compiled access program (compiled on first use).

        Interns every parameter address to a dense id and precomputes each
        task's deduplicated access list into flat arrays, straight from
        the columns (see :mod:`repro.trace.compiled`).  The result is
        cached on the trace — like the lane program — under a
        ``_compiled*`` attribute that :meth:`__getstate__` keeps out of
        pickles, so replaying one trace across many managers compiles it
        exactly once.
        """
        program = self.__dict__.get("_compiled_access_program")
        if program is None:
            from repro.trace.compiled import CompiledAccessProgram

            program = CompiledAccessProgram(self.columns)
            self.__dict__["_compiled_access_program"] = program
        return program


class TraceBuilder:
    """Mutable column sink used to construct a :class:`Trace`.

    Task ids are assigned sequentially in submission order, which is also
    the order the hardware receives them, so ids double as submission
    ranks everywhere in the simulation.  :meth:`task` / :meth:`taskwait`
    / :meth:`taskwait_on` append to the columns without building any
    per-task object (the generator sink protocol shared with
    :class:`~repro.trace.stream.EventEmitter`); :meth:`add_task` also
    returns the task's descriptor.  Values are validated once per column
    by :meth:`build`.  While ids are dense and no task has given sizes,
    :meth:`task` without ``params`` extends the address and flag columns
    straight from its lists (the generators' fast path); every other call
    normalizes through :func:`~repro.trace.task.task_accesses`.

    >>> builder = TraceBuilder("ids")
    >>> builder.add_task("t", duration_us=1.0, outputs=[0x2000]).task_id
    0
    >>> builder.add_task("t", duration_us=1.0, outputs=[0x2040]).task_id
    1
    >>> builder.num_tasks
    2
    """

    def __init__(self, name: str, metadata: Optional[Mapping[str, object]] = None) -> None:
        if not name:
            raise TraceError("trace name must be non-empty")
        self.name = name
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._task_ids: Optional[List[int]] = None  # None: dense ids 0..n-1
        self._functions: List[str] = []
        self._durations: List[float] = []
        self._creations: List[float] = []
        self._offsets: List[int] = [0]
        self._addresses: List[int] = []
        self._flags: List[int] = []
        self._sizes: Optional[List[int]] = None
        self._parents: Dict[int, Optional[int]] = {}
        self._barrier_at: List[int] = []
        self._barrier_addr: List[int] = []
        self._next_task_id = 0

    # -- the generator sink ------------------------------------------------
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
    ) -> int:
        """Append a task submission to the columns; return its task id.

        Either pass ``params`` explicitly or use the ``inputs`` /
        ``outputs`` / ``inouts`` address lists.
        """
        task_id = self._next_task_id
        self._next_task_id = task_id + 1
        if params is None and self._task_ids is None and self._sizes is None:
            # Fast path (dense ids, no sizes column): the address lists go
            # straight onto the columns, in task_accesses' order.
            self._functions.append(function)
            self._durations.append(duration_us)
            self._creations.append(creation_overhead_us)
            column = self._addresses
            column.extend(inputs)
            column.extend(inouts)
            column.extend(outputs)
            flags = self._flags
            flags += (FLAG_READS,) * len(inputs)
            flags += (FLAG_READWRITE,) * len(inouts)
            flags += (FLAG_WRITES,) * len(outputs)
            self._offsets.append(len(column))
            return task_id
        addresses, flags, sizes, _ = task_accesses(inputs, outputs, inouts, params)
        self._append(task_id, function, duration_us, creation_overhead_us,
                     addresses, flags, sizes)
        return task_id

    def taskwait(self) -> None:
        """Append a full ``taskwait`` barrier."""
        self._barrier_at.append(len(self._functions))
        self._barrier_addr.append(FULL_TASKWAIT)

    def taskwait_on(self, address: int) -> None:
        """Append a ``taskwait on(address)`` barrier."""
        check_address(address, "taskwait on address")
        self._barrier_at.append(len(self._functions))
        self._barrier_addr.append(address)

    def _append(self, task_id: int, function: str, duration_us: float,
                creation_overhead_us: float, addresses: Sequence[int],
                flags: Sequence[int], sizes: Optional[Sequence[int]]) -> None:
        if self._task_ids is not None:
            self._task_ids.append(task_id)
        elif task_id != len(self._functions):
            # Ids stop being dense (extend with foreign events): keep a column.
            self._task_ids = list(range(len(self._functions))) + [task_id]
        self._functions.append(function)
        self._durations.append(duration_us)
        self._creations.append(creation_overhead_us)
        column = self._addresses
        if sizes is not None or self._sizes is not None:
            if self._sizes is None:
                self._sizes = [0] * len(column)
            self._sizes.extend(sizes or (0,) * len(addresses))
        column.extend(addresses)
        self._flags.extend(flags)
        self._offsets.append(len(column))

    # -- construction ------------------------------------------------------
    def add_task(
        self,
        function: str,
        duration_us: float,
        *,
        inputs: Sequence[int] = (),
        outputs: Sequence[int] = (),
        inouts: Sequence[int] = (),
        params: Optional[Sequence[Parameter]] = None,
        creation_overhead_us: float = 0.0,
    ) -> TaskDescriptor:
        """Append a task submission and return its (validated) descriptor."""
        addresses, flags, sizes, given = task_accesses(inputs, outputs, inouts, params)
        task_id = self._next_task_id
        check_task(task_id, function, duration_us, creation_overhead_us, addresses, sizes)
        self._next_task_id = task_id + 1
        self._append(task_id, function, duration_us, creation_overhead_us,
                     addresses, flags, sizes)
        return make_task(task_id, function, addresses, flags, sizes, duration_us,
                         creation_overhead_us, given)

    add_taskwait = taskwait
    add_taskwait_on = taskwait_on

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Append pre-built events (task ids must not collide)."""
        for event in events:
            if isinstance(event, TaskSubmitEvent):
                task = event.task
                if isinstance(event, SpawnEvent):
                    self._parents[len(self._functions)] = event.parent_id
                self._append(task.task_id, task.function, task.duration_us,
                             task.creation_overhead_us, task.addresses, task.flags, task.sizes)
                self._next_task_id = max(self._next_task_id, task.task_id + 1)
            elif isinstance(event, TaskwaitEvent):
                self.taskwait()
            elif isinstance(event, TaskwaitOnEvent):
                self.taskwait_on(event.address)
            else:
                raise TraceError(f"unknown trace event {event!r}")

    @property
    def num_tasks(self) -> int:
        """Number of tasks added so far."""
        return len(self._functions)

    def columns(self) -> TraceColumns:
        """The columns so far, validated once per column (a frozen copy)."""
        task_ids = self._task_ids
        return TraceColumns(
            range(len(self._functions)) if task_ids is None else task_ids,
            self._functions, self._durations, self._creations, self._offsets,
            self._addresses, self._flags, self._sizes, dict(self._parents),
            self._barrier_at, self._barrier_addr,
        )

    def build(self) -> Trace:
        """Validate the columns once and freeze them into a :class:`Trace`."""
        return Trace.from_columns(self.name, self.columns(), dict(self.metadata))
