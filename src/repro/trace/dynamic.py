"""Dynamic task programs: tasks that spawn tasks while the machine runs.

Everything the repro could express before this module is a *static*
program: every task is known before the first one is submitted, which is
the regime of a pre-recorded trace.  The paper's hardware task managers,
however, serve an OmpSs runtime in which tasks arrive *at runtime* —
including tasks created by other tasks (nested parallelism) — and the
master as well as any running task may execute a ``taskwait``.  This
module defines that insert-while-running regime:

* a :class:`DynamicProgram` is a replayable description of a dynamic
  run: a *master generator* (the master thread's program) plus, per
  spawned task, an optional *body generator* (the task's program).
* generators ``yield`` :class:`Compute` / :class:`Spawn` /
  :class:`Taskwait` ops (the master may additionally yield
  :class:`TaskwaitOn`), and receive responses through ``gen.send``:
  the current simulation time for :class:`Compute` / :class:`Taskwait`,
  the spawned child's task id for :class:`Spawn`.
* a :class:`TaskRequest` names the task to spawn — function, parameter
  list, execution time, and (for non-leaf tasks) the body factory.

Determinism contract
--------------------

Task ids are assigned in **submission order**, which depends on how the
run interleaves (and therefore differs across managers, core counts and
replay paths).  A program's *structure* must not: generators may route a
received child id into a later op's bookkeeping, but must never let ids
or times decide *which* tasks get spawned or which addresses they touch.
All the shipped dynamic workloads derive every decision from their seed
and their position in the spawn tree, which is what makes
``Machine.run`` and ``Machine.run_stream`` byte-identical on them.

Deadlock-freedom contract
-------------------------

A task must not access an address that one of its *ancestors* holds: the
ancestor releases its addresses only when it finishes, the descendant's
insertion waits on the address, and the ancestor's ``taskwait`` waits on
the descendant — a cycle.  Address sharing between *siblings* (tasks
spawned by the same parent) or with already-joined subtrees is safe:
address waits always point backwards in insertion order, so they cannot
close a cycle on their own.  The shipped generators and the fuzzer obey
this rule by construction.

Serial elaboration
------------------

Every dynamic program has a canonical *serial elaboration*: execute each
spawned task's body to completion immediately (depth-first), exactly
like running the program on one core with an OmpSs "serial" flag.
:meth:`DynamicProgram.iter_events` yields that elaboration as ordinary
trace events (:class:`~repro.trace.events.SpawnEvent` submissions plus
the master's barriers), so a :class:`DynamicProgram` satisfies the
:class:`~repro.trace.stream.TaskStream` protocol — it can be
materialised, serialised, diffed and replayed through the *static*
machine like any other trace.  The golden harness pins both the
elaboration and the dynamic-run makespans.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.common.errors import TraceError
from repro.trace.events import SpawnEvent, TaskwaitEvent, TaskwaitOnEvent, TraceEvent
from repro.trace.task import (
    Parameter,
    TaskDescriptor,
    check_duration,
    check_task,
    make_task,
    task_accesses,
)
from repro.trace.trace import Trace


class Compute:
    """Occupy the executing core for ``duration_us`` of task body work."""

    __slots__ = ("duration_us",)

    def __init__(self, duration_us: float) -> None:
        check_duration("compute duration", duration_us)
        self.duration_us = float(duration_us)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Compute({self.duration_us})"


class Spawn:
    """Submit a child task described by ``request`` to the manager.

    The generator receives the child's assigned task id as the value of
    the ``yield`` expression.
    """

    __slots__ = ("request",)

    def __init__(self, request: "TaskRequest") -> None:
        if not isinstance(request, TaskRequest):
            raise TraceError(f"Spawn expects a TaskRequest, got {request!r}")
        self.request = request

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Spawn({self.request.function!r})"


class Taskwait:
    """Block until outstanding work drains.

    Yielded by a *task body*: wait until all children this task spawned
    so far have finished (the task suspends; see
    :mod:`repro.system.dynamic` for what happens to its core).  Yielded
    by the *master*: wait until **all** in-flight tasks have finished —
    the paper's full ``taskwait`` barrier, identical to a static
    :class:`~repro.trace.events.TaskwaitEvent`.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Taskwait()"


class TaskwaitOn:
    """Master-only: block until the last writer of ``address`` finishes.

    Mirrors the static :class:`~repro.trace.events.TaskwaitOnEvent`,
    including the Nexus++ degradation to a full ``taskwait`` when the
    manager does not support the pragma.
    """

    __slots__ = ("address",)

    def __init__(self, address: int) -> None:
        self.address = address

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskwaitOn({self.address:#x})"


#: What a master / body generator may yield.
DynamicOp = Union[Compute, Spawn, Taskwait, TaskwaitOn]

#: A body factory: zero-argument callable returning a fresh generator of
#: ops.  Factories are invoked once per task execution, so replays are
#: deterministic as long as the factory is.
BodyFactory = Callable[[], Generator[DynamicOp, object, None]]


class TaskRequest:
    """Blueprint of one task to be spawned at runtime.

    ``duration_us`` is the task's total declared compute time: for a leaf
    (``body is None``) the machine executes it as one block, exactly like
    a static task; for a task with a body it must equal the sum of the
    body's :class:`Compute` durations (scheduler policies and work
    accounting read the declared value, the machine times the body ops).

    The request holds its task as a checked prototype descriptor, so each
    spawn copies it under a new id without checks or new objects.
    """

    __slots__ = ("body", "_task")

    def __init__(
        self,
        function: str,
        duration_us: float,
        params: Sequence[Parameter] = (),
        body: Optional[BodyFactory] = None,
        creation_overhead_us: float = 0.0,
    ) -> None:
        self.body = body
        self._task = TaskDescriptor(0, function, params, duration_us, creation_overhead_us)

    @property
    def function(self) -> str:
        return self._task.function

    @property
    def duration_us(self) -> float:
        return self._task.duration_us

    @property
    def params(self) -> Tuple[Parameter, ...]:
        return self._task.params

    @property
    def creation_overhead_us(self) -> float:
        return self._task.creation_overhead_us

    def descriptor(self, task_id: int) -> TaskDescriptor:
        """Instantiate the request as a task with the given id."""
        if task_id < 0:
            raise TraceError(f"task_id must be >= 0, got {task_id}")
        task = self._task
        return make_task(task_id, task.function, task.addresses, task.flags, task.sizes,
                         task.duration_us, task.creation_overhead_us, task._params)


def task_request(
    function: str,
    duration_us: float,
    *,
    inputs: Sequence[int] = (),
    outputs: Sequence[int] = (),
    inouts: Sequence[int] = (),
    params: Optional[Sequence[Parameter]] = None,
    body: Optional[BodyFactory] = None,
    creation_overhead_us: float = 0.0,
) -> TaskRequest:
    """Convenience constructor mirroring ``TraceBuilder.add_task`` (no
    :class:`Parameter` objects are built for the address-list form)."""
    addresses, flags, sizes, given = task_accesses(inputs, outputs, inouts, params)
    check_task(0, function, duration_us, creation_overhead_us, addresses, sizes)
    request = TaskRequest.__new__(TaskRequest)
    request.body = body
    request._task = make_task(0, function, addresses, flags, sizes, duration_us,
                              creation_overhead_us, given)
    return request


class DynamicProgram:
    """A replayable dynamic task program.

    Parameters
    ----------
    name:
        Workload name (non-empty, like a trace's).
    master_factory:
        Zero-argument callable returning a *fresh* master generator.
        Each run (and each elaboration) invokes it again, so a program
        replays deterministically as long as the factory does.
    metadata:
        Free-form generator parameters (depth, seed, fan-out, ...).

    Example
    -------
    >>> from repro.trace.dynamic import (
    ...     Compute, DynamicProgram, Spawn, Taskwait, task_request)
    >>> def child(addr):
    ...     def body():
    ...         yield Compute(5.0)
    ...     return task_request("child", 5.0, outputs=[addr], body=body)
    >>> def master():
    ...     yield Spawn(child(0x1000))
    ...     yield Spawn(child(0x1040))
    ...     yield Taskwait()
    >>> program = DynamicProgram("two-children", master)
    >>> trace = program.elaborate()
    >>> trace.num_tasks, trace.num_barriers
    (2, 1)
    """

    __slots__ = ("name", "metadata", "_master_factory")

    def __init__(
        self,
        name: str,
        master_factory: Callable[[], Generator[DynamicOp, object, None]],
        metadata: Optional[Mapping[str, object]] = None,
    ) -> None:
        if not name:
            raise TraceError("dynamic program name must be non-empty")
        self.name = name
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._master_factory = master_factory

    def master(self) -> Generator[DynamicOp, object, None]:
        """Start a fresh replay of the master thread's program."""
        return self._master_factory()

    # -- serial elaboration -------------------------------------------------
    def iter_events(self) -> Iterator[TraceEvent]:
        """Yield the program's serial (depth-first) elaboration.

        Satisfies the :class:`~repro.trace.stream.TaskStream` protocol:
        every spawned task's body runs to completion immediately, so
        spawns appear in depth-first order, body ``Taskwait`` ops are
        no-ops, and master barriers become ordinary barrier events.
        ``Compute`` / ``Taskwait`` responses are ``0.0`` during
        elaboration (programs must not let times shape their structure).
        """
        counter = _IdCounter()
        yield from _elaborate(self.master(), parent_id=None, counter=counter,
                              master=True, name=self.name)

    def __iter__(self) -> Iterator[TraceEvent]:
        return self.iter_events()

    def elaborate(self, name: Optional[str] = None) -> Trace:
        """Materialise the serial elaboration as a static trace.

        Identical to ``materialize(self)`` (same events, same metadata),
        so digests agree regardless of which bridge a caller used.
        """
        return Trace(name=name or self.name, events=self.iter_events(),
                     metadata=dict(self.metadata))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DynamicProgram {self.name!r}>"


class _IdCounter:
    __slots__ = ("next_id",)

    def __init__(self) -> None:
        self.next_id = 0

    def take(self) -> int:
        value = self.next_id
        self.next_id = value + 1
        return value


def _elaborate(
    gen: Generator[DynamicOp, object, None],
    parent_id: Optional[int],
    counter: _IdCounter,
    master: bool,
    name: str,
) -> Iterator[TraceEvent]:
    """Depth-first elaboration of one generator (master or task body)."""
    # send(None) starts the generator; every later send delivers the
    # response of the op that was just performed.
    response: object = None
    while True:
        try:
            op = gen.send(response)
        except StopIteration:
            return
        if isinstance(op, Spawn):
            task_id = counter.take()
            task = op.request.descriptor(task_id)
            yield SpawnEvent(task, parent_id=parent_id)
            body = op.request.body
            if body is not None:
                yield from _elaborate(body(), parent_id=task_id, counter=counter,
                                      master=False, name=name)
            response = task_id
        elif isinstance(op, Compute):
            response = 0.0
        elif isinstance(op, Taskwait):
            if master:
                yield TaskwaitEvent()
            response = 0.0
        elif isinstance(op, TaskwaitOn):
            if not master:
                raise TraceError(
                    f"{name}: TaskwaitOn is a master-only op (task bodies "
                    "join their children with Taskwait)"
                )
            yield TaskwaitOnEvent(address=op.address)
            response = 0.0
        else:
            raise TraceError(f"{name}: unknown dynamic op {op!r}")


def is_dynamic_program(source: object) -> bool:
    """True when ``source`` is a :class:`DynamicProgram`."""
    return isinstance(source, DynamicProgram)
