"""Trace events: the master-thread program replayed by the testbench.

A trace is not just a bag of tasks — the order in which the master thread
submits them and the barriers it executes in between shape the available
parallelism.  Three event kinds exist, mirroring the OmpSs pragmas the
paper supports (Section VII: ``in``, ``out``, ``inout``, ``taskwait``,
``taskwait on``):

* :class:`TaskSubmitEvent` — the master submits one task.
* :class:`SpawnEvent` — a *task* submits one task (dynamic nested
  parallelism).  It subclasses :class:`TaskSubmitEvent`, so every
  consumer that replays submissions statically (the machine's compiled
  trace, the DAG analysis, serialization) treats a recorded spawn as a
  plain submission; the extra ``parent_id`` keeps the provenance.
* :class:`TaskwaitEvent` — the master blocks until *all* previously
  submitted tasks have finished.
* :class:`TaskwaitOnEvent` — the master blocks until the data behind one
  specific address is available, i.e. until the last previously submitted
  writer of that address has finished.  Nexus++ does not support this
  pragma and has to fall back to a full ``taskwait`` (Section III), which
  is what costs it the h264dec scalability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.trace.task import TaskDescriptor, check_address


@dataclass(frozen=True)
class TaskSubmitEvent:
    """The master thread submits ``task`` to the task manager."""

    task: TaskDescriptor

    @property
    def kind(self) -> str:
        return "submit"


@dataclass(frozen=True)
class SpawnEvent(TaskSubmitEvent):
    """A running task (``parent_id``) submits ``task`` to the manager.

    Produced by dynamic runs and by the serial elaboration of a
    :class:`~repro.trace.dynamic.DynamicProgram`.  ``parent_id`` is
    ``None`` when the master thread itself performed the submission.
    Because this is a :class:`TaskSubmitEvent`, a trace containing
    recorded spawns replays through the static machine unchanged.
    """

    parent_id: Optional[int] = None

    @property
    def kind(self) -> str:
        return "spawn"


@dataclass(frozen=True)
class TaskwaitEvent:
    """The master thread waits for all previously submitted tasks."""

    @property
    def kind(self) -> str:
        return "taskwait"


@dataclass(frozen=True)
class TaskwaitOnEvent:
    """The master thread waits for the last writer of ``address``.

    If no previously submitted task writes ``address`` the barrier is a
    no-op, matching OmpSs semantics.
    """

    address: int

    def __post_init__(self) -> None:
        check_address(self.address, "taskwait on address")

    @property
    def kind(self) -> str:
        return "taskwait_on"


TraceEvent = Union[TaskSubmitEvent, TaskwaitEvent, TaskwaitOnEvent]
