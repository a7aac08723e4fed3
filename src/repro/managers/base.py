"""The task-manager interface driven by the machine simulator.

The paper's testbench "simulates the RTS.  It submits new tasks to
Nexus#, receives ready task information from it, schedules ready tasks to
worker cores and simulates their execution, and finally notifies Nexus#
of finished tasks" (Section V-B).  The interface below is exactly that
contract, expressed in simulation time (micro-seconds):

* :meth:`TaskManagerModel.submit` — the master thread hands a task to the
  manager at a given time; the manager returns a plain tuple
  ``(accept_us, ready)``: when the master may continue (back-pressure /
  software cost) and which tasks it has already determined to be ready;
* :meth:`TaskManagerModel.finish` — a worker core reports a finished task;
  the manager returns ``(ready, notify_done_us)`` naming the waiting
  tasks that became ready and when the notification was fully processed.

``ready`` is a tuple of plain ``(task_id, time_us)`` pairs, in the order
the manager reports them.  The managers built on
:class:`~repro.taskgraph.tracker.DependencyTracker` read its flat
``insert_task`` / ``finish_task`` tuples directly: no per-access or
per-task record object travels from the tracker to the manager to the
loop.

All manager models are *passive*: they never call back into the machine;
they only answer these two calls with timestamps, which keeps them easy
to unit-test in isolation.
"""

from __future__ import annotations

import abc
from typing import Mapping, NamedTuple, Tuple

from repro.trace.task import TaskDescriptor

#: ``(task_id, time_us)`` pairs of the tasks a manager reports ready.
Ready = Tuple[Tuple[int, float], ...]


class LaneKernelSpec(NamedTuple):
    """Constant description of a manager for the fast replay kernel.

    The kernel (:func:`repro.sim.batch.run_kernel`) does not call back
    into stateful manager objects per event — it owns flat run state
    instead — so a manager that wants its runs on the kernel must
    describe itself as constants.  Four kernel kinds exist:

    * ``"ideal"`` — zero-overhead dependency resolution (submission and
      retirement cost no simulated time);
    * ``"nanos"`` — the Nanos software-runtime cost model: serial
      master-side task creation plus a single runtime lock whose
      reservations the lane kernel replays arithmetically (exactly
      :meth:`repro.sim.resource.SerialResource.reserve`);
    * ``"nexus++"`` and ``"nexus#"`` — the hardware pipelines.  ``config``
      is the manager's frozen configuration (timing, table geometry and,
      for Nexus#, the number of task graphs) and ``cycle_us`` its clock
      period; the kernel replays every serial reservation of the input
      parser, task-graph ports, arbiter and write-back inline, and keeps
      the set-associative tables' way occupancy on its own per-address
      cursors.

    A spec is hashable: the kernel caches per-trace cost columns by it.
    """

    kind: str
    worker_overhead_us: float = 0.0
    creation_base_us: float = 0.0
    creation_per_param_us: float = 0.0
    insert_lock_us: float = 0.0
    insert_lock_per_param_us: float = 0.0
    finish_lock_us: float = 0.0
    wakeup_per_task_us: float = 0.0
    config: object = None
    cycle_us: float = 0.0


class TaskManagerModel(abc.ABC):
    """Abstract base class of every dependency-resolution scheme."""

    #: Human-readable name used in reports ("Nanos", "Nexus++", "Nexus# 6TG").
    name: str = "abstract"

    #: Whether the manager supports the ``taskwait on`` pragma.  When it
    #: does not (Nexus++), the machine degrades the barrier to a full
    #: ``taskwait``, reproducing the behaviour described in Section III.
    supports_taskwait_on: bool = True

    #: Extra time (µs) a worker core spends per task besides the task body
    #: (software scheduling overhead).  Zero for the hardware managers,
    #: matching the paper's "no communication or other non-dependency
    #: resolution overhead is accounted for".
    worker_overhead_us: float = 0.0

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all state so the same instance can run another trace."""

    @abc.abstractmethod
    def submit(self, task: TaskDescriptor, time_us: float) -> Tuple[float, Ready]:
        """Submit ``task`` at ``time_us``; return ``(accept_us, ready)``.

        ``accept_us`` is when the master thread regains control: the
        IO-unit back-pressure of a hardware manager, plus task creation
        and dependence analysis on the master core for a software one.
        ``ready`` holds the pairs this submission produced (the task
        itself when it has no dependences).
        """

    @abc.abstractmethod
    def finish(self, task_id: int, time_us: float) -> Tuple[Ready, float]:
        """Notify the manager at ``time_us`` that ``task_id`` finished;
        return ``(ready, notify_done_us)``.

        ``ready`` holds the tasks this completion made ready, each with
        the time a free core could start it; ``notify_done_us`` is when
        the notification itself was fully processed (statistics only).
        """

    # -- optional hooks ------------------------------------------------------
    def lane_kernel(self) -> "LaneKernelSpec | None":
        """Constant description for the fast replay kernel, or ``None``.

        Returning a :class:`LaneKernelSpec` declares that this manager's
        behaviour is fully captured by the spec's constants, so
        :meth:`repro.system.machine.Machine.run` replays eligible static
        traces on the kernel in :mod:`repro.sim.batch` instead of calling
        :meth:`submit`/:meth:`finish` per event.  A subclass that
        overrides :meth:`submit`, :meth:`finish` or :meth:`statistics`
        without redeclaring ``lane_kernel`` keeps the general engine.  The
        kernel must be **byte-identical** to the engine's stream replay —
        the golden kernel-vs-scalar suites and the differential tests in
        ``tests/batch/`` pin this.  The default ``None`` routes every run
        through the general engine, which is always correct.
        """
        return None

    def describe(self) -> Mapping[str, object]:
        """Return a serialisable description of the configuration."""
        return {"name": self.name, "supports_taskwait_on": self.supports_taskwait_on}

    def statistics(self) -> Mapping[str, object]:
        """Return manager-internal statistics collected during a run."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
