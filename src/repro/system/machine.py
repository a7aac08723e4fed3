"""The event-driven multicore machine simulator.

The machine reproduces the paper's testbench loop (Section V-B):

    "It submits new tasks to Nexus#, receives ready task information from
    it, schedules ready tasks to worker cores and simulates their
    execution, and finally notifies Nexus# of finished tasks."

The master thread walks the trace: every task submission goes to the
manager (whose ``accept_time`` throttles the submission rate — IO
back-pressure for the hardware managers, software creation cost for
Nanos), every ``taskwait`` blocks until all outstanding tasks finish, and
every ``taskwait on`` blocks until the last writer of the given address
finishes — unless the manager does not support the pragma (Nexus++), in
which case it degrades to a full ``taskwait`` exactly as the paper
describes.

The runtime is layered:

* the event loop pops its own heap of plain tuples (one event per
  master step, ready notification and segment completion, with
  completions processed first at equal timestamps);
* ready-task dispatch is delegated to a pluggable
  :class:`repro.system.scheduling.SchedulerPolicy` (FIFO by default,
  reproducing the paper's "free worker cores start executing tasks
  directly after they are reported as ready");
* worker cores live in a :class:`repro.system.topology.CorePool` built
  from a :class:`~repro.system.topology.CoreTopology`, so heterogeneous
  (e.g. big.LITTLE) machines are one config knob away — a task occupying
  a core of speed ``s`` holds it for ``(overhead + duration) / s``;
* per-task times land in a struct-of-arrays
  :class:`repro.system.timeline.TaskTimeline`.

With the default configuration (FIFO policy, homogeneous unit-speed
topology) the schedule — and therefore every golden-trace makespan — is
bit-identical to the pre-refactor monolithic loop.

One specialised kernel replays static traces, and one general engine
replays streams and dynamic programs; only streams and dynamic programs
reach the engine:

* :meth:`Machine.run` replays a static trace on the kernel in
  :mod:`repro.sim.batch` whenever the manager publishes a lane kernel
  and the policy is a built-in one (any topology, any task ids), and
  otherwise as the stream of its events on the insert-while-running
  engine of :mod:`repro.system.dynamic`;
* :meth:`Machine.run_scalar` is that stream replay of a static trace,
  whatever the manager: the reference the kernel is checked against;
* :meth:`Machine.run_stream` and :meth:`Machine.run_dynamic` replay task
  streams and dynamic programs on the same engine, which holds only
  in-flight tasks — the path for million-task workloads (optionally
  back-pressured via ``max_in_flight``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from repro.common.validation import check_positive_int
from repro.managers.base import TaskManagerModel
from repro.system.dynamic import run_engine
from repro.system.results import MachineResult
from repro.system.scheduling import PolicyLike, SchedulerPolicy, make_policy
from repro.system.topology import CoreTopology, TopologyLike, resolve_topology
from repro.trace.dynamic import DynamicProgram
from repro.trace.events import TraceEvent
from repro.trace.stream import TaskStream, as_stream
from repro.trace.trace import Trace

#: Anything `Machine.run_stream` accepts as a task source.
StreamLike = Union[TaskStream, Trace, Iterable[TraceEvent], DynamicProgram]


@dataclass(frozen=True)
class MachineConfig:
    """Configuration of a machine simulation."""

    #: Number of worker cores executing tasks.
    num_cores: int
    #: When true, the resulting schedule is checked against the reference
    #: dependency DAG (slow for very large traces; used by tests).
    validate: bool = False
    #: When true, per-task schedule times are kept in the result.  When
    #: false the machine skips collecting them entirely (no per-task
    #: timeline is allocated), which saves memory on very large sweeps —
    #: unless ``validate`` forces collection.
    keep_schedule: bool = True
    #: Ready-task dispatch discipline: a policy name ("fifo", "sjf",
    #: "ljf", "locality") or a :class:`SchedulerPolicy` instance.
    scheduler: PolicyLike = "fifo"
    #: Worker-core topology: a spec string ("homogeneous",
    #: "biglittle:0.5", "speeds:1,1,0.5,0.5"), a
    #: :class:`~repro.system.topology.TopologySpec`, or a concrete
    #: :class:`~repro.system.topology.CoreTopology` (must match
    #: ``num_cores``).
    topology: TopologyLike = "homogeneous"

    def __post_init__(self) -> None:
        check_positive_int("num_cores", self.num_cores)


class Machine:
    """Simulates one trace on one manager over a configured core topology."""

    def __init__(self, manager: TaskManagerModel, config: MachineConfig) -> None:
        self.manager = manager
        self.config = config
        self.policy: SchedulerPolicy = make_policy(config.scheduler)
        self.topology: CoreTopology = resolve_topology(config.topology, config.num_cores)
        #: Events dispatched by the most recent :meth:`run` (throughput metric).
        self.last_events_processed = 0
        #: Task ids in the order the most recent engine run (everything
        #: but a kernel run) dispatched their ready notifications,
        #: recorded when that run kept its schedule (``keep_schedule`` or
        #: ``validate``; the differential fuzz suite pins it).  ``()``
        #: after a kernel run or an engine run that kept no schedule.
        self.last_ready_order: Tuple[int, ...] = ()

    # -- public API -------------------------------------------------------------
    def run(self, trace: Union[Trace, DynamicProgram]) -> MachineResult:
        """Replay ``trace`` and return the resulting schedule and metrics.

        A static trace the fast kernel covers (see
        :func:`repro.sim.batch.lane_fallback_reason`: a manager with a
        lane kernel and one of the built-in scheduler policies) replays
        on :func:`repro.sim.batch.run_kernel`; every other trace on the
        general engine, as in :meth:`run_scalar`.  Both produce
        byte-identical results.

        A :class:`~repro.trace.dynamic.DynamicProgram` source runs on the
        insert-while-running engine; see :meth:`run_dynamic`.
        """
        if isinstance(trace, DynamicProgram):
            return self.run_dynamic(trace)
        from repro.sim.batch import lane_fallback_reason, run_kernel

        if lane_fallback_reason(self, trace) is None:
            return run_kernel(self, trace)
        return self.run_scalar(trace)

    def run_scalar(self, trace: Trace) -> MachineResult:
        """Replay ``trace`` as a stream on the general engine, whatever the
        manager.

        This is the general path — every manager, scheduler policy and
        topology — and the reference the kernel is checked against: the
        master submits the trace's events one by one and the manager's
        tracker resolves each task at insert, exactly as for
        :meth:`run_stream` (see :mod:`repro.system.dynamic`).
        """
        return run_engine(self, trace)

    def run_stream(
        self,
        stream: StreamLike,
        *,
        max_in_flight: Optional[int] = None,
    ) -> MachineResult:
        """Replay a task *stream* without materialising the trace.

        The streaming counterpart of :meth:`run`: the master thread pulls
        events one at a time from ``stream`` (a
        :class:`~repro.trace.stream.TaskStream`, a materialised
        :class:`~repro.trace.trace.Trace`, or a bare event iterable) on
        the engine of :mod:`repro.system.dynamic`, so a million-task
        trace is simulated without ever holding its task list in memory.
        Each submitted task keeps its own descriptor and id; an id may
        be reused once its task has finished.  The tracker resolves each
        task at insert, and the schedule, manager statistics and event
        count are **bit-identical** to ``run(materialize(stream))``
        (pinned by ``tests/golden/test_stream_equivalence.py``); a
        materialised trace replays exactly as in :meth:`run_scalar`.

        Memory-boundedness: with ``keep_schedule=False`` the machine's
        live state is O(in-flight tasks + live addresses), never O(total
        tasks).  In-flight count is workload-driven (barriers and
        dependency chains bound it naturally); ``max_in_flight`` adds
        explicit back-pressure — the master stalls once that many
        submitted tasks are outstanding and resumes as completions drain
        — which bounds RSS even for pathological fully-independent
        streams.  Note that a stall changes submission timing, so
        ``max_in_flight`` runs are only comparable to other runs with the
        same cap.

        ``keep_schedule=True`` collects per-task times (O(total tasks) —
        fine for tests, wrong for million-task runs), and
        ``validate=True`` additionally records the submissions to check
        the schedule against the reference DAG.

        A :class:`~repro.trace.dynamic.DynamicProgram` source runs as in
        :meth:`run_dynamic` (``max_in_flight`` back-pressures the
        master's spawns).
        """
        if isinstance(stream, DynamicProgram):
            return self.run_dynamic(stream, max_in_flight=max_in_flight)
        return run_engine(self, as_stream(stream), max_in_flight=max_in_flight)

    def run_dynamic(
        self,
        program: DynamicProgram,
        *,
        max_in_flight: Optional[int] = None,
    ) -> MachineResult:
        """Replay a dynamic task program (spawns and taskwaits at runtime).

        Tasks may be created by the master thread *and* by running tasks,
        so nothing about the task set is known at t=0; the engine lives
        in :mod:`repro.system.dynamic` (semantics documented there).
        Repeated runs of a deterministic program are byte-identical —
        pinned by the fuzz corpus in ``tests/fuzz/``.
        """
        return run_engine(self, program, max_in_flight=max_in_flight)


def simulate(
    trace: Trace,
    manager: TaskManagerModel,
    num_cores: int,
    *,
    validate: bool = False,
    keep_schedule: bool = True,
    scheduler: PolicyLike = "fifo",
    topology: TopologyLike = "homogeneous",
) -> MachineResult:
    """Convenience wrapper: run ``trace`` on ``manager`` with ``num_cores``.

    >>> from repro.managers.ideal import IdealManager
    >>> from repro.trace.trace import TraceBuilder
    >>> builder = TraceBuilder("two-independent")
    >>> _ = builder.add_task("a", duration_us=10.0, outputs=[0x1000])
    >>> _ = builder.add_task("b", duration_us=10.0, outputs=[0x1040])
    >>> builder.add_taskwait()
    >>> result = simulate(builder.build(), IdealManager(), num_cores=2)
    >>> result.makespan_us
    10.0
    >>> result.num_tasks
    2
    """
    machine = Machine(
        manager,
        MachineConfig(
            num_cores=num_cores,
            validate=validate,
            keep_schedule=keep_schedule,
            scheduler=scheduler,
            topology=topology,
        ),
    )
    return machine.run(trace)


def simulate_stream(
    stream: StreamLike,
    manager: TaskManagerModel,
    num_cores: int,
    *,
    validate: bool = False,
    keep_schedule: bool = False,
    scheduler: PolicyLike = "fifo",
    topology: TopologyLike = "homogeneous",
    max_in_flight: Optional[int] = None,
) -> MachineResult:
    """Convenience wrapper around :meth:`Machine.run_stream`.

    Unlike :func:`simulate`, ``keep_schedule`` defaults to **False**:
    collecting per-task times is O(total tasks), which defeats the point
    of streaming million-task traces.
    """
    machine = Machine(
        manager,
        MachineConfig(
            num_cores=num_cores,
            validate=validate,
            keep_schedule=keep_schedule,
            scheduler=scheduler,
            topology=topology,
        ),
    )
    return machine.run_stream(stream, max_in_flight=max_in_flight)


def simulate_dynamic(
    program: DynamicProgram,
    manager: TaskManagerModel,
    num_cores: int,
    *,
    validate: bool = False,
    keep_schedule: bool = True,
    scheduler: PolicyLike = "fifo",
    topology: TopologyLike = "homogeneous",
    max_in_flight: Optional[int] = None,
) -> MachineResult:
    """Convenience wrapper around :meth:`Machine.run_dynamic`.

    >>> from repro.managers.ideal import IdealManager
    >>> from repro.trace.dynamic import Compute, DynamicProgram, Spawn, Taskwait, task_request
    >>> def child(addr):
    ...     return task_request("leaf", 10.0, outputs=[addr])
    >>> def master():
    ...     _ = yield Spawn(child(0x1000))
    ...     _ = yield Spawn(child(0x1040))
    ...     yield Taskwait()
    >>> result = simulate_dynamic(DynamicProgram("pair", master), IdealManager(), num_cores=2)
    >>> result.makespan_us
    10.0
    >>> result.num_tasks
    2
    """
    machine = Machine(
        manager,
        MachineConfig(
            num_cores=num_cores,
            validate=validate,
            keep_schedule=keep_schedule,
            scheduler=scheduler,
            topology=topology,
        ),
    )
    return machine.run_dynamic(program, max_in_flight=max_in_flight)
