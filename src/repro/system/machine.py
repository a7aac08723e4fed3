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

* the event loop runs on the shared :class:`repro.sim.engine.Simulator`
  kernel (one event per submission step, ready notification and task
  completion, with completions processed first at equal timestamps);
* ready-task dispatch is delegated to a pluggable
  :class:`repro.system.scheduling.SchedulerPolicy` (FIFO by default,
  reproducing the paper's "free worker cores start executing tasks
  directly after they are reported as ready");
* worker cores live in a :class:`repro.system.topology.CorePool` built
  from a :class:`~repro.system.topology.CoreTopology`, so heterogeneous
  (e.g. big.LITTLE) machines are one config knob away — a task occupying
  a core of speed ``s`` holds it for ``(overhead + duration) / s``;
* per-task times land in a struct-of-arrays
  :class:`repro.system.timeline.TaskTimeline` (preallocated, indexed by
  task id), and each trace is compiled once into flat op/operand arrays
  that are cached on the trace object, so replaying the same trace across
  managers, core counts and policies skips all per-event type dispatch.

With the default configuration (FIFO policy, homogeneous unit-speed
topology) the schedule — and therefore every golden-trace makespan — is
bit-identical to the pre-refactor monolithic loop.

Two replay engines share the layers above, picked by the input type:

* :meth:`Machine.run` compiles a materialised trace into flat op arrays
  (cached on the trace) — the fastest path when the trace fits in RAM.
  It hands the runs it can to the specialized kernel in
  :mod:`repro.sim.batch` (constant-foldable managers under FIFO dispatch
  on unit-speed cores) and replays the rest on the scalar loop of
  :meth:`Machine.run_scalar`;
* :meth:`Machine.run_stream` and :meth:`Machine.run_dynamic` replay task
  streams and dynamic programs on the insert-while-running engine in
  :mod:`repro.system.dynamic`, which holds only in-flight tasks — the
  path for million-task workloads (optionally back-pressured via
  ``max_in_flight``).  Default-configuration schedules are bit-identical
  between the two engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.common.errors import SimulationError
from repro.common.validation import check_positive_int
from repro.managers.base import TaskManagerModel
from repro.sim.engine import Simulator
from repro.system.dynamic import run_engine
from repro.system.results import MachineResult
from repro.system.scheduling import PolicyLike, SchedulerPolicy, make_policy
from repro.system.timeline import TaskTimeline
from repro.system.topology import CorePool, CoreTopology, TopologyLike, resolve_topology
from repro.trace.dag import validate_schedule
from repro.trace.dynamic import DynamicProgram
from repro.trace.events import TaskSubmitEvent, TaskwaitEvent, TaskwaitOnEvent, TraceEvent
from repro.trace.stream import TaskStream, as_stream
from repro.trace.task import TaskDescriptor
from repro.trace.trace import Trace

#: Anything `Machine.run_stream` accepts as a task source.
StreamLike = Union[TaskStream, Trace, Iterable[TraceEvent], DynamicProgram]

# Event kinds, ordered by processing priority at equal timestamps: task
# completions first (they free cores and resolve barriers), then ready
# notifications, then master progress.
_PRIORITY_DONE = 0
_PRIORITY_READY = 1
_PRIORITY_MASTER = 2

_KIND_DONE = "task-done"
_KIND_READY = "task-ready"
_KIND_MASTER = "master-step"

# Compiled trace op codes.
_OP_SUBMIT = 0
_OP_WAIT = 1
_OP_WAIT_ON = 2

#: Attribute name under which a trace caches its compiled form.
_COMPILED_ATTR = "_compiled_machine_program"


class _CompiledTrace:
    """Flat, type-dispatch-free representation of a trace's event list.

    One entry per trace event: an op code plus preresolved operands (the
    descriptor, the precomputed written-address tuple, the ``taskwait
    on`` address).  Compiling once per trace removes the per-event
    ``isinstance`` chain and the per-parameter direction checks from the
    master loop; the compiled form is cached on the trace object, so
    sweeps replaying one trace across many grid cells compile it once.
    """

    __slots__ = ("ops", "tasks", "write_addrs", "wait_addrs", "num_tasks",
                 "task_ids", "slot_of", "task_by_slot")

    def __init__(self, trace: Trace) -> None:
        events = trace.events
        count = len(events)
        self.ops: List[int] = [0] * count
        self.tasks: List[Optional[TaskDescriptor]] = [None] * count
        self.write_addrs: List[Tuple[int, ...]] = [()] * count
        self.wait_addrs: List[int] = [0] * count
        task_ids: List[int] = []
        task_by_slot: List[TaskDescriptor] = []
        for index, event in enumerate(events):
            if isinstance(event, TaskSubmitEvent):
                task = event.task
                self.ops[index] = _OP_SUBMIT
                self.tasks[index] = task
                self.write_addrs[index] = task.output_addresses
                task_ids.append(task.task_id)
                task_by_slot.append(task)
            elif isinstance(event, TaskwaitEvent):
                self.ops[index] = _OP_WAIT
            elif isinstance(event, TaskwaitOnEvent):
                self.ops[index] = _OP_WAIT_ON
                self.wait_addrs[index] = event.address
            else:
                raise SimulationError(f"unknown trace event {event!r}")
        self.num_tasks = len(task_ids)
        self.task_ids = task_ids
        self.task_by_slot = task_by_slot
        # Dense ids (TraceBuilder's invariant) index arrays directly;
        # sparse ids (hand-extended traces) go through an explicit map.
        if task_ids == list(range(len(task_ids))):
            self.slot_of: Optional[Dict[int, int]] = None
        else:
            self.slot_of = {task_id: slot for slot, task_id in enumerate(task_ids)}


def _compile_trace(trace: Trace) -> _CompiledTrace:
    """Return the cached compiled form of ``trace`` (compile on first use)."""
    compiled = trace.__dict__.get(_COMPILED_ATTR)
    if compiled is None:
        compiled = _CompiledTrace(trace)
        # Trace is a frozen dataclass; the cache is invisible to equality,
        # hashing and (via Trace.__getstate__) pickling.
        object.__setattr__(trace, _COMPILED_ATTR, compiled)
    return compiled


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
    #: Dynamic runs only: when true, a task suspended in a task-level
    #: ``taskwait`` keeps its core blocked until its children drain
    #: (naive tied-task semantics; deadlocks when the spawn tree is
    #: deeper than the core count).  The default releases the core at
    #: the scheduling point, like the OmpSs runtime.
    taskwait_holds_core: bool = False

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
        #: Task ids in the order the most recent :meth:`run_stream` or
        #: :meth:`run_dynamic` run dispatched their ready notifications,
        #: recorded when that run kept its schedule (``keep_schedule`` or
        #: ``validate``; the differential fuzz suite pins it).  ``()``
        #: after any other run, static replays included.
        self.last_ready_order: Tuple[int, ...] = ()

    # -- public API -------------------------------------------------------------
    def run(self, trace: Union[Trace, DynamicProgram]) -> MachineResult:
        """Replay ``trace`` and return the resulting schedule and metrics.

        A static trace the fast kernel covers (see
        :func:`repro.sim.batch.lane_fallback_reason`: a manager with a
        lane kernel, plain FIFO dispatch, unit-speed cores, dense task
        ids) replays on :func:`repro.sim.batch.run_kernel`; every other
        trace on the scalar loop of :meth:`run_scalar`.  Both produce
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
        """Replay ``trace`` on the scalar event loop, whatever the manager.

        This is the general path — every manager, scheduler policy and
        topology — and the reference the kernel is checked against.
        """
        try:
            return self._run_trace(trace)
        except BaseException:
            self._abandon()
            raise

    def _abandon(self) -> None:
        """Clear per-run manager bindings after a failed replay.

        Without this, a run that raises mid-flight leaves the manager's
        dependency tracker bound to the trace's shared
        ``Trace.access_program()`` cache with tasks still in flight —
        poisoning later direct use of the manager (``bind_program``
        refuses to rebind) in the same process.
        """
        try:
            self.manager.abandon_run()
        except Exception:
            # The original exception is what the caller needs to see.
            pass

    def _run_trace(self, trace: Trace) -> MachineResult:
        manager = self.manager
        manager.reset()
        # Hand the manager the trace's compiled access program so its
        # dependency tracker can run over preresolved int arrays (managers
        # without a tracker ignore this).
        manager.prepare_trace(trace)
        policy = self.policy
        policy.reset()
        pool = CorePool(self.topology)
        compiled = _compile_trace(trace)

        sim = Simulator()
        queue = sim.queue
        push = queue.push

        # --- state -------------------------------------------------------------
        ops = compiled.ops
        op_tasks = compiled.tasks
        op_write_addrs = compiled.write_addrs
        op_wait_addrs = compiled.wait_addrs
        num_events = len(ops)
        num_tasks = compiled.num_tasks
        slot_of = compiled.slot_of
        task_by_slot = compiled.task_by_slot

        event_index = 0
        master_time = 0.0
        master_blocked: Optional[Tuple[str, Optional[int]]] = None
        master_done = False
        outstanding = 0

        last_writer: Dict[int, int] = {}
        dispatched = bytearray(num_tasks)
        finished = bytearray(num_tasks)
        finished_count = 0
        core_busy_us = 0.0

        collect = self.config.keep_schedule or self.config.validate
        timeline = TaskTimeline(
            num_tasks,
            task_ids=None if slot_of is None else compiled.task_ids,
        ) if collect else None
        if timeline is not None:
            submit_arr = timeline.submit
            ready_arr = timeline.ready
            start_arr = timeline.start
            finish_arr = timeline.finish
            core_arr = timeline.core

        worker_overhead = manager.worker_overhead_us
        supports_taskwait_on = manager.supports_taskwait_on
        speeds = pool.speeds
        busy_us = pool.busy_us
        acquire = pool.acquire
        release = pool.release
        idle_ranks = pool.idle_ranks  # read-only emptiness view (hot path)
        wants_start_events = policy.wants_start_events
        enqueue = policy.enqueue
        select = policy.select
        policy_pending = policy.__len__
        manager_submit = manager.submit
        manager_finish = manager.finish

        # --- helpers -------------------------------------------------------------
        def start_task(task_id: int, slot: int, now: float) -> None:
            nonlocal core_busy_us
            task = task_by_slot[slot]
            core = acquire()
            nominal = worker_overhead + task.duration_us
            speed = speeds[core]
            duration = nominal if speed == 1.0 else nominal / speed
            end = now + duration
            core_busy_us += duration
            busy_us[core] += duration
            if collect:
                start_arr[slot] = now
                finish_arr[slot] = end
                core_arr[slot] = core
            if wants_start_events:
                policy.on_start(task_id, task, core, now)
            push(end, _KIND_DONE, (task_id, slot, core), _PRIORITY_DONE)

        def barrier_satisfied(now: float) -> bool:
            """Check (and clear) the master's barrier if it is resolved."""
            nonlocal master_blocked, master_time
            if master_blocked is None:
                return False
            kind, waited_task = master_blocked
            if kind == "all":
                if outstanding != 0:
                    return False
            else:
                assert waited_task is not None
                waited_slot = waited_task if slot_of is None else slot_of[waited_task]
                if not finished[waited_slot]:
                    return False
            master_blocked = None
            if now > master_time:
                master_time = now
            return True

        def advance_master(now: float) -> None:
            """Process trace events until a submission, a block, or the end."""
            nonlocal event_index, master_time, master_blocked, master_done, outstanding
            if now > master_time:
                master_time = now
            while event_index < num_events:
                op = ops[event_index]
                if op == _OP_SUBMIT:
                    task = op_tasks[event_index]
                    task_id = task.task_id
                    slot = task_id if slot_of is None else slot_of[task_id]
                    outstanding += 1
                    if collect:
                        submit_arr[slot] = master_time
                    for address in op_write_addrs[event_index]:
                        last_writer[address] = task_id
                    event_index += 1
                    accept_time, ready = manager_submit(task, master_time)
                    for ready_id, ready_time in ready:
                        if collect:
                            ready_arr[ready_id if slot_of is None else slot_of[ready_id]] = ready_time
                        push(ready_time if ready_time > master_time else master_time,
                             _KIND_READY, ready_id, _PRIORITY_READY)
                    next_time = master_time + task.creation_overhead_us
                    if accept_time > next_time:
                        next_time = accept_time
                    if next_time < master_time:
                        raise SimulationError(
                            f"manager {manager.name} accepted task {task_id} in the past"
                        )
                    master_time = next_time
                    if event_index >= num_events:
                        master_done = True
                        return
                    pending = queue.next_time
                    if pending is not None and pending <= master_time:
                        push(master_time, _KIND_MASTER, None, _PRIORITY_MASTER)
                        return
                    # No pending event sorts before the next master step
                    # (equal-time completions/readies outrank the master's
                    # priority, so they only exist when the head is <=
                    # master_time): keep submitting inline instead of
                    # bouncing through the event queue.  Event order — and
                    # therefore the schedule — is provably unchanged.
                    continue
                if op == _OP_WAIT:
                    if outstanding == 0:
                        event_index += 1
                        continue
                    master_blocked = ("all", None)
                    return
                # op == _OP_WAIT_ON
                if not supports_taskwait_on:
                    # Nexus++-style degradation to a full taskwait
                    # (Section III of the paper).
                    if outstanding == 0:
                        event_index += 1
                        continue
                    master_blocked = ("all", None)
                    return
                writer = last_writer.get(op_wait_addrs[event_index])
                if writer is None or finished[writer if slot_of is None else slot_of[writer]]:
                    event_index += 1
                    continue
                master_blocked = ("task", writer)
                return
            master_done = True

        # --- event handlers ------------------------------------------------------
        def on_master(sim: Simulator, event) -> None:
            if master_blocked is None and not master_done:
                advance_master(event[0])

        def on_ready(sim: Simulator, event) -> None:
            task_id = event[4]
            slot = task_id if slot_of is None else slot_of[task_id]
            if dispatched[slot]:
                raise SimulationError(f"task {task_id} reported ready twice")
            dispatched[slot] = 1
            now = event[0]
            if idle_ranks:
                start_task(task_id, slot, now)
            else:
                enqueue(task_id, task_by_slot[slot], now)

        def on_done(sim: Simulator, event) -> None:
            nonlocal outstanding, finished_count
            task_id, slot, core = event[4]
            now = event[0]
            outstanding -= 1
            finished[slot] = 1
            finished_count += 1
            for ready_id, ready_time in manager_finish(task_id, now)[0]:
                if collect:
                    ready_arr[ready_id if slot_of is None else slot_of[ready_id]] = ready_time
                push(ready_time if ready_time > now else now,
                     _KIND_READY, ready_id, _PRIORITY_READY)
            # The freed core picks up the next queued ready task, if any.
            release(core)
            if policy_pending():
                next_task = select(core, now)
                if next_task is not None:
                    next_slot = next_task if slot_of is None else slot_of[next_task]
                    start_task(next_task, next_slot, now)
            # Barriers resolve on completions (cheap inline guard: the
            # master is usually not blocked).
            if master_blocked is not None and barrier_satisfied(now) and not master_done:
                push(master_time, _KIND_MASTER, None, _PRIORITY_MASTER)

        sim.on(_KIND_MASTER, on_master)
        sim.on(_KIND_READY, on_ready)
        sim.on(_KIND_DONE, on_done)

        # --- main loop ------------------------------------------------------------
        advance_master(0.0)
        sim.run()
        self.last_events_processed = sim.processed_events
        self.last_ready_order = ()
        makespan = sim.now if sim.now > master_time else master_time

        # --- consistency checks -----------------------------------------------------
        if finished_count != num_tasks:
            missing = num_tasks - finished_count
            raise SimulationError(
                f"{manager.name} on {trace.name}: {missing} of {num_tasks} tasks never ran "
                "(deadlock or lost ready notification)"
            )
        if not master_done or master_blocked is not None:
            raise SimulationError(
                f"{manager.name} on {trace.name}: master thread did not reach the end of the trace"
            )

        if self.config.validate:
            assert timeline is not None
            validate_schedule(trace, timeline.start_dict(), timeline.finish_dict())

        keep = self.config.keep_schedule and timeline is not None
        return MachineResult(
            trace_name=trace.name,
            manager_name=manager.name,
            num_cores=self.config.num_cores,
            makespan_us=makespan,
            total_work_us=trace.total_work_us,
            num_tasks=num_tasks,
            submit_times=timeline.submit_dict() if keep else {},
            ready_times=timeline.ready_dict() if keep else {},
            start_times=timeline.start_dict() if keep else {},
            finish_times=timeline.finish_dict() if keep else {},
            master_finish_us=master_time,
            core_busy_us=core_busy_us,
            manager_stats=dict(manager.statistics()),
            scheduler=policy.name,
            topology=self.topology.describe(),
            per_core_busy_us=tuple(pool.busy_us),
            task_cores=timeline.core_dict() if keep else {},
        )

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
        be reused once its task has finished.  With default settings the
        schedule, manager statistics and event count are **bit-identical**
        to ``run_scalar(materialize(stream))`` (pinned by
        ``tests/golden/test_stream_equivalence.py``).

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
        try:
            return run_engine(self, as_stream(stream), max_in_flight=max_in_flight)
        except BaseException:
            self._abandon()
            raise

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
        try:
            return run_engine(self, program, max_in_flight=max_in_flight)
        except BaseException:
            self._abandon()
            raise


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
    taskwait_holds_core: bool = False,
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
            taskwait_holds_core=taskwait_holds_core,
        ),
    )
    return machine.run_dynamic(program, max_in_flight=max_in_flight)
