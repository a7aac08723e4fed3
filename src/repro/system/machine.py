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

Two replay paths share the layers above:

* :meth:`Machine.run` compiles a materialised trace into flat op arrays
  (cached on the trace) — the fastest path when the trace fits in RAM.
  It hands the runs it can to the specialized kernel in
  :mod:`repro.sim.batch` (constant-foldable managers under FIFO dispatch
  on unit-speed cores) and replays the rest on the scalar loop of
  :meth:`Machine.run_scalar`;
* :meth:`Machine.run_stream` pulls events incrementally from any
  :class:`~repro.trace.stream.TaskStream` through a windowed lookahead
  buffer, keeping live state bounded by the in-flight window — the path
  for million-task workloads (optionally back-pressured via
  ``max_in_flight``).  Default-configuration schedules are bit-identical
  between the two paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.common.errors import SimulationError
from repro.common.validation import check_positive
from repro.managers.base import TaskManagerModel
from repro.sim.engine import Simulator
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

#: Default number of trace events buffered ahead of the master thread in
#: streaming mode (amortises chunked-file decode; see `run_stream`).
DEFAULT_LOOKAHEAD_EVENTS = 1024

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
        check_positive("num_cores", self.num_cores)


class Machine:
    """Simulates one trace on one manager over a configured core topology."""

    def __init__(self, manager: TaskManagerModel, config: MachineConfig) -> None:
        self.manager = manager
        self.config = config
        self.policy: SchedulerPolicy = make_policy(config.scheduler)
        self.topology: CoreTopology = resolve_topology(config.topology, config.num_cores)
        #: Events dispatched by the most recent :meth:`run` (throughput metric).
        self.last_events_processed = 0
        #: Task ids in the order the most recent *dynamic* run dispatched
        #: their ready notifications (the differential fuzz suite pins
        #: this between the two tracking paths); ``()`` after static runs.
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
        dynamic engine with the **compiled** tracking path (a growable
        access program bound to the manager); see :meth:`run_dynamic`.
        """
        if isinstance(trace, DynamicProgram):
            return self.run_dynamic(trace, compiled=True)
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
                    outcome = manager_submit(task, master_time)
                    for notification in outcome.ready:
                        ready_id = notification.task_id
                        ready_time = notification.time_us
                        if collect:
                            ready_arr[ready_id if slot_of is None else slot_of[ready_id]] = ready_time
                        push(ready_time if ready_time > master_time else master_time,
                             _KIND_READY, ready_id, _PRIORITY_READY)
                    next_time = master_time + task.creation_overhead_us
                    if outcome.accept_time_us > next_time:
                        next_time = outcome.accept_time_us
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
            outcome = manager_finish(task_id, now)
            for notification in outcome.ready:
                ready_id = notification.task_id
                ready_time = notification.time_us
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
        lookahead: int = DEFAULT_LOOKAHEAD_EVENTS,
    ) -> MachineResult:
        """Replay a task *stream* without materialising the trace.

        The streaming counterpart of :meth:`run`: the master thread pulls
        events incrementally from ``stream`` (a
        :class:`~repro.trace.stream.TaskStream`, a materialised
        :class:`~repro.trace.trace.Trace`, or a bare event iterable)
        through a windowed ``lookahead`` buffer, so a million-task trace
        is simulated without ever holding its task list in memory.
        Scheduler policies see exactly the same queued-ready-task picture
        as in :meth:`run` — dispatch is driven by manager ready
        notifications, which are unaffected by how the master sources its
        events — and with default settings the schedule, and therefore
        the makespan, is **bit-identical** to ``run(materialize(stream))``
        (pinned by ``tests/golden/test_stream_equivalence.py``).

        Memory-boundedness: with ``keep_schedule=False`` the machine's
        live state is O(in-flight tasks + lookahead), never O(total
        tasks).  In-flight count is workload-driven (barriers and
        dependency chains bound it naturally); ``max_in_flight`` adds
        explicit back-pressure — the master stalls once that many
        submitted tasks are outstanding and resumes as completions drain
        — which bounds RSS even for pathological fully-independent
        streams.  Note that a stall changes submission timing, so
        ``max_in_flight`` runs are only comparable to other runs with the
        same cap.

        ``keep_schedule=True`` collects per-task times into dicts (O(total
        tasks) — fine for tests, wrong for million-task runs), and
        ``validate=True`` additionally records the events to check the
        schedule against the reference DAG.

        .. note:: This loop deliberately mirrors :meth:`run` (which keeps
           its compiled-array hot path) with dict-backed state; any
           behavioural change to one loop must be applied to both, and is
           guarded by the golden equivalence tests plus the
           scheduler/topology parity matrix in
           ``tests/system/test_run_stream.py``.

        A :class:`~repro.trace.dynamic.DynamicProgram` source runs on the
        dynamic engine with the **dynamic** (access-by-access) tracking
        path — the streaming counterpart of :meth:`run`'s compiled
        dispatch; both paths are byte-identical on deterministic
        programs (``lookahead`` does not apply, ``max_in_flight``
        back-pressures the master's spawns).
        """
        if isinstance(stream, DynamicProgram):
            return self.run_dynamic(stream, compiled=False, max_in_flight=max_in_flight)
        try:
            return self._run_stream(stream, max_in_flight=max_in_flight, lookahead=lookahead)
        except BaseException:
            self._abandon()
            raise

    def _run_stream(
        self,
        stream: StreamLike,
        *,
        max_in_flight: Optional[int],
        lookahead: int,
    ) -> MachineResult:
        if max_in_flight is not None and max_in_flight <= 0:
            raise SimulationError(f"max_in_flight must be positive, got {max_in_flight}")
        if lookahead <= 0:
            raise SimulationError(f"lookahead must be positive, got {lookahead}")
        stream = as_stream(stream)
        manager = self.manager
        manager.reset()
        policy = self.policy
        policy.reset()
        pool = CorePool(self.topology)

        sim = Simulator()
        queue = sim.queue
        push = queue.push

        # --- event source ------------------------------------------------------
        source = stream.iter_events()
        buffer: deque = deque()
        source_done = False

        def refill() -> bool:
            """Top the lookahead buffer up; False when the source is dry."""
            nonlocal source_done
            if not source_done:
                take = lookahead - len(buffer)
                for event in source:
                    buffer.append(event)
                    take -= 1
                    if take <= 0:
                        break
                else:
                    source_done = True
            return bool(buffer)

        # --- state -------------------------------------------------------------
        master_time = 0.0
        master_blocked: Optional[Tuple[str, Optional[int]]] = None
        master_done = False
        outstanding = 0
        num_tasks = 0
        total_work_us = 0.0
        finished_count = 0
        core_busy_us = 0.0

        # Per-task state lives in dicts/sets bounded by the in-flight
        # window: every entry is removed when its task finishes.
        task_of: Dict[int, TaskDescriptor] = {}
        unfinished: set = set()
        dispatched: set = set()
        writes_of: Dict[int, Tuple[int, ...]] = {}
        last_writer: Dict[int, int] = {}

        validate = self.config.validate
        collect = self.config.keep_schedule or validate
        submit_times: Dict[int, float] = {}
        ready_times: Dict[int, float] = {}
        start_times: Dict[int, float] = {}
        finish_times: Dict[int, float] = {}
        task_cores: Dict[int, int] = {}
        recorded_events: List[TraceEvent] = []  # only fed when validate

        worker_overhead = manager.worker_overhead_us
        supports_taskwait_on = manager.supports_taskwait_on
        speeds = pool.speeds
        busy_us = pool.busy_us
        acquire = pool.acquire
        release = pool.release
        idle_ranks = pool.idle_ranks
        wants_start_events = policy.wants_start_events
        enqueue = policy.enqueue
        select = policy.select
        policy_pending = policy.__len__
        manager_submit = manager.submit
        manager_finish = manager.finish

        # --- helpers -------------------------------------------------------------
        def start_task(task_id: int, now: float) -> None:
            nonlocal core_busy_us
            task = task_of[task_id]
            core = acquire()
            nominal = worker_overhead + task.duration_us
            speed = speeds[core]
            duration = nominal if speed == 1.0 else nominal / speed
            end = now + duration
            core_busy_us += duration
            busy_us[core] += duration
            if collect:
                start_times[task_id] = now
                finish_times[task_id] = end
                task_cores[task_id] = core
            if wants_start_events:
                policy.on_start(task_id, task, core, now)
            push(end, _KIND_DONE, (task_id, core), _PRIORITY_DONE)

        def barrier_satisfied(now: float) -> bool:
            """Check (and clear) the master's barrier if it is resolved."""
            nonlocal master_blocked, master_time
            if master_blocked is None:
                return False
            kind, waited_task = master_blocked
            if kind == "all":
                if outstanding != 0:
                    return False
            elif kind == "task":
                if waited_task in unfinished:
                    return False
            else:  # kind == "window": back-pressure stall
                assert max_in_flight is not None
                if outstanding >= max_in_flight:
                    return False
            master_blocked = None
            if now > master_time:
                master_time = now
            return True

        def advance_master(now: float) -> None:
            """Consume stream events until a submission, a block, or the end."""
            nonlocal master_time, master_blocked, master_done, outstanding
            nonlocal num_tasks, total_work_us
            if now > master_time:
                master_time = now
            while True:
                if max_in_flight is not None and outstanding >= max_in_flight:
                    master_blocked = ("window", None)
                    return
                if not buffer and not refill():
                    master_done = True
                    return
                event = buffer.popleft()
                if validate:
                    recorded_events.append(event)
                if isinstance(event, TaskSubmitEvent):
                    task = event.task
                    task_id = task.task_id
                    if task_id in unfinished:
                        raise SimulationError(
                            f"task id {task_id} submitted while still in flight "
                            f"in stream {stream.name!r}"
                        )
                    outstanding += 1
                    num_tasks += 1
                    total_work_us += task.duration_us
                    unfinished.add(task_id)
                    task_of[task_id] = task
                    if collect:
                        submit_times[task_id] = master_time
                    write_addrs = task.output_addresses
                    if write_addrs:
                        writes_of[task_id] = write_addrs
                        for address in write_addrs:
                            last_writer[address] = task_id
                    outcome = manager_submit(task, master_time)
                    for notification in outcome.ready:
                        ready_id = notification.task_id
                        ready_time = notification.time_us
                        if collect:
                            ready_times[ready_id] = ready_time
                        push(ready_time if ready_time > master_time else master_time,
                             _KIND_READY, ready_id, _PRIORITY_READY)
                    next_time = master_time + task.creation_overhead_us
                    if outcome.accept_time_us > next_time:
                        next_time = outcome.accept_time_us
                    if next_time < master_time:
                        raise SimulationError(
                            f"manager {manager.name} accepted task {task_id} in the past"
                        )
                    master_time = next_time
                    if not buffer and not refill():
                        master_done = True
                        return
                    pending = queue.next_time
                    if pending is not None and pending <= master_time:
                        push(master_time, _KIND_MASTER, None, _PRIORITY_MASTER)
                        return
                    # Same inline-submission fast path as `run` (see the
                    # comment there): event order is provably unchanged.
                    continue
                if isinstance(event, TaskwaitEvent) or (
                    isinstance(event, TaskwaitOnEvent) and not supports_taskwait_on
                ):
                    # Nexus++-style degradation of `taskwait on` to a full
                    # taskwait (Section III of the paper).
                    if outstanding == 0:
                        continue
                    master_blocked = ("all", None)
                    return
                if not isinstance(event, TaskwaitOnEvent):
                    raise SimulationError(f"unknown trace event {event!r}")
                writer = last_writer.get(event.address)
                if writer is None:
                    # Never written, or the last writer already finished
                    # (its entry is pruned on completion).
                    continue
                master_blocked = ("task", writer)
                return

        # --- event handlers ------------------------------------------------------
        def on_master(sim: Simulator, event) -> None:
            if master_blocked is None and not master_done:
                advance_master(event[0])

        def on_ready(sim: Simulator, event) -> None:
            task_id = event[4]
            if task_id in dispatched:
                raise SimulationError(f"task {task_id} reported ready twice")
            dispatched.add(task_id)
            now = event[0]
            if idle_ranks:
                start_task(task_id, now)
            else:
                enqueue(task_id, task_of[task_id], now)

        def on_done(sim: Simulator, event) -> None:
            nonlocal outstanding, finished_count
            task_id, core = event[4]
            now = event[0]
            outstanding -= 1
            finished_count += 1
            unfinished.discard(task_id)
            dispatched.discard(task_id)
            del task_of[task_id]
            write_addrs = writes_of.pop(task_id, None)
            if write_addrs:
                for address in write_addrs:
                    if last_writer.get(address) == task_id:
                        del last_writer[address]
            outcome = manager_finish(task_id, now)
            for notification in outcome.ready:
                ready_id = notification.task_id
                ready_time = notification.time_us
                if collect:
                    ready_times[ready_id] = ready_time
                push(ready_time if ready_time > now else now,
                     _KIND_READY, ready_id, _PRIORITY_READY)
            # The freed core picks up the next queued ready task, if any.
            release(core)
            if policy_pending():
                next_task = select(core, now)
                if next_task is not None:
                    start_task(next_task, now)
            # Barriers (and back-pressure stalls) resolve on completions.
            if master_blocked is not None and barrier_satisfied(now) and not master_done:
                push(master_time, _KIND_MASTER, None, _PRIORITY_MASTER)

        sim.on(_KIND_MASTER, on_master)
        sim.on(_KIND_READY, on_ready)
        sim.on(_KIND_DONE, on_done)

        # --- main loop ------------------------------------------------------------
        advance_master(0.0)
        sim.run()
        self.last_events_processed = sim.processed_events
        makespan = sim.now if sim.now > master_time else master_time

        # --- consistency checks -----------------------------------------------------
        if finished_count != num_tasks:
            missing = num_tasks - finished_count
            raise SimulationError(
                f"{manager.name} on {stream.name}: {missing} of {num_tasks} tasks never ran "
                "(deadlock or lost ready notification)"
            )
        if not master_done or master_blocked is not None:
            raise SimulationError(
                f"{manager.name} on {stream.name}: master thread did not reach "
                "the end of the stream"
            )

        if validate:
            replayed = Trace(name=stream.name, events=tuple(recorded_events),
                             metadata=dict(stream.metadata))
            validate_schedule(replayed, dict(start_times), dict(finish_times))

        keep = self.config.keep_schedule
        return MachineResult(
            trace_name=stream.name,
            manager_name=manager.name,
            num_cores=self.config.num_cores,
            makespan_us=makespan,
            total_work_us=total_work_us,
            num_tasks=num_tasks,
            submit_times=submit_times if keep else {},
            ready_times=ready_times if keep else {},
            start_times=start_times if keep else {},
            finish_times=finish_times if keep else {},
            master_finish_us=master_time,
            core_busy_us=core_busy_us,
            manager_stats=dict(manager.statistics()),
            scheduler=policy.name,
            topology=self.topology.describe(),
            per_core_busy_us=tuple(pool.busy_us),
            task_cores=task_cores if keep else {},
        )

    def run_dynamic(
        self,
        program: DynamicProgram,
        *,
        compiled: bool = True,
        max_in_flight: Optional[int] = None,
    ) -> MachineResult:
        """Replay a dynamic task program (spawns and taskwaits at runtime).

        Tasks may be created by the master thread *and* by running tasks,
        so nothing about the task set is known at t=0; the engine lives
        in :mod:`repro.system.dynamic` (semantics documented there).

        ``compiled=True`` binds a fresh growable compiled access program
        to the manager (the tracker's preresolved-int hot path, extended
        task by task); ``compiled=False`` uses the tracker's dynamic
        access-by-access path.  Both produce byte-identical schedules on
        deterministic programs — pinned by the fuzz corpus in
        ``tests/fuzz/``.
        """
        from repro.system.dynamic import run_dynamic

        try:
            return run_dynamic(self, program, compiled=compiled,
                               max_in_flight=max_in_flight)
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
    lookahead: int = DEFAULT_LOOKAHEAD_EVENTS,
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
    return machine.run_stream(stream, max_in_flight=max_in_flight, lookahead=lookahead)


def simulate_dynamic(
    program: DynamicProgram,
    manager: TaskManagerModel,
    num_cores: int,
    *,
    compiled: bool = True,
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
    return machine.run_dynamic(program, compiled=compiled, max_in_flight=max_in_flight)
