"""The insert-while-running engine: streams and dynamic programs.

This is the engine behind :meth:`repro.system.machine.Machine.run_stream`
and :meth:`~repro.system.machine.Machine.run_dynamic` (and the
``Machine.run`` dispatch for :class:`~repro.trace.dynamic.DynamicProgram`
sources).  It simulates the regime the paper's hardware actually serves:
tasks arrive while the machine runs, so nothing about the task set is
known at t=0.  Two kinds of source drive the master thread:

* a :class:`~repro.trace.stream.TaskStream` (or a materialised trace
  replayed as one): each ``TaskSubmitEvent`` submits the stream's own
  descriptor under its own id, ``taskwait`` / ``taskwait on`` events are
  master barriers.  Only in-flight tasks are held, so live state is
  O(in-flight tasks + live addresses), never O(total tasks);
* a :class:`~repro.trace.dynamic.DynamicProgram`: the master thread *and*
  executing tasks may spawn new tasks and issue ``taskwait``.

Semantics
---------

* **Spawn** — the spawning core (or the master thread) submits the child
  to the manager at its current time and is throttled exactly like the
  static master: it resumes at ``max(accept_time, now +
  creation_overhead)``.  While a worker spawns, its core is occupied but
  the time is not counted as busy/compute time.
* **Task-level taskwait** — the task suspends until all children *it*
  spawned so far have finished.  By default the suspended task releases
  its core (an OmpSs task-scheduling point: the core runs other ready
  work meanwhile), and the parent resumes with priority over newly
  queued ready tasks once its children drain.  With
  ``MachineConfig.taskwait_holds_core=True`` the core stays blocked
  instead — faithful to a naive tied-task runtime, but recursion deeper
  than the core count then deadlocks, which the engine reports as a
  :class:`~repro.common.errors.SimulationError` naming the stuck tasks.
* **Master taskwait / taskwait on** — identical to the static machine:
  a full barrier over every in-flight task, and the last-writer barrier
  with the Nexus++ degradation when the manager lacks the pragma.
* **Worker overhead** — charged once per task, on its first compute
  segment (a pure control body with no :class:`~repro.trace.dynamic.
  Compute` op pays none).

The manager's dependency tracker resolves every task's accesses at
insert (no access program is bound), the same row loops a bound static
trace uses.  On a static trace the engine's schedule, manager statistics
and event count equal :meth:`Machine.run_scalar
<repro.system.machine.Machine.run_scalar>`'s (pinned by
``tests/golden/test_stream_equivalence.py``).

Determinism: given a deterministic source, the engine is fully
deterministic — the event queue orders ties by ``(time, priority,
sequence)`` and every manager interaction happens in event-processing
order — so repeated runs agree exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple, Union

from repro.common.errors import SimulationError
from repro.sim.engine import Simulator
from repro.system.results import MachineResult
from repro.system.timeline import TaskTimeline
from repro.system.topology import CorePool
from repro.trace.dynamic import Compute, DynamicProgram, Spawn, Taskwait, TaskwaitOn
from repro.trace.events import (
    SpawnEvent,
    TaskSubmitEvent,
    TaskwaitEvent,
    TaskwaitOnEvent,
    TraceEvent,
)
from repro.trace.stream import TaskStream
from repro.trace.trace import Trace

# Event kinds / priorities (completions before readies before the master,
# matching the static machine loop).
_PRIORITY_DONE = 0
_PRIORITY_READY = 1
_PRIORITY_MASTER = 2

_KIND_SEGMENT = "segment-done"
_KIND_READY = "task-ready"
_KIND_MASTER = "master-step"


class _TaskRun:
    """Live state of one submitted task (from submission to retirement)."""

    __slots__ = ("task", "body", "gen", "parent_id", "slot", "core",
                 "children", "waiting", "first_segment", "dispatched")

    def __init__(self, task, body, parent_id: Optional[int], slot: int) -> None:
        self.task = task
        self.body = body
        self.gen = None          # instantiated when the task starts
        self.parent_id = parent_id
        self.slot = slot         # timeline slot (-1 when not collecting)
        self.core: int = -1      # -1 = not on a core (queued / suspended)
        self.children = 0        # direct children still in flight
        self.waiting = False     # suspended in a task-level taskwait
        self.first_segment = True
        self.dispatched = False  # ready notification already delivered


def run_engine(
    machine,
    source: Union[DynamicProgram, TaskStream],
    *,
    max_in_flight: Optional[int] = None,
) -> MachineResult:
    """Replay a dynamic program or a task stream on ``machine``.

    See the module docstring.  ``max_in_flight`` stalls the master once
    that many submitted tasks are outstanding (back-pressure).
    """
    if max_in_flight is not None and max_in_flight <= 0:
        raise SimulationError(f"max_in_flight must be positive, got {max_in_flight}")
    config = machine.config
    manager = machine.manager
    manager.reset()
    policy = machine.policy
    policy.reset()
    pool = CorePool(machine.topology)
    holds_core = config.taskwait_holds_core

    sim = Simulator()
    queue = sim.queue
    push = queue.push

    # --- state -------------------------------------------------------------
    master_time = 0.0
    master_blocked: Optional[Tuple[str, Optional[int]]] = None
    master_done = False
    master_send: object = None       # value delivered to the master's next yield
    master_barrier_resuming = False  # next advance sends master_time instead
    outstanding = 0
    num_tasks = 0
    next_task_id = 0
    total_work_us = 0.0
    finished_count = 0
    core_busy_us = 0.0

    #: every submitted, unfinished task
    runs: Dict[int, _TaskRun] = {}
    writes_of: Dict[int, Tuple[int, ...]] = {}
    last_writer: Dict[int, int] = {}
    resume_queue: deque = deque()    # parents whose children drained, awaiting a core

    validate = config.validate
    collect = config.keep_schedule or validate
    timeline = TaskTimeline.growable() if collect else None
    ready_order: List[int] = []      # fed only when collecting
    recorded_events: List[TraceEvent] = []  # submission order (validate)

    worker_overhead = manager.worker_overhead_us
    supports_taskwait_on = manager.supports_taskwait_on
    speeds = pool.speeds
    busy_us = pool.busy_us
    acquire = pool.acquire
    release = pool.release
    idle_ranks = pool.idle_ranks
    enqueue = policy.enqueue
    select = policy.select
    policy_pending = policy.__len__
    wants_start_events = policy.wants_start_events
    manager_submit = manager.submit
    manager_finish = manager.finish

    # --- submission (shared by the master and spawning tasks) ---------------
    def submit_task(task, body, parent: Optional[_TaskRun], time: float) -> float:
        """Hand ``task`` to the manager at ``time``; return when the submitter resumes.

        The submitter is throttled like the static master: it resumes at
        ``max(accept_time, time + creation_overhead)``.
        """
        nonlocal outstanding, num_tasks, total_work_us
        task_id = task.task_id
        parent_id = None if parent is None else parent.task.task_id
        slot = -1
        if collect:
            slot = timeline.add_task(task_id)
            timeline.submit[slot] = time
            if validate:
                recorded_events.append(SpawnEvent(task, parent_id=parent_id))
        runs[task_id] = _TaskRun(task, body, parent_id, slot)
        outstanding += 1
        num_tasks += 1
        total_work_us += task.duration_us
        if parent is not None:
            parent.children += 1
        write_addrs = task.output_addresses
        if write_addrs:
            writes_of[task_id] = write_addrs
            for address in write_addrs:
                last_writer[address] = task_id
        accept, ready = manager_submit(task, time)
        for ready_id, ready_time in ready:
            if collect:
                timeline.ready[runs[ready_id].slot] = ready_time
            push(ready_time if ready_time > time else time,
                 _KIND_READY, ready_id, _PRIORITY_READY)
        if accept < time:
            raise SimulationError(
                f"manager {manager.name} accepted task {task_id} in the past")
        resume = time + task.creation_overhead_us
        return accept if accept > resume else resume

    def spawn(request, parent: Optional[_TaskRun], time: float) -> Tuple[int, float]:
        """Submit a program's spawn request; return ``(task id, resume time)``."""
        nonlocal next_task_id
        task_id = next_task_id
        next_task_id = task_id + 1
        return task_id, submit_task(request.descriptor(task_id), request.body, parent, time)

    # --- core dispatch -------------------------------------------------------
    def fill_cores(now: float) -> None:
        """Hand idle cores to resuming parents first, then queued ready tasks."""
        while idle_ranks:
            if resume_queue:
                rec = runs[resume_queue.popleft()]
                rec.core = acquire()
                advance_body(rec, now, now)
            elif policy_pending():
                core = acquire()
                task_id = select(core, now)
                if task_id is None:
                    release(core)
                    break
                start_task(task_id, now, core)
            else:
                break

    def start_task(task_id: int, now: float, core: int) -> None:
        rec = runs[task_id]
        rec.core = core
        if collect:
            timeline.start[rec.slot] = now
            timeline.core[rec.slot] = core
        if wants_start_events:
            policy.on_start(task_id, rec.task, core, now)
        if rec.body is None:
            schedule_segment(rec, now, rec.task.duration_us)
        else:
            rec.gen = rec.body()
            advance_body(rec, now, None)

    def schedule_segment(rec: _TaskRun, now: float, duration_us: float) -> None:
        nonlocal core_busy_us
        nominal = duration_us
        if rec.first_segment:
            nominal += worker_overhead
            rec.first_segment = False
        speed = speeds[rec.core]
        real = nominal if speed == 1.0 else nominal / speed
        end = now + real
        core_busy_us += real
        busy_us[rec.core] += real
        push(end, _KIND_SEGMENT, rec.task.task_id, _PRIORITY_DONE)

    def advance_body(rec: _TaskRun, now: float, send: object) -> None:
        """Drive ``rec``'s body until it computes, suspends, or finishes."""
        gen = rec.gen
        task_id = rec.task.task_id
        while True:
            try:
                op = gen.send(send)
            except StopIteration:
                finish_task(rec, now)
                return
            if isinstance(op, Compute):
                schedule_segment(rec, now, op.duration_us)
                return
            if isinstance(op, Spawn):
                send, now = spawn(op.request, rec, now)
                continue
            if isinstance(op, Taskwait):
                if rec.children == 0:
                    send = now
                    continue
                rec.waiting = True
                if not holds_core:
                    core = rec.core
                    rec.core = -1
                    release(core)
                    fill_cores(now)
                return
            if isinstance(op, TaskwaitOn):
                raise SimulationError(
                    f"task {task_id} ({source.name}): TaskwaitOn is a "
                    "master-only op; task bodies join children with Taskwait")
            raise SimulationError(
                f"task {task_id} ({source.name}): unknown dynamic op {op!r}")

    def finish_task(rec: _TaskRun, now: float) -> None:
        nonlocal outstanding, finished_count
        task_id = rec.task.task_id
        outstanding -= 1
        finished_count += 1
        if collect:
            timeline.finish[rec.slot] = now
        write_addrs = writes_of.pop(task_id, None)
        if write_addrs:
            for address in write_addrs:
                if last_writer.get(address) == task_id:
                    del last_writer[address]
        for ready_id, ready_time in manager_finish(task_id, now)[0]:
            if collect:
                timeline.ready[runs[ready_id].slot] = ready_time
            push(ready_time if ready_time > now else now,
                 _KIND_READY, ready_id, _PRIORITY_READY)
        # Wake the parent when this was its last in-flight child.
        parent_id = rec.parent_id
        if parent_id is not None:
            parent = runs.get(parent_id)
            if parent is not None:
                parent.children -= 1
                if parent.children == 0 and parent.waiting:
                    parent.waiting = False
                    if holds_core:
                        # The parent never released its core: it resumes
                        # in place, at its child's completion time.
                        advance_body(parent, now, now)
                    else:
                        resume_queue.append(parent_id)
        core = rec.core
        del runs[task_id]
        release(core)
        fill_cores(now)
        if master_blocked is not None and barrier_satisfied(now) and not master_done:
            push(master_time, _KIND_MASTER, None, _PRIORITY_MASTER)

    # --- master ------------------------------------------------------------
    def barrier_satisfied(now: float) -> bool:
        nonlocal master_blocked, master_time
        if master_blocked is None:
            return False
        kind, waited_task = master_blocked
        if kind == "all":
            if outstanding != 0:
                return False
        elif kind == "task":
            if waited_task in runs:
                return False
        else:  # kind == "window": back-pressure stall
            assert max_in_flight is not None
            if outstanding >= max_in_flight:
                return False
        master_blocked = None
        if now > master_time:
            master_time = now
        return True

    def block_on(address: Optional[int]) -> bool:
        """Block the master on a barrier; False when it is already resolved.

        ``None`` is a full taskwait; an address is a ``taskwait on`` —
        degraded to a full taskwait when the manager lacks the pragma
        (Nexus++, Section III of the paper).
        """
        nonlocal master_blocked
        if address is None or not supports_taskwait_on:
            if outstanding == 0:
                return False
            master_blocked = ("all", None)
            return True
        writer = last_writer.get(address)
        if writer is None:
            # Never written, or the writer already finished (pruned).
            return False
        master_blocked = ("task", writer)
        return True

    def yield_to_pending() -> bool:
        """Requeue the master behind pending events that sort before it.

        Otherwise the master keeps submitting inline instead of bouncing
        through the event queue: equal-time completions and readies
        outrank the master's priority, so none can sort before its next
        step, and event order — and therefore the schedule — is
        unchanged.
        """
        pending = queue.next_time
        if pending is not None and pending <= master_time:
            push(master_time, _KIND_MASTER, None, _PRIORITY_MASTER)
            return True
        return False

    def window_full() -> bool:
        nonlocal master_blocked
        if max_in_flight is not None and outstanding >= max_in_flight:
            master_blocked = ("window", None)
            return True
        return False

    def advance_program(now: float) -> None:
        """Run the program's master generator until it blocks or ends."""
        nonlocal master_time, master_done, master_send, master_barrier_resuming
        if now > master_time:
            master_time = now
        if master_barrier_resuming:
            master_send = master_time
            master_barrier_resuming = False
        while True:
            # Window stalls keep master_send: the pending response belongs
            # to the op consumed before the stall.
            if window_full():
                return
            try:
                op = master_gen.send(master_send)
            except StopIteration:
                master_done = True
                return
            if isinstance(op, Spawn):
                master_send, master_time = spawn(op.request, None, master_time)
                if yield_to_pending():
                    return
                continue
            if isinstance(op, Compute):
                # A serial section on the master thread.
                master_time += op.duration_us
                master_send = master_time
                continue
            if isinstance(op, Taskwait):
                address = None
            elif isinstance(op, TaskwaitOn):
                address = op.address
            else:
                raise SimulationError(f"{source.name}: unknown master op {op!r}")
            if block_on(address):
                master_barrier_resuming = True
                return
            master_send = master_time

    def advance_stream(now: float) -> None:
        """Consume stream events until a submission stalls, a block, or the end."""
        nonlocal master_time, master_done, next_event
        if now > master_time:
            master_time = now
        while True:
            if window_full():
                return
            event = next_event
            if event is None:
                master_done = True
                return
            # Read one event ahead, so the master knows the stream ended
            # right after its last submission, like the static loop.
            next_event = next(events, None)
            if isinstance(event, TaskSubmitEvent):
                task = event.task
                if task.task_id in runs:
                    raise SimulationError(
                        f"task id {task.task_id} submitted while still in flight "
                        f"in stream {source.name!r}")
                master_time = submit_task(task, None, None, master_time)
                if next_event is None:
                    master_done = True
                    return
                if yield_to_pending():
                    return
                continue
            if isinstance(event, TaskwaitEvent):
                address = None
            elif isinstance(event, TaskwaitOnEvent):
                address = event.address
            else:
                raise SimulationError(f"unknown trace event {event!r}")
            if block_on(address):
                return

    if isinstance(source, DynamicProgram):
        master_gen = source.master()
        advance_master = advance_program
    else:
        events = iter(source.iter_events())
        next_event = next(events, None)
        advance_master = advance_stream

    # --- event handlers ------------------------------------------------------
    def on_master(sim: Simulator, event) -> None:
        if master_blocked is None and not master_done:
            advance_master(event[0])

    def on_ready(sim: Simulator, event) -> None:
        task_id = event[4]
        rec = runs[task_id]
        if rec.dispatched:
            raise SimulationError(f"task {task_id} reported ready twice")
        rec.dispatched = True
        if collect:
            ready_order.append(task_id)
        now = event[0]
        if idle_ranks:
            start_task(task_id, now, acquire())
        else:
            enqueue(task_id, rec.task, now)

    def on_segment(sim: Simulator, event) -> None:
        rec = runs[event[4]]
        now = event[0]
        if rec.gen is None:
            finish_task(rec, now)
        else:
            advance_body(rec, now, now)

    sim.on(_KIND_MASTER, on_master)
    sim.on(_KIND_READY, on_ready)
    sim.on(_KIND_SEGMENT, on_segment)

    # --- main loop ------------------------------------------------------------
    advance_master(0.0)
    sim.run()
    machine.last_events_processed = sim.processed_events
    machine.last_ready_order = tuple(ready_order)
    makespan = sim.now if sim.now > master_time else master_time

    # --- consistency checks -----------------------------------------------------
    if finished_count != num_tasks or not master_done or master_blocked is not None:
        blocked = sorted(tid for tid, rec in runs.items() if rec.waiting)
        missing = num_tasks - finished_count
        raise SimulationError(
            f"{manager.name} on {source.name}: {missing} of {num_tasks} tasks never "
            f"finished (master {'done' if master_done else 'stuck'}; "
            f"{len(blocked)} tasks suspended in taskwait: {blocked[:10]}"
            f"{'...' if len(blocked) > 10 else ''})"
            + (" — taskwait_holds_core=True deadlocks when the spawn tree is "
               "deeper than the core count" if holds_core and blocked else "")
        )

    if validate:
        replayed = Trace(name=source.name, events=tuple(recorded_events),
                         metadata=dict(source.metadata))
        from repro.trace.dag import validate_schedule

        validate_schedule(replayed, timeline.start_dict(), timeline.finish_dict())

    keep = config.keep_schedule and timeline is not None
    return MachineResult(
        trace_name=source.name,
        manager_name=manager.name,
        num_cores=config.num_cores,
        makespan_us=makespan,
        total_work_us=total_work_us,
        num_tasks=num_tasks,
        submit_times=timeline.submit_dict() if keep else {},
        ready_times=timeline.ready_dict() if keep else {},
        start_times=timeline.start_dict() if keep else {},
        finish_times=timeline.finish_dict() if keep else {},
        master_finish_us=master_time,
        core_busy_us=core_busy_us,
        manager_stats=dict(manager.statistics()),
        scheduler=policy.name,
        topology=machine.topology.describe(),
        per_core_busy_us=tuple(pool.busy_us),
        task_cores=timeline.core_dict() if keep else {},
    )
