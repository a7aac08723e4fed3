"""The general replay engine: task streams and dynamic programs.

Only streams and dynamic programs reach this engine: every static trace
:meth:`Machine.run <repro.system.machine.Machine.run>` replays with a
lane-kernel manager and a built-in policy runs on the kernel of
:mod:`repro.sim.batch`.  The engine serves
:meth:`~repro.system.machine.Machine.run_stream`,
:meth:`~repro.system.machine.Machine.run_dynamic`, and
:meth:`~repro.system.machine.Machine.run_scalar` — the stream replay of
a static trace, which is also the reference the kernel is checked
against and the path of the static runs the kernel does not cover.  Two
kinds of source drive the master thread:

* a :class:`~repro.trace.stream.TaskStream` (a materialised
  :class:`~repro.trace.trace.Trace` is one too): each
  ``TaskSubmitEvent`` submits the stream's own descriptor under its own
  id, ``taskwait`` / ``taskwait on`` events are master barriers.  Only
  in-flight tasks are held, so live state is O(in-flight tasks + live
  addresses), never O(total tasks), and the tracker resolves each task
  at insert;
* a :class:`~repro.trace.dynamic.DynamicProgram`: the master thread *and*
  executing tasks may spawn new tasks and issue ``taskwait``.

Semantics
---------

* **Spawn** — the spawning core (or the master thread) submits the child
  to the manager at its current time and is throttled exactly like a
  stream's master: it resumes at ``max(accept_time, now +
  creation_overhead)``.  While a worker spawns, its core is occupied but
  the time is not counted as busy/compute time.
* **Task-level taskwait** — the task suspends until all children *it*
  spawned so far have finished and releases its core meanwhile (an
  OmpSs task-scheduling point: the core runs other ready work), so
  recursion deeper than the core count completes.  Once its children
  drain, the parent resumes with priority over newly queued ready tasks.
* **Master taskwait / taskwait on** — a full barrier over every in-flight
  task, and the last-writer barrier; a manager without the ``taskwait
  on`` pragma (Nexus++) degrades it to a full taskwait, as Section III
  of the paper describes.
* **Worker overhead** — charged once per task, on its first compute
  segment (a pure control body with no :class:`~repro.trace.dynamic.
  Compute` op pays none).

Per-task state is keyed by the task's *slot*: its submission ordinal
in a stream that keeps its schedule (the timeline's slot), and otherwise
its task id (a program's ids are its ordinals).  A leaf task — every
stream task and every spawned request without a body — is just its
descriptor and a dispatched flag; only tasks with a body get a
:class:`_TaskRun` record.

The engine owns its event heap: plain ``(time, priority, sequence,
task id, core)`` tuples, the layout of the kernel in
:mod:`repro.sim.batch`, where the priority is the event kind.  At equal
timestamps a segment completion pops first (it frees a core and may
resolve a barrier), then a ready notification, then a master step, and
events of one kind keep their push order.  Given a deterministic
source the engine is therefore fully deterministic — every manager
interaction happens in pop order — so repeated runs agree exactly.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Dict, List, Optional, Tuple, Union

from repro.common.errors import SimulationError
from repro.system.results import MachineResult
from repro.system.timeline import TaskTimeline
from repro.system.topology import CorePool
from repro.trace.dag import validate_schedule
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

# Event kinds, which are also their priorities at equal timestamps:
# segment completions first (they free cores and resolve barriers), then
# ready notifications, then master steps.
_PRIORITY_DONE = 0
_PRIORITY_READY = 1
_PRIORITY_MASTER = 2


class _TaskRun:
    """Live state of one task with a body (from submission to retirement)."""

    __slots__ = ("body", "gen", "core", "children", "waiting", "first_segment")

    def __init__(self, body) -> None:
        self.body = body
        self.gen = None          # instantiated when the task starts
        self.core: int = -1      # -1 = not on a core (queued / suspended)
        self.children = 0        # direct children still in flight
        self.waiting = False     # suspended in a task-level taskwait
        self.first_segment = True


def run_engine(
    machine,
    source: Union[TaskStream, DynamicProgram],
    *,
    max_in_flight: Optional[int] = None,
) -> MachineResult:
    """Replay a task stream or a dynamic program on ``machine``.

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

    heap: List[tuple] = []           # (time, priority, sequence, task id, core)
    heappush = heapq.heappush
    sequence = itertools.count().__next__

    # --- state -------------------------------------------------------------
    master_time = 0.0
    master_blocked: Optional[Tuple[str, Optional[int]]] = None
    master_done = False
    master_send: object = None       # value delivered to the master's next yield
    master_barrier_resuming = False  # next advance sends master_time instead
    outstanding = 0
    finished_count = 0
    core_busy_us = 0.0

    validate = config.validate
    collect = config.keep_schedule or validate
    tasks: Dict[int, object] = {}    # in-flight descriptors by slot
    # A stream may reuse an id once its task finished, so a collected
    # stream maps ids to submission ordinals (the timeline's slots);
    # otherwise the slot is the id (a program's ids are its ordinals).
    key_of = {} if collect and not isinstance(source, DynamicProgram) else None
    num_tasks = 0
    total_work_us = 0.0
    dispatched: Dict[int, int] = {}
    timeline = TaskTimeline.growable() if collect else None
    if collect:
        submit_arr = timeline.submit
        ready_arr = timeline.ready
        start_arr = timeline.start
        finish_arr = timeline.finish
        core_arr = timeline.core
    runs: Dict[int, _TaskRun] = {}   # tasks with a body, by slot
    parent_of: Dict[int, int] = {}   # spawned task slot -> parent slot
    writes_of: Dict[int, Tuple[int, ...]] = {}
    last_writer: Dict[int, int] = {}  # address -> slot of its in-flight last writer
    resume_queue: deque = deque()    # parents whose children drained, awaiting a core
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

    # --- submission ---------------------------------------------------------------
    def submit_task(task, body, parent_key: Optional[int], time: float) -> float:
        """Hand ``task`` to the manager at ``time``; return when the submitter resumes.

        Every submitter (a stream's or a program's master, a spawning
        task) is throttled alike: it resumes at
        ``max(accept_time, time + creation_overhead)``.
        """
        nonlocal outstanding, num_tasks, total_work_us
        task_id = task.task_id
        key = task_id
        if key_of is not None:
            key = key_of[task_id] = num_tasks
        num_tasks += 1
        tasks[key] = task
        dispatched[key] = 0
        if body is not None:
            runs[key] = _TaskRun(body)
        if parent_key is not None:
            parent_of[key] = parent_key
            runs[parent_key].children += 1
        if collect:
            timeline.add_task(task_id)
            submit_arr[key] = time
            if validate:
                recorded_events.append(SpawnEvent(task, parent_id=parent_key))
        outstanding += 1
        total_work_us += task.duration_us
        write_addrs = task.output_addresses
        if write_addrs:
            writes_of[key] = write_addrs
            for address in write_addrs:
                last_writer[address] = key
        accept, ready = manager_submit(task, time)
        for ready_id, ready_time in ready:
            if collect:
                ready_arr[ready_id if key_of is None else key_of[ready_id]] = ready_time
            heappush(heap, (ready_time if ready_time > time else time,
                            _PRIORITY_READY, sequence(), ready_id, -1))
        if accept < time:
            raise SimulationError(
                f"manager {manager.name} accepted task {task_id} in the past")
        resume = time + task.creation_overhead_us
        return accept if accept > resume else resume

    # --- core dispatch -------------------------------------------------------
    def fill_cores(now: float) -> None:
        """Hand idle cores to resuming parents first, then queued ready tasks."""
        while idle_ranks:
            if resume_queue:
                key = resume_queue.popleft()
                rec = runs[key]
                rec.core = acquire()
                advance_body(rec, key, now, now)
            elif policy_pending():
                core = acquire()
                task_id = select(core, now)
                if task_id is None:
                    release(core)
                    break
                start_task(task_id if key_of is None else key_of[task_id], now, core)
            else:
                break

    def start_task(key: int, now: float, core: int) -> None:
        nonlocal core_busy_us
        task = tasks[key]
        if collect:
            start_arr[key] = now
            core_arr[key] = core
        if wants_start_events:
            policy.on_start(task.task_id, task.function, core, now)
        if runs:
            rec = runs.get(key)
            if rec is not None:
                rec.core = core
                rec.gen = rec.body()
                advance_body(rec, key, now, None)
                return
        # A leaf: one segment of worker overhead plus the task body.
        nominal = worker_overhead + task.duration_us
        speed = speeds[core]
        duration = nominal if speed == 1.0 else nominal / speed
        core_busy_us += duration
        busy_us[core] += duration
        heappush(heap, (now + duration, _PRIORITY_DONE, sequence(), task.task_id, core))

    def schedule_segment(rec: _TaskRun, key: int, now: float, duration_us: float) -> None:
        nonlocal core_busy_us
        nominal = duration_us
        if rec.first_segment:
            nominal += worker_overhead
            rec.first_segment = False
        core = rec.core
        speed = speeds[core]
        real = nominal if speed == 1.0 else nominal / speed
        core_busy_us += real
        busy_us[core] += real
        heappush(heap, (now + real, _PRIORITY_DONE, sequence(), key, core))

    def advance_body(rec: _TaskRun, key: int, now: float, send: object) -> None:
        """Drive ``rec``'s body until it computes, suspends, or finishes."""
        gen = rec.gen
        while True:
            try:
                op = gen.send(send)
            except StopIteration:
                finish_task(key, rec.core, now)
                return
            if isinstance(op, Compute):
                schedule_segment(rec, key, now, op.duration_us)
                return
            if isinstance(op, Spawn):
                send = num_tasks  # the child's task id
                now = submit_task(op.request.descriptor(send), op.request.body, key, now)
                continue
            if isinstance(op, Taskwait):
                if rec.children == 0:
                    send = now
                    continue
                rec.waiting = True
                core = rec.core
                rec.core = -1
                release(core)
                fill_cores(now)
                return
            if isinstance(op, TaskwaitOn):
                raise SimulationError(
                    f"task {key} ({source.name}): TaskwaitOn is a "
                    "master-only op; task bodies join children with Taskwait")
            raise SimulationError(
                f"task {key} ({source.name}): unknown dynamic op {op!r}")

    def finish_task(task_id: int, core: int, now: float) -> None:
        nonlocal outstanding, finished_count
        key = task_id if key_of is None else key_of[task_id]
        outstanding -= 1
        finished_count += 1
        if collect:
            finish_arr[key] = now
        if writes_of:
            write_addrs = writes_of.pop(key, None)
            if write_addrs:
                for address in write_addrs:
                    if last_writer.get(address) == key:
                        del last_writer[address]
        for ready_id, ready_time in manager_finish(task_id, now)[0]:
            if collect:
                ready_arr[ready_id if key_of is None else key_of[ready_id]] = ready_time
            heappush(heap, (ready_time if ready_time > now else now,
                            _PRIORITY_READY, sequence(), ready_id, -1))
        if parent_of:
            # Wake the parent when this was its last in-flight child.
            parent_key = parent_of.pop(key, None)
            parent = None if parent_key is None else runs.get(parent_key)
            if parent is not None:
                parent.children -= 1
                if parent.children == 0 and parent.waiting:
                    parent.waiting = False
                    resume_queue.append(parent_key)
        del tasks[key]
        del dispatched[key]
        if key_of is not None:
            del key_of[task_id]
        if runs:
            runs.pop(key, None)
        release(core)
        if resume_queue:
            fill_cores(now)
        elif policy_pending():
            # No core idles while tasks queue, so the freed core is the
            # only one to fill: fill_cores' first step, inlined.
            core = acquire()
            next_id = select(core, now)
            if next_id is None:
                release(core)
            else:
                start_task(next_id if key_of is None else key_of[next_id], now, core)
        if master_blocked is not None and barrier_satisfied(now) and not master_done:
            heappush(heap, (master_time, _PRIORITY_MASTER, sequence(), -1, -1))

    # --- master ------------------------------------------------------------
    def barrier_satisfied(now: float) -> bool:
        """Clear the master's barrier if it is resolved."""
        nonlocal master_blocked, master_time
        kind, waited = master_blocked
        if kind == "all":
            if outstanding != 0:
                return False
        elif kind == "task":
            if waited in tasks:
                return False
        elif outstanding >= max_in_flight:  # kind == "window": back-pressure stall
            return False
        master_blocked = None
        if now > master_time:
            master_time = now
        return True

    def yield_to_pending() -> bool:
        """Requeue the master behind pending events that sort before it.

        Otherwise the master keeps submitting inline instead of bouncing
        through the event queue: equal-time completions and readies
        outrank the master's priority, so none can sort before its next
        step, and event order — and therefore the schedule — is
        unchanged.
        """
        if heap and heap[0][0] <= master_time:
            heappush(heap, (master_time, _PRIORITY_MASTER, sequence(), -1, -1))
            return True
        return False

    def window_full() -> bool:
        nonlocal master_blocked
        if max_in_flight is not None and outstanding >= max_in_flight:
            master_blocked = ("window", None)
            return True
        return False

    def block_on(address: Optional[int]) -> bool:
        """Block the master on a barrier; False when it is already resolved.

        ``None`` is a full taskwait; an address is a ``taskwait on`` —
        degraded to a full taskwait when the manager lacks the pragma.
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
            # right after its last submission.
            next_event = next(events, None)
            if isinstance(event, TaskSubmitEvent):
                task = event.task
                if task.task_id in (tasks if key_of is None else key_of):
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
                master_send = num_tasks  # the child's task id
                master_time = submit_task(op.request.descriptor(master_send), op.request.body,
                                          None, master_time)
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

    if isinstance(source, DynamicProgram):
        master_gen = source.master()
        advance_master = advance_program
    else:
        events = iter(source.iter_events())
        next_event = next(events, None)
        advance_master = advance_stream

    # --- main loop ------------------------------------------------------------
    advance_master(0.0)
    heappop = heapq.heappop
    now = 0.0
    popped = 0
    while heap:
        time, priority, _, task_id, core = heappop(heap)
        popped += 1
        if time > now:
            now = time
        if priority == _PRIORITY_DONE:
            if runs:
                rec = runs.get(task_id)
                if rec is not None:
                    advance_body(rec, task_id, time, time)
                    continue
            finish_task(task_id, core, time)
        elif priority == _PRIORITY_READY:
            key = task_id if key_of is None else key_of[task_id]
            if dispatched[key]:
                raise SimulationError(f"task {task_id} reported ready twice")
            dispatched[key] = 1
            if collect:
                ready_order.append(task_id)
            if idle_ranks:
                start_task(key, time, acquire())
            else:
                task = tasks[key]
                enqueue(task_id, task.duration_us, task.function, time)
        elif master_blocked is None and not master_done:
            advance_master(time)
    # Every reference cycle among the nested functions runs through
    # advance_body: break it, so the run's state (the source included)
    # is freed when this call returns, not at the next cyclic collection.
    advance_body = None
    machine.last_events_processed = popped
    machine.last_ready_order = tuple(ready_order)
    makespan = now if now > master_time else master_time

    # --- consistency checks -----------------------------------------------------
    if finished_count != num_tasks or not master_done or master_blocked is not None:
        blocked = sorted(key for key, rec in runs.items() if rec.waiting)
        missing = num_tasks - finished_count
        raise SimulationError(
            f"{manager.name} on {source.name}: {missing} of {num_tasks} tasks never "
            f"finished (master {'done' if master_done else 'stuck'}; "
            f"{len(blocked)} tasks suspended in taskwait: {blocked[:10]}"
            f"{'...' if len(blocked) > 10 else ''})"
        )

    if validate:
        validate_schedule(
            Trace(name=source.name, events=tuple(recorded_events),
                  metadata=dict(source.metadata)),
            timeline.start_dict(), timeline.finish_dict())

    return MachineResult.of_run(
        machine, source.name, timeline, makespan_us=makespan, total_work_us=total_work_us,
        num_tasks=num_tasks, master_finish_us=master_time, core_busy_us=core_busy_us,
        manager_stats=dict(manager.statistics()), per_core_busy_us=tuple(pool.busy_us),
    )
