"""Frozen pre-refactor simulation stack, kept as the benchmark baseline.

This module is a verbatim snapshot of the hot path as it stood before the
layered-runtime refactor:

* ``legacy_simulate`` — the closure-based ``Machine.run`` monolith with
  its own inline ``heapq`` event loop and five per-task dicts;
* ``LegacyIdealManager`` and the legacy dependency-tracker stack
  (``LegacyDependencyTracker``, ``LegacyAddressTable``,
  ``LegacyAddressState``, dep-counts / task-pool / function tables) —
  frozen copies of the pre-refactor ``repro.taskgraph`` modules, with the
  original property-based access-mode checks and frozen-dataclass result
  records inlined, so later optimisations to the live tracker do not leak
  into the baseline.

``bench_sim_throughput.py`` measures the refactor's speedup against this
stack, in the same tree, with the same workload generators and the same
trace objects.

Do not use this module outside the benchmark, and do not "fix" it — its
value is that it does not change.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Set, Tuple

from repro.common.constants import (
    DEFAULT_KICKOFF_CAPACITY,
    DEFAULT_TABLE_SETS,
    DEFAULT_TABLE_WAYS,
)
from repro.common.errors import SimulationError
from repro.system.results import MachineResult
from repro.trace.dag import validate_schedule
from repro.trace.events import TaskSubmitEvent, TaskwaitEvent, TaskwaitOnEvent
from repro.trace.task import Direction, TaskDescriptor
from repro.trace.trace import Trace

#: Task-pool capacity of the frozen stack (the live tracker keeps no pool).
_TASK_POOL_ENTRIES = 1024

_PRIORITY_DONE = 0
_PRIORITY_READY = 1
_PRIORITY_MASTER = 2


# ---------------------------------------------------------------------------
# Frozen copies of the pre-refactor taskgraph / manager layers.
# ---------------------------------------------------------------------------

import enum


class _AccessMode(enum.Enum):
    READ = "read"
    WRITE = "write"
    READWRITE = "readwrite"

    @property
    def reads(self) -> bool:
        return self in (_AccessMode.READ, _AccessMode.READWRITE)

    @property
    def writes(self) -> bool:
        return self in (_AccessMode.WRITE, _AccessMode.READWRITE)


@dataclass(frozen=True)
class _Waiter:
    task_id: int
    mode: _AccessMode


@dataclass
class _LegacyAddressState:
    address: int
    active_writer: Optional[int] = None
    active_readers: Set[int] = field(default_factory=set)
    waiters: Deque[_Waiter] = field(default_factory=deque)
    total_waiters_enqueued: int = 0
    max_kickoff_length: int = 0

    @property
    def is_idle(self) -> bool:
        return self.active_writer is None and not self.active_readers and not self.waiters

    @property
    def kickoff_length(self) -> int:
        return len(self.waiters)

    def insert(self, task_id: int, mode: _AccessMode) -> bool:
        if self.waiters:
            self._enqueue(task_id, mode)
            return True
        if mode.writes:
            if self.active_writer is None and not self.active_readers:
                self.active_writer = task_id
                return False
            self._enqueue(task_id, mode)
            return True
        if self.active_writer is None:
            self.active_readers.add(task_id)
            return False
        self._enqueue(task_id, mode)
        return True

    def _enqueue(self, task_id: int, mode: _AccessMode) -> None:
        self.waiters.append(_Waiter(task_id=task_id, mode=mode))
        self.total_waiters_enqueued += 1
        self.max_kickoff_length = max(self.max_kickoff_length, len(self.waiters))

    def finish(self, task_id: int) -> List[_Waiter]:
        released: List[_Waiter] = []
        if self.active_writer == task_id:
            self.active_writer = None
        elif task_id in self.active_readers:
            self.active_readers.discard(task_id)
        else:
            raise SimulationError(
                f"task {task_id} finished but is neither the active writer nor an active "
                f"reader of address {self.address:#x}"
            )
        released.extend(self._activate_waiters())
        return released

    def _activate_waiters(self) -> List[_Waiter]:
        released: List[_Waiter] = []
        while self.waiters:
            head = self.waiters[0]
            if head.mode.writes:
                if self.active_writer is None and not self.active_readers:
                    self.waiters.popleft()
                    self.active_writer = head.task_id
                    released.append(head)
                break
            if self.active_writer is not None:
                break
            self.waiters.popleft()
            self.active_readers.add(head.task_id)
            released.append(head)
        return released


class _LegacyAddressTable:
    def __init__(
        self,
        num_sets: int = DEFAULT_TABLE_SETS,
        ways: int = DEFAULT_TABLE_WAYS,
        kickoff_capacity: int = DEFAULT_KICKOFF_CAPACITY,
        name: str = "task-graph",
    ) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.kickoff_capacity = kickoff_capacity
        self.name = name
        self._entries: Dict[int, _LegacyAddressState] = {}
        self._set_occupancy: Dict[int, int] = {}
        self.lookups = 0
        self.insertions = 0
        self.evictions = 0
        self.set_conflicts = 0
        self.dummy_entries_peak = 0
        self.max_live_entries = 0

    def set_index(self, address: int) -> int:
        return (address >> 6) & (self.num_sets - 1)

    def ways_used(self, address: int) -> int:
        entry = self._entries.get(address)
        if entry is None:
            return 0
        overflow = max(0, entry.kickoff_length - self.kickoff_capacity)
        dummies = -(-overflow // self.kickoff_capacity) if overflow else 0
        return 1 + dummies

    def insert_access(self, address: int, task_id: int, mode: _AccessMode) -> Tuple[bool, bool]:
        self.lookups += 1
        entry = self._entries.get(address)
        set_idx = self.set_index(address)
        set_conflict = False
        if entry is None:
            occupancy = self._set_occupancy.get(set_idx, 0)
            if occupancy >= self.ways:
                set_conflict = True
                self.set_conflicts += 1
            entry = _LegacyAddressState(address=address)
            self._entries[address] = entry
            self._set_occupancy[set_idx] = occupancy + 1
            self.insertions += 1
            self.max_live_entries = max(self.max_live_entries, len(self._entries))
        before_ways = self.ways_used(address)
        must_wait = entry.insert(task_id, mode)
        after_ways = self.ways_used(address)
        if after_ways != before_ways:
            self._set_occupancy[set_idx] = self._set_occupancy.get(set_idx, 0) + (after_ways - before_ways)
            self.dummy_entries_peak = max(self.dummy_entries_peak, after_ways - 1)
        return must_wait, set_conflict

    def finish_access(self, address: int, task_id: int) -> List[_Waiter]:
        entry = self._entries.get(address)
        if entry is None:
            raise SimulationError(f"{self.name}: finish on untracked address {address:#x}")
        set_idx = self.set_index(address)
        before_ways = self.ways_used(address)
        released = entry.finish(task_id)
        after_ways = self.ways_used(address)
        if entry.is_idle:
            del self._entries[address]
            self._set_occupancy[set_idx] = max(0, self._set_occupancy.get(set_idx, 0) - before_ways)
            self.evictions += 1
        elif after_ways != before_ways:
            self._set_occupancy[set_idx] = max(0, self._set_occupancy.get(set_idx, 0) + (after_ways - before_ways))
        return released

    def reset(self) -> None:
        self._entries.clear()
        self._set_occupancy.clear()


@dataclass
class _DepCountEntry:
    task_id: int
    pending: int
    params_seen: int = 0
    params_total: int = 0


class _LegacyDepCounts:
    def __init__(self) -> None:
        self._entries: Dict[int, _DepCountEntry] = {}
        self.peak_entries = 0

    def register(self, task_id: int, pending: int, params_total: int = 0) -> _DepCountEntry:
        if task_id in self._entries:
            raise SimulationError(f"task {task_id} registered twice")
        entry = _DepCountEntry(task_id=task_id, pending=pending, params_total=params_total)
        self._entries[task_id] = entry
        self.peak_entries = max(self.peak_entries, len(self._entries))
        return entry

    def pending(self, task_id: int) -> int:
        entry = self._entries.get(task_id)
        if entry is None:
            raise SimulationError(f"task {task_id} is not in flight")
        return entry.pending

    def decrement(self, task_id: int, amount: int = 1) -> bool:
        entry = self._entries.get(task_id)
        if entry is None:
            raise SimulationError(f"decrement for unknown task {task_id}")
        entry.pending -= amount
        if entry.pending < 0:
            raise SimulationError(f"dependence count of task {task_id} went negative")
        return entry.pending == 0

    def remove(self, task_id: int) -> None:
        del self._entries[task_id]

    def reset(self) -> None:
        self._entries.clear()


class _LegacyTaskPool:
    def __init__(self, capacity: int = _TASK_POOL_ENTRIES) -> None:
        self.capacity = capacity
        self._tasks: Dict[int, TaskDescriptor] = {}
        self.inserts = 0
        self.removals = 0
        self.full_events = 0
        self.peak_occupancy = 0

    def insert(self, task: TaskDescriptor) -> bool:
        if task.task_id in self._tasks:
            raise SimulationError(f"task {task.task_id} inserted twice")
        was_full = len(self._tasks) >= self.capacity
        if was_full:
            self.full_events += 1
        self._tasks[task.task_id] = task
        self.inserts += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._tasks))
        return was_full

    def remove(self, task_id: int) -> TaskDescriptor:
        task = self._tasks.pop(task_id, None)
        if task is None:
            raise SimulationError(f"removing unknown task {task_id}")
        self.removals += 1
        return task

    def reset(self) -> None:
        self._tasks.clear()


class _LegacyFunctionTable:
    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._name_to_id: Dict[str, int] = {}
        self._id_to_name: Dict[int, str] = {}

    def intern(self, function: str) -> int:
        existing = self._name_to_id.get(function)
        if existing is not None:
            return existing
        new_id = len(self._name_to_id)
        self._name_to_id[function] = new_id
        self._id_to_name[new_id] = function
        return new_id

    def reset(self) -> None:
        self._name_to_id.clear()
        self._id_to_name.clear()


@dataclass(frozen=True)
class _AccessRecord:
    address: int
    mode: _AccessMode
    table_index: int
    must_wait: bool
    set_conflict: bool


@dataclass(frozen=True)
class _InsertResult:
    task_id: int
    accesses: Tuple[_AccessRecord, ...]
    dependence_count: int
    ready: bool
    pool_was_full: bool


@dataclass(frozen=True)
class _FinishAccessRecord:
    address: int
    table_index: int
    kicked_off: Tuple[int, ...]


@dataclass(frozen=True)
class _FinishResult:
    task_id: int
    accesses: Tuple[_FinishAccessRecord, ...]
    newly_ready: Tuple[int, ...]


def _legacy_merge_access_modes(task: TaskDescriptor) -> List[Tuple[int, _AccessMode]]:
    """Pre-refactor merge, with the original per-call property costs inlined."""
    order: List[int] = []
    modes: Dict[int, Tuple[bool, bool]] = {}
    for param in task.params:
        direction = param.direction
        reads = direction in (Direction.IN, Direction.INOUT)
        writes = direction in (Direction.OUT, Direction.INOUT)
        if param.address in modes:
            prev_reads, prev_writes = modes[param.address]
            modes[param.address] = (prev_reads or reads, prev_writes or writes)
        else:
            modes[param.address] = (reads, writes)
            order.append(param.address)
    result: List[Tuple[int, _AccessMode]] = []
    for address in order:
        reads, writes = modes[address]
        if reads and writes:
            mode = _AccessMode.READWRITE
        elif writes:
            mode = _AccessMode.WRITE
        else:
            mode = _AccessMode.READ
        result.append((address, mode))
    return result


class _LegacyDependencyTracker:
    def __init__(self, num_tables: int = 1) -> None:
        self.num_tables = num_tables
        self.tables: List[_LegacyAddressTable] = [
            _LegacyAddressTable(name=f"TG{i}") for i in range(num_tables)
        ]
        self.dep_counts = _LegacyDepCounts()
        self.task_pool = _LegacyTaskPool()
        self.function_table = _LegacyFunctionTable()
        self._in_flight: Dict[int, TaskDescriptor] = {}
        self.total_inserted = 0
        self.total_finished = 0

    def table_for(self, address: int) -> int:
        return 0

    def insert_task(self, task: TaskDescriptor) -> _InsertResult:
        if task.task_id in self._in_flight:
            raise SimulationError(f"task {task.task_id} inserted twice")
        self._in_flight[task.task_id] = task
        pool_was_full = self.task_pool.insert(task)
        self.function_table.intern(task.function)
        accesses: List[_AccessRecord] = []
        dependence_count = 0
        for address, mode in _legacy_merge_access_modes(task):
            table_index = self.table_for(address)
            must_wait, set_conflict = self.tables[table_index].insert_access(address, task.task_id, mode)
            if must_wait:
                dependence_count += 1
            accesses.append(
                _AccessRecord(
                    address=address,
                    mode=mode,
                    table_index=table_index,
                    must_wait=must_wait,
                    set_conflict=set_conflict,
                )
            )
        self.dep_counts.register(task.task_id, dependence_count, params_total=len(accesses))
        self.total_inserted += 1
        return _InsertResult(
            task_id=task.task_id,
            accesses=tuple(accesses),
            dependence_count=dependence_count,
            ready=dependence_count == 0,
            pool_was_full=pool_was_full,
        )

    def finish_task(self, task_id: int) -> _FinishResult:
        task = self._in_flight.pop(task_id, None)
        if task is None:
            raise SimulationError(f"finish for unknown or already finished task {task_id}")
        if self.dep_counts.pending(task_id) != 0:
            raise SimulationError(f"task {task_id} finished with unresolved dependencies")
        pooled = self.task_pool.remove(task_id)
        accesses: List[_FinishAccessRecord] = []
        newly_ready: List[int] = []
        for address, _mode in _legacy_merge_access_modes(pooled):
            table_index = self.table_for(address)
            released = self.tables[table_index].finish_access(address, task_id)
            kicked: List[int] = []
            for waiter in released:
                kicked.append(waiter.task_id)
                if self.dep_counts.decrement(waiter.task_id):
                    newly_ready.append(waiter.task_id)
            accesses.append(
                _FinishAccessRecord(address=address, table_index=table_index, kicked_off=tuple(kicked))
            )
        self.dep_counts.remove(task_id)
        self.total_finished += 1
        return _FinishResult(task_id=task_id, accesses=tuple(accesses), newly_ready=tuple(newly_ready))

    def reset(self) -> None:
        for table in self.tables:
            table.reset()
        self.dep_counts.reset()
        self.task_pool.reset()
        self.function_table.reset()
        self._in_flight.clear()
        self.total_inserted = 0
        self.total_finished = 0


@dataclass(frozen=True)
class _ReadyNotification:
    task_id: int
    time_us: float


@dataclass(frozen=True)
class _SubmitOutcome:
    accept_time_us: float
    ready: Tuple[_ReadyNotification, ...] = ()


@dataclass(frozen=True)
class _FinishOutcome:
    ready: Tuple[_ReadyNotification, ...] = ()
    notify_done_us: float = 0.0


class LegacyIdealManager:
    """Frozen copy of the pre-refactor zero-overhead manager."""

    name = "Ideal"
    supports_taskwait_on = True
    worker_overhead_us = 0.0

    def __init__(self) -> None:
        self._tracker = _LegacyDependencyTracker(num_tables=1)

    def reset(self) -> None:
        self._tracker.reset()

    def submit(self, task: TaskDescriptor, time_us: float) -> _SubmitOutcome:
        result = self._tracker.insert_task(task)
        ready = (_ReadyNotification(task.task_id, time_us),) if result.ready else ()
        return _SubmitOutcome(accept_time_us=time_us, ready=ready)

    def finish(self, task_id: int, time_us: float) -> _FinishOutcome:
        result = self._tracker.finish_task(task_id)
        ready = tuple(_ReadyNotification(t, time_us) for t in result.newly_ready)
        return _FinishOutcome(ready=ready, notify_done_us=time_us)

    def statistics(self) -> Mapping[str, object]:
        return {
            "tasks_inserted": self._tracker.total_inserted,
            "tasks_finished": self._tracker.total_finished,
        }


# ---------------------------------------------------------------------------
# The pre-refactor machine loop (verbatim Machine.run snapshot).
# ---------------------------------------------------------------------------


def legacy_simulate(
    trace: Trace,
    manager,
    num_cores: int,
    *,
    validate: bool = False,
    keep_schedule: bool = True,
) -> Tuple[MachineResult, int]:
    """Run the pre-refactor loop; returns (result, events_processed)."""
    manager.reset()

    heap: List[Tuple[float, int, int, object]] = []
    counter = itertools.count()

    def push(time: float, priority: int, payload: object) -> None:
        heapq.heappush(heap, (time, priority, next(counter), payload))

    # --- state -------------------------------------------------------------
    events = trace.events
    num_events = len(events)
    event_index = 0
    master_time = 0.0
    master_blocked: Optional[Tuple[str, Optional[int]]] = None
    master_done = False

    idle_cores = num_cores
    ready_queue: Deque[int] = deque()
    outstanding = 0

    task_map: Dict[int, TaskDescriptor] = {}
    last_writer: Dict[int, int] = {}
    finished: Set[int] = set()

    submit_times: Dict[int, float] = {}
    ready_times: Dict[int, float] = {}
    start_times: Dict[int, float] = {}
    finish_times: Dict[int, float] = {}
    core_busy_us = 0.0
    makespan = 0.0
    processed = 0

    worker_overhead = manager.worker_overhead_us

    # --- helpers -------------------------------------------------------------
    def start_task(task_id: int, now: float) -> None:
        nonlocal idle_cores, core_busy_us
        task = task_map[task_id]
        start = now
        duration = worker_overhead + task.duration_us
        end = start + duration
        idle_cores -= 1
        core_busy_us += duration
        start_times[task_id] = start
        finish_times[task_id] = end
        push(end, _PRIORITY_DONE, ("done", task_id))

    def dispatch_ready(task_id: int, now: float) -> None:
        if task_id in start_times:
            raise SimulationError(f"task {task_id} reported ready twice")
        if idle_cores > 0:
            start_task(task_id, now)
        else:
            ready_queue.append(task_id)

    def barrier_satisfied(now: float) -> bool:
        nonlocal master_blocked, master_time
        if master_blocked is None:
            return False
        kind, waited_task = master_blocked
        if kind == "all":
            if outstanding != 0:
                return False
        else:
            assert waited_task is not None
            if waited_task not in finished:
                return False
        master_blocked = None
        master_time = max(master_time, now)
        return True

    def advance_master(now: float) -> None:
        nonlocal event_index, master_time, master_blocked, master_done, outstanding
        master_time = max(master_time, now)
        while event_index < num_events:
            event = events[event_index]
            if isinstance(event, TaskSubmitEvent):
                task = event.task
                event_index += 1
                task_map[task.task_id] = task
                submit_times[task.task_id] = master_time
                outstanding += 1
                for param in task.params:
                    if param.direction.writes:
                        last_writer[param.address] = task.task_id
                outcome = manager.submit(task, master_time)
                for notification in outcome.ready:
                    ready_times[notification.task_id] = notification.time_us
                    push(max(notification.time_us, master_time), _PRIORITY_READY,
                         ("ready", notification.task_id))
                next_time = max(outcome.accept_time_us,
                                master_time + task.creation_overhead_us)
                if next_time < master_time:
                    raise SimulationError(
                        f"manager {manager.name} accepted task {task.task_id} in the past"
                    )
                master_time = next_time
                if event_index < num_events:
                    push(master_time, _PRIORITY_MASTER, ("master", None))
                else:
                    master_done = True
                return
            if isinstance(event, TaskwaitEvent):
                if outstanding == 0:
                    event_index += 1
                    continue
                master_blocked = ("all", None)
                return
            if isinstance(event, TaskwaitOnEvent):
                degrade = not manager.supports_taskwait_on
                if degrade:
                    if outstanding == 0:
                        event_index += 1
                        continue
                    master_blocked = ("all", None)
                    return
                writer = last_writer.get(event.address)
                if writer is None or writer in finished:
                    event_index += 1
                    continue
                master_blocked = ("task", writer)
                return
            raise SimulationError(f"unknown trace event {event!r}")
        master_done = True

    # --- main loop ------------------------------------------------------------
    advance_master(0.0)
    while heap:
        now, _priority, _seq, payload = heapq.heappop(heap)
        processed += 1
        makespan = max(makespan, now)
        kind = payload[0]
        if kind == "master":
            if master_blocked is None and not master_done:
                advance_master(now)
        elif kind == "ready":
            dispatch_ready(payload[1], now)
        elif kind == "done":
            task_id = payload[1]
            outstanding -= 1
            finished.add(task_id)
            outcome = manager.finish(task_id, now)
            for notification in outcome.ready:
                ready_times[notification.task_id] = notification.time_us
                push(max(notification.time_us, now), _PRIORITY_READY,
                     ("ready", notification.task_id))
            idle_cores += 1
            if ready_queue:
                next_task = ready_queue.popleft()
                start_task(next_task, now)
            if barrier_satisfied(now) and not master_done:
                push(master_time, _PRIORITY_MASTER, ("master", None))
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event payload {payload!r}")

    # --- consistency checks -----------------------------------------------------
    expected_tasks = trace.num_tasks
    if len(finish_times) != expected_tasks:
        missing = expected_tasks - len(finish_times)
        raise SimulationError(
            f"{manager.name} on {trace.name}: {missing} of {expected_tasks} tasks never ran "
            "(deadlock or lost ready notification)"
        )
    if not master_done or master_blocked is not None:
        raise SimulationError(
            f"{manager.name} on {trace.name}: master thread did not reach the end of the trace"
        )
    makespan = max(makespan, master_time)

    if validate:
        validate_schedule(trace, start_times, finish_times)

    keep = keep_schedule
    result = MachineResult(
        trace_name=trace.name,
        manager_name=manager.name,
        num_cores=num_cores,
        makespan_us=makespan,
        total_work_us=trace.total_work_us,
        num_tasks=expected_tasks,
        submit_times=submit_times if keep else {},
        ready_times=ready_times if keep else {},
        start_times=start_times if keep else {},
        finish_times=finish_times if keep else {},
        master_finish_us=master_time,
        core_busy_us=core_busy_us,
        manager_stats=dict(manager.statistics()),
    )
    return result, processed
