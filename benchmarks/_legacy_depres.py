"""Frozen pre-compiled-engine dependence-resolution stack.

This module is a verbatim snapshot of the access-by-access dependency
engine and the three overhead-modelling managers as they stood *before*
the compiled dependence-resolution engine landed:

* ``LegacyDependencyTracker`` / ``LegacyAddressTable`` /
  ``LegacyAddressState`` / ``LegacyDependenceCountsTable`` — the tracker
  stack that re-merged each task's accesses and re-hashed every raw
  address on every submit;
* ``LegacyDependenceCountsArbiter`` — the per-result serial gather model;
* ``LegacyNanosManager`` / ``LegacyNexusPlusPlusManager`` /
  ``LegacyNexusSharpManager`` — the managers issuing one
  ``SerialResource.reserve`` call per access.

Together with ``legacy_simulate`` from ``_legacy_machine.py`` they form
the *frozen legacy stack* that ``bench_sim_throughput.py`` measures the
live runtime against, and the reference side of the tracker-equivalence
golden suite (``tests/golden/test_tracker_equivalence.py``).

Stable *value* types (the timing dataclasses, ``SerialResource`` and
``nexus_hash``) are imported from the live tree: they are pure
data/arithmetic whose change would shift golden makespans and be caught
elsewhere.  Everything with a hot-path *algorithm* is copied, and so are
``AccessMode``, ``Waiter``, ``TaskPool`` and ``FunctionTable``, which the
live tracker no longer has: the frozen copies keep the per-task pool and
function-table work this stack always did, with the pool capacity fixed
at ``LEGACY_TASK_POOL_ENTRIES`` (the configs' old default).

Do not use this module outside the benchmarks/tests, and do not "fix"
it — its value is that it does not change.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.common.constants import (
    DEFAULT_KICKOFF_CAPACITY,
    DEFAULT_TABLE_SETS,
    DEFAULT_TABLE_WAYS,
)
from repro.common.errors import ConfigurationError, ReproError, SimulationError
from repro.common.units import Frequency
from repro.common.validation import check_positive, check_power_of_two
from repro.managers.base import TaskManagerModel
from repro.nexus.distribution import nexus_hash
from repro.sim.resource import SerialResource
from repro.trace.task import Direction, TaskDescriptor

# ---------------------------------------------------------------------------
# Frozen outcome records: the legacy loop reads their fields by name, and
# they unpack like the library managers' plain tuples.
# ---------------------------------------------------------------------------


class ReadyNotification(NamedTuple):
    task_id: int
    time_us: float


class SubmitOutcome(NamedTuple):
    accept_time_us: float
    ready: Tuple[ReadyNotification, ...] = ()


class FinishOutcome(NamedTuple):
    ready: Tuple[ReadyNotification, ...] = ()
    notify_done_us: float = 0.0


# ---------------------------------------------------------------------------
# Frozen value types: access modes, kick-off list entries, task pool and
# function-pointer table.
# ---------------------------------------------------------------------------

#: Task-pool entries of the frozen Nexus managers.
LEGACY_TASK_POOL_ENTRIES = 1024


class CapacityError(ReproError):
    """A frozen hardware structure (task pool, function table) ran out of
    entries."""


class AccessMode(enum.Enum):
    """How a task accesses an address (frozen copy)."""

    READ = "read"
    WRITE = "write"
    READWRITE = "readwrite"

    reads: bool
    writes: bool
    flags: int


AccessMode.READ.reads = True
AccessMode.READ.writes = False
AccessMode.READ.flags = 1
AccessMode.WRITE.reads = False
AccessMode.WRITE.writes = True
AccessMode.WRITE.flags = 2
AccessMode.READWRITE.reads = True
AccessMode.READWRITE.writes = True
AccessMode.READWRITE.flags = 3


class Waiter(NamedTuple):
    """One entry of an address' kick-off list (frozen copy)."""

    task_id: int
    mode: AccessMode


@dataclass
class TaskPoolStats:
    inserts: int = 0
    removals: int = 0
    full_events: int = 0
    peak_occupancy: int = 0


class TaskPool:
    """Bounded storage of in-flight task descriptors (frozen copy)."""

    def __init__(self, capacity: int = LEGACY_TASK_POOL_ENTRIES, name: str = "task-pool") -> None:
        check_positive("capacity", capacity)
        self.capacity = capacity
        self.name = name
        self._tasks: Dict[int, TaskDescriptor] = {}
        self.stats = TaskPoolStats()

    @property
    def is_full(self) -> bool:
        return len(self._tasks) >= self.capacity

    def insert(self, task: TaskDescriptor) -> bool:
        if task.task_id in self._tasks:
            raise SimulationError(f"{self.name}: task {task.task_id} inserted twice")
        was_full = self.is_full
        if was_full:
            self.stats.full_events += 1
        self._tasks[task.task_id] = task
        self.stats.inserts += 1
        self.stats.peak_occupancy = max(self.stats.peak_occupancy, len(self._tasks))
        return was_full

    def remove(self, task_id: int) -> TaskDescriptor:
        task = self._tasks.pop(task_id, None)
        if task is None:
            raise SimulationError(f"{self.name}: removing unknown task {task_id}")
        self.stats.removals += 1
        return task

    def reset(self) -> None:
        self._tasks.clear()
        self.stats = TaskPoolStats()


class FunctionTable:
    """Function name -> hardware id table (frozen copy)."""

    def __init__(self, capacity: int = 256, name: str = "function-table") -> None:
        if capacity <= 0:
            raise ConfigurationError(f"{name}: capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._name_to_id: Dict[str, int] = {}
        self._id_to_name: Dict[int, str] = {}

    def intern(self, function: str) -> int:
        existing = self._name_to_id.get(function)
        if existing is not None:
            return existing
        if len(self._name_to_id) >= self.capacity:
            raise CapacityError(
                f"{self.name}: cannot register function {function!r}; all {self.capacity} "
                "entries are in use"
            )
        new_id = len(self._name_to_id)
        self._name_to_id[function] = new_id
        self._id_to_name[new_id] = function
        return new_id

    def reset(self) -> None:
        self._name_to_id.clear()
        self._id_to_name.clear()


# ---------------------------------------------------------------------------
# Frozen per-address dependency state (pre-compiled-engine address_state.py).
# ---------------------------------------------------------------------------


class LegacyAddressState:
    """Dependency state of a single tracked address (frozen copy)."""

    __slots__ = ("address", "active_writer", "active_readers", "waiters",
                 "total_waiters_enqueued", "max_kickoff_length")

    def __init__(
        self,
        address: int,
        active_writer: Optional[int] = None,
        active_readers: Optional[Set[int]] = None,
        waiters: Optional[Deque[Waiter]] = None,
        total_waiters_enqueued: int = 0,
        max_kickoff_length: int = 0,
    ) -> None:
        self.address = address
        self.active_writer = active_writer
        self.active_readers = active_readers if active_readers is not None else set()
        self.waiters = waiters if waiters is not None else deque()
        self.total_waiters_enqueued = total_waiters_enqueued
        self.max_kickoff_length = max_kickoff_length

    @property
    def is_idle(self) -> bool:
        return self.active_writer is None and not self.active_readers and not self.waiters

    @property
    def kickoff_length(self) -> int:
        return len(self.waiters)

    def insert(self, task_id: int, mode: AccessMode) -> bool:
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

    def _enqueue(self, task_id: int, mode: AccessMode) -> None:
        self.waiters.append(Waiter(task_id, mode))
        self.total_waiters_enqueued += 1
        length = len(self.waiters)
        if length > self.max_kickoff_length:
            self.max_kickoff_length = length

    def finish(self, task_id: int) -> List[Waiter]:
        released: List[Waiter] = []
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

    def _activate_waiters(self) -> List[Waiter]:
        released: List[Waiter] = []
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


# ---------------------------------------------------------------------------
# Frozen set-associative address table (pre-compiled-engine table.py).
# ---------------------------------------------------------------------------


def _legacy_set_index(address: int, num_sets: int) -> int:
    return (address >> 6) & (num_sets - 1)


def _legacy_ways_for(kickoff_length: int, kickoff_capacity: int) -> int:
    if kickoff_length <= kickoff_capacity:
        return 1
    overflow = kickoff_length - kickoff_capacity
    return 1 + -(-overflow // kickoff_capacity)


@dataclass
class LegacyTableStats:
    lookups: int = 0
    insertions: int = 0
    evictions: int = 0
    set_conflicts: int = 0
    dummy_entries_peak: int = 0
    max_live_entries: int = 0


class LegacyAddressTable:
    """Set-associative container of per-address state (frozen copy)."""

    def __init__(
        self,
        num_sets: int = DEFAULT_TABLE_SETS,
        ways: int = DEFAULT_TABLE_WAYS,
        kickoff_capacity: int = DEFAULT_KICKOFF_CAPACITY,
        name: str = "task-graph",
    ) -> None:
        check_power_of_two("num_sets", num_sets)
        check_positive("ways", ways)
        check_positive("kickoff_capacity", kickoff_capacity)
        self.num_sets = num_sets
        self.ways = ways
        self.kickoff_capacity = kickoff_capacity
        self.name = name
        self._entries: Dict[int, LegacyAddressState] = {}
        self._set_occupancy: Dict[int, int] = {}
        self.stats = LegacyTableStats()

    def set_index(self, address: int) -> int:
        return _legacy_set_index(address, self.num_sets)

    @property
    def live_entries(self) -> int:
        return len(self._entries)

    def insert_access(self, address: int, task_id: int, mode: AccessMode) -> Tuple[bool, bool]:
        stats = self.stats
        stats.lookups += 1
        entries = self._entries
        entry = entries.get(address)
        set_idx = _legacy_set_index(address, self.num_sets)
        set_conflict = False
        if entry is None:
            occupancy = self._set_occupancy.get(set_idx, 0)
            if occupancy >= self.ways:
                set_conflict = True
                stats.set_conflicts += 1
            entry = LegacyAddressState(address)
            entries[address] = entry
            self._set_occupancy[set_idx] = occupancy + 1
            stats.insertions += 1
            if len(entries) > stats.max_live_entries:
                stats.max_live_entries = len(entries)
        capacity = self.kickoff_capacity
        before_ways = _legacy_ways_for(len(entry.waiters), capacity)
        must_wait = entry.insert(task_id, mode)
        after_ways = _legacy_ways_for(len(entry.waiters), capacity)
        if after_ways != before_ways:
            self._set_occupancy[set_idx] = self._set_occupancy.get(set_idx, 0) + (after_ways - before_ways)
            stats.dummy_entries_peak = max(stats.dummy_entries_peak, after_ways - 1)
        return must_wait, set_conflict

    def finish_access(self, address: int, task_id: int) -> List[Waiter]:
        entry = self._entries.get(address)
        if entry is None:
            raise SimulationError(f"{self.name}: finish on untracked address {address:#x}")
        set_idx = _legacy_set_index(address, self.num_sets)
        capacity = self.kickoff_capacity
        before_ways = _legacy_ways_for(len(entry.waiters), capacity)
        released = entry.finish(task_id)
        after_ways = _legacy_ways_for(len(entry.waiters), capacity)
        if entry.active_writer is None and not entry.active_readers and not entry.waiters:
            del self._entries[address]
            self._set_occupancy[set_idx] = max(0, self._set_occupancy.get(set_idx, 0) - before_ways)
            self.stats.evictions += 1
        elif after_ways != before_ways:
            self._set_occupancy[set_idx] = max(0, self._set_occupancy.get(set_idx, 0) + (after_ways - before_ways))
        return released

    def reset(self) -> None:
        self._entries.clear()
        self._set_occupancy.clear()
        self.stats = LegacyTableStats()


# ---------------------------------------------------------------------------
# Frozen dependence-counts table (pre-compiled-engine dep_counts.py).
# ---------------------------------------------------------------------------


@dataclass
class LegacyDepCountEntry:
    task_id: int
    pending: int
    params_seen: int = 0
    params_total: int = 0


class LegacyDependenceCountsTable:
    def __init__(self, name: str = "dep-counts") -> None:
        self.name = name
        self._entries: Dict[int, LegacyDepCountEntry] = {}
        self.peak_entries = 0

    def __len__(self) -> int:
        return len(self._entries)

    def register(self, task_id: int, pending: int, params_total: int = 0) -> LegacyDepCountEntry:
        if task_id in self._entries:
            raise SimulationError(f"{self.name}: task {task_id} registered twice")
        if pending < 0:
            raise SimulationError(f"{self.name}: negative dependence count {pending} for task {task_id}")
        entry = LegacyDepCountEntry(task_id=task_id, pending=pending, params_total=params_total)
        self._entries[task_id] = entry
        self.peak_entries = max(self.peak_entries, len(self._entries))
        return entry

    def pending(self, task_id: int) -> int:
        entry = self._entries.get(task_id)
        if entry is None:
            raise SimulationError(f"{self.name}: task {task_id} is not in flight")
        return entry.pending

    def decrement(self, task_id: int, amount: int = 1) -> bool:
        entry = self._entries.get(task_id)
        if entry is None:
            raise SimulationError(f"{self.name}: decrement for unknown task {task_id}")
        entry.pending -= amount
        if entry.pending < 0:
            raise SimulationError(
                f"{self.name}: dependence count of task {task_id} went negative ({entry.pending})"
            )
        return entry.pending == 0

    def remove(self, task_id: int) -> None:
        if task_id not in self._entries:
            raise SimulationError(f"{self.name}: removing unknown task {task_id}")
        del self._entries[task_id]

    def reset(self) -> None:
        self._entries.clear()
        self.peak_entries = 0


# ---------------------------------------------------------------------------
# Frozen functional dependency engine (pre-compiled-engine tracker.py).
# ---------------------------------------------------------------------------


class LegacyAccessRecord(NamedTuple):
    address: int
    mode: AccessMode
    table_index: int
    must_wait: bool
    set_conflict: bool


class LegacyInsertResult(NamedTuple):
    task_id: int
    accesses: Tuple[LegacyAccessRecord, ...]
    dependence_count: int
    ready: bool
    pool_was_full: bool

    @property
    def num_accesses(self) -> int:
        return len(self.accesses)


class LegacyFinishAccessRecord(NamedTuple):
    address: int
    table_index: int
    kicked_off: Tuple[int, ...]


class LegacyFinishResult(NamedTuple):
    task_id: int
    accesses: Tuple[LegacyFinishAccessRecord, ...]
    newly_ready: Tuple[int, ...]

    @property
    def num_accesses(self) -> int:
        return len(self.accesses)

    @property
    def num_kickoffs(self) -> int:
        return sum(len(a.kicked_off) for a in self.accesses)


_LEGACY_MODE_OF_DIRECTION = {
    Direction.IN: AccessMode.READ,
    Direction.OUT: AccessMode.WRITE,
    Direction.INOUT: AccessMode.READWRITE,
}


def legacy_merge_access_modes(task: TaskDescriptor) -> List[Tuple[int, AccessMode]]:
    params = task.params
    merged: Dict[int, AccessMode] = {}
    mode_of = _LEGACY_MODE_OF_DIRECTION
    for param in params:
        address = param.address
        mode = mode_of[param.direction]
        previous = merged.get(address)
        if previous is None:
            merged[address] = mode
        elif previous is not mode:
            merged[address] = AccessMode.READWRITE
    return list(merged.items())


class LegacyDependencyTracker:
    """Access-by-access dependency resolution (frozen pre-compiled copy)."""

    def __init__(
        self,
        num_tables: int = 1,
        distribute: Optional[Callable[[int], int]] = None,
        table_factory: Optional[Callable[[int], LegacyAddressTable]] = None,
        task_pool: Optional[TaskPool] = None,
        function_table: Optional[FunctionTable] = None,
    ) -> None:
        if num_tables <= 0:
            raise ConfigurationError(f"num_tables must be positive, got {num_tables}")
        self.num_tables = num_tables
        self._distribute = distribute or (lambda address: 0)
        factory = table_factory or (lambda index: LegacyAddressTable(name=f"TG{index}"))
        self.tables: List[LegacyAddressTable] = [factory(i) for i in range(num_tables)]
        self.dep_counts = LegacyDependenceCountsTable()
        self.task_pool = task_pool or TaskPool()
        self.function_table = function_table or FunctionTable()
        self._in_flight: Dict[int, TaskDescriptor] = {}
        self._merged_accesses: Dict[int, List[Tuple[int, AccessMode]]] = {}
        self.total_inserted = 0
        self.total_finished = 0

    def insert_task(self, task: TaskDescriptor) -> LegacyInsertResult:
        task_id = task.task_id
        if task_id in self._in_flight:
            raise SimulationError(f"task {task_id} inserted twice")
        self._in_flight[task_id] = task
        pool_was_full = self.task_pool.insert(task)
        self.function_table.intern(task.function)
        merged = legacy_merge_access_modes(task)
        self._merged_accesses[task_id] = merged
        accesses: List[LegacyAccessRecord] = []
        append = accesses.append
        tables = self.tables
        distribute = self._distribute
        num_tables = self.num_tables
        dependence_count = 0
        for address, mode in merged:
            table_index = distribute(address)
            if not 0 <= table_index < num_tables:
                raise SimulationError(
                    f"distribution function returned table {table_index} for address "
                    f"{address:#x}; valid range is [0, {num_tables})"
                )
            must_wait, set_conflict = tables[table_index].insert_access(address, task_id, mode)
            if must_wait:
                dependence_count += 1
            append(LegacyAccessRecord(address, mode, table_index, must_wait, set_conflict))
        self.dep_counts.register(task_id, dependence_count, params_total=len(accesses))
        self.total_inserted += 1
        return LegacyInsertResult(
            task_id,
            tuple(accesses),
            dependence_count,
            dependence_count == 0,
            pool_was_full,
        )

    def finish_task(self, task_id: int) -> LegacyFinishResult:
        task = self._in_flight.pop(task_id, None)
        if task is None:
            raise SimulationError(f"finish for unknown or already finished task {task_id}")
        dep_counts = self.dep_counts
        if dep_counts.pending(task_id) != 0:
            raise SimulationError(
                f"task {task_id} finished while still having "
                f"{dep_counts.pending(task_id)} unresolved dependencies"
            )
        self.task_pool.remove(task_id)
        merged = self._merged_accesses.pop(task_id)
        accesses: List[LegacyFinishAccessRecord] = []
        append = accesses.append
        newly_ready: List[int] = []
        tables = self.tables
        distribute = self._distribute
        decrement = dep_counts.decrement
        for address, _mode in merged:
            table_index = distribute(address)
            released = tables[table_index].finish_access(address, task_id)
            kicked: List[int] = []
            for waiter in released:
                waiter_id = waiter.task_id
                kicked.append(waiter_id)
                if decrement(waiter_id):
                    newly_ready.append(waiter_id)
            append(LegacyFinishAccessRecord(address, table_index, tuple(kicked)))
        dep_counts.remove(task_id)
        self.total_finished += 1
        return LegacyFinishResult(task_id, tuple(accesses), tuple(newly_ready))

    def reset(self) -> None:
        for table in self.tables:
            table.reset()
        self.dep_counts.reset()
        self.task_pool.reset()
        self.function_table.reset()
        self._in_flight.clear()
        self._merged_accesses.clear()
        self.total_inserted = 0
        self.total_finished = 0


# ---------------------------------------------------------------------------
# Frozen Dependence Counts Arbiter (pre-compiled-engine arbiter.py).
# ---------------------------------------------------------------------------


@dataclass
class _LegacyPendingGather:
    expected_results: int
    collected_results: int = 0
    last_result_time_us: float = 0.0


class LegacyDependenceCountsArbiter:
    def __init__(self, cycles_per_result: float, conclude_cycles: float,
                 decrement_cycles: float, cycle_us: float) -> None:
        if cycle_us <= 0:
            raise SimulationError(f"cycle time must be positive, got {cycle_us}")
        self._resource = SerialResource("dependence-counts-arbiter")
        self._cycles_per_result = cycles_per_result
        self._conclude_cycles = conclude_cycles
        self._decrement_cycles = decrement_cycles
        self._cycle_us = cycle_us
        self._pending: Dict[int, _LegacyPendingGather] = {}
        self.tasks_concluded = 0
        self.decrements_processed = 0

    def begin_task(self, task_id: int, expected_results: int) -> None:
        if task_id in self._pending:
            raise SimulationError(f"arbiter already tracking task {task_id}")
        self._pending[task_id] = _LegacyPendingGather(expected_results=expected_results)

    def collect_result(self, task_id: int, result_ready_us: float) -> Optional[float]:
        pending = self._pending.get(task_id)
        if pending is None:
            raise SimulationError(f"arbiter received a result for unknown task {task_id}")
        _, end = self._resource.reserve(result_ready_us, self._cycles_per_result * self._cycle_us)
        pending.collected_results += 1
        pending.last_result_time_us = end
        if pending.collected_results < pending.expected_results:
            return None
        _, conclude_end = self._resource.reserve(end, self._conclude_cycles * self._cycle_us)
        del self._pending[task_id]
        self.tasks_concluded += 1
        return conclude_end

    def decrement(self, ready_us: float) -> float:
        _, end = self._resource.reserve(ready_us, self._decrement_cycles * self._cycle_us)
        self.decrements_processed += 1
        return end

    def reset(self) -> None:
        self._resource.reset()
        self._pending.clear()
        self.tasks_concluded = 0
        self.decrements_processed = 0


# ---------------------------------------------------------------------------
# Frozen manager models (pre-compiled-engine nanos.py / nexuspp.py /
# nexussharp.py), running on the frozen tracker stack above.
# ---------------------------------------------------------------------------


class LegacyNanosManager(TaskManagerModel):
    """Frozen copy of the Nanos software-runtime model."""

    name = "Nanos"
    supports_taskwait_on = True

    def __init__(self, config=None) -> None:
        from repro.managers.nanos import NanosConfig

        self.config = config or NanosConfig()
        self.worker_overhead_us = self.config.worker_dispatch_us
        self._tracker = LegacyDependencyTracker(num_tables=1)
        self._lock = SerialResource("nanos-runtime-lock")

    def reset(self) -> None:
        self._tracker.reset()
        self._lock.reset()

    def submit(self, task: TaskDescriptor, time_us: float) -> SubmitOutcome:
        cfg = self.config
        result = self._tracker.insert_task(task)
        num_params = max(1, result.num_accesses)
        creation_done = time_us + cfg.task_creation_us + cfg.creation_per_param_us * num_params
        lock_cost = cfg.insert_lock_us + cfg.insert_lock_per_param_us * num_params
        _, insert_done = self._lock.reserve(creation_done, lock_cost)
        ready = ()
        if result.ready:
            ready = (ReadyNotification(task.task_id, insert_done),)
        return SubmitOutcome(accept_time_us=insert_done, ready=ready)

    def finish(self, task_id: int, time_us: float) -> FinishOutcome:
        cfg = self.config
        result = self._tracker.finish_task(task_id)
        lock_cost = cfg.finish_lock_us + cfg.wakeup_per_task_us * result.num_kickoffs
        _, finish_done = self._lock.reserve(time_us, lock_cost)
        ready = tuple(ReadyNotification(t, finish_done) for t in result.newly_ready)
        return FinishOutcome(ready=ready, notify_done_us=finish_done)


class LegacyNexusPlusPlusManager(TaskManagerModel):
    """Frozen copy of the Nexus++ centralised manager model."""

    supports_taskwait_on = False
    worker_overhead_us = 0.0

    def __init__(self, config=None) -> None:
        from repro.nexus.nexuspp import NexusPlusPlusConfig

        self.config = config or NexusPlusPlusConfig()
        self.name = "Nexus++"
        self._frequency = Frequency(self.config.frequency_mhz)
        self._cycle_us = self._frequency.cycle_time_us
        self._tracker = LegacyDependencyTracker(
            num_tables=1,
            table_factory=lambda index: LegacyAddressTable(
                num_sets=self.config.table_sets,
                ways=self.config.table_ways,
                kickoff_capacity=self.config.kickoff_capacity,
                name="nexus++-task-graph",
            ),
            task_pool=TaskPool(capacity=LEGACY_TASK_POOL_ENTRIES, name="nexus++-task-pool"),
        )
        self._input_parser = SerialResource("nexus++-input-parser")
        self._task_graph = SerialResource("nexus++-task-graph-port")
        self._write_back = SerialResource("nexus++-write-back")
        self._ready_latency_total_us = 0.0
        self._ready_count = 0

    def _cycles(self, cycles: float) -> float:
        return cycles * self._cycle_us

    def reset(self) -> None:
        self._tracker.reset()
        self._input_parser.reset()
        self._task_graph.reset()
        self._write_back.reset()
        self._ready_latency_total_us = 0.0
        self._ready_count = 0

    def submit(self, task: TaskDescriptor, time_us: float) -> SubmitOutcome:
        timing = self.config.timing
        result = self._tracker.insert_task(task)
        num_params = max(1, task.num_params)

        _, input_end = self._input_parser.reserve(time_us, self._cycles(timing.input_cycles(num_params)))

        insert_available = input_end + self._cycles(self.config.fifo_latency_cycles)
        insert_cycles = timing.insert_cycles(len(result.accesses) or 1)
        conflict_cycles = timing.set_conflict_stall_cycles * sum(1 for a in result.accesses if a.set_conflict)
        _, insert_end = self._task_graph.reserve(insert_available, self._cycles(insert_cycles + conflict_cycles))

        ready: Tuple[ReadyNotification, ...] = ()
        if result.ready:
            wb_available = insert_end + self._cycles(self.config.fifo_latency_cycles)
            _, wb_end = self._write_back.reserve(wb_available, self._cycles(timing.writeback_cycles))
            ready = (ReadyNotification(task.task_id, wb_end),)
            self._ready_latency_total_us += wb_end - time_us
            self._ready_count += 1

        return SubmitOutcome(accept_time_us=input_end, ready=ready)

    def finish(self, task_id: int, time_us: float) -> FinishOutcome:
        timing = self.config.timing
        result = self._tracker.finish_task(task_id)
        num_params = max(1, result.num_accesses)

        _, notify_end = self._input_parser.reserve(time_us, self._cycles(timing.finish_notify_cycles))

        cleanup_available = notify_end + self._cycles(self.config.fifo_latency_cycles)
        cleanup_cycles = timing.cleanup_cycles(num_params)
        cleanup_cycles += timing.kickoff_cycles_per_waiter * result.num_kickoffs
        _, cleanup_end = self._task_graph.reserve(cleanup_available, self._cycles(cleanup_cycles))

        notifications: List[ReadyNotification] = []
        wb_available = cleanup_end + self._cycles(self.config.fifo_latency_cycles)
        for ready_task in result.newly_ready:
            _, wb_end = self._write_back.reserve(wb_available, self._cycles(timing.writeback_cycles))
            notifications.append(ReadyNotification(ready_task, wb_end))
            self._ready_latency_total_us += wb_end - time_us
            self._ready_count += 1
        return FinishOutcome(ready=tuple(notifications), notify_done_us=cleanup_end)


class LegacyNexusSharpManager(TaskManagerModel):
    """Frozen copy of the Nexus# distributed manager model."""

    supports_taskwait_on = True
    worker_overhead_us = 0.0

    def __init__(self, config=None) -> None:
        from repro.nexus.nexussharp import NexusSharpConfig

        self.config = config or NexusSharpConfig()
        self.name = f"Nexus# {self.config.num_task_graphs}TG"
        self._frequency = Frequency(self.config.effective_frequency_mhz)
        self._cycle_us = self._frequency.cycle_time_us
        num_tg = self.config.num_task_graphs
        self._tracker = LegacyDependencyTracker(
            num_tables=num_tg,
            distribute=lambda address: nexus_hash(address, num_tg),
            table_factory=lambda index: LegacyAddressTable(
                num_sets=self.config.table_sets,
                ways=self.config.table_ways,
                kickoff_capacity=self.config.kickoff_capacity,
                name=f"nexus#-TG{index}",
            ),
            task_pool=TaskPool(capacity=LEGACY_TASK_POOL_ENTRIES, name="nexus#-task-pool"),
        )
        timing = self.config.timing
        self._input_parser = SerialResource("nexus#-input-parser")
        self._task_graph_ports = [SerialResource(f"nexus#-TG{i}-port") for i in range(num_tg)]
        self._write_back = SerialResource("nexus#-write-back")
        self._arbiter = LegacyDependenceCountsArbiter(
            cycles_per_result=timing.arbiter_cycles_per_result,
            conclude_cycles=timing.arbiter_conclude_cycles,
            decrement_cycles=timing.arbiter_decrement_cycles,
            cycle_us=self._cycle_us,
        )
        self._ready_latency_total_us = 0.0
        self._ready_count = 0

    def _cycles(self, cycles: float) -> float:
        return cycles * self._cycle_us

    def reset(self) -> None:
        self._tracker.reset()
        self._input_parser.reset()
        for port in self._task_graph_ports:
            port.reset()
        self._write_back.reset()
        self._arbiter.reset()
        self._ready_latency_total_us = 0.0
        self._ready_count = 0

    def _write_back_ready(self, task_id: int, concluded_us: float, reference_us: float) -> ReadyNotification:
        timing = self.config.timing
        wb_available = concluded_us + self._cycles(timing.ready_fifo_latency_cycles)
        _, wb_end = self._write_back.reserve(wb_available, self._cycles(timing.writeback_cycles))
        self._ready_latency_total_us += wb_end - reference_us
        self._ready_count += 1
        return ReadyNotification(task_id, wb_end)

    def submit(self, task: TaskDescriptor, time_us: float) -> SubmitOutcome:
        timing = self.config.timing
        result = self._tracker.insert_task(task)
        num_params = max(1, task.num_params)

        ip_start, ip_end = self._input_parser.reserve(time_us, self._cycles(timing.input_cycles(num_params)))

        insert_ends: List[float] = []
        for index, access in enumerate(result.accesses):
            forward_us = ip_start + self._cycles(timing.param_forward_offset_cycles(index))
            visible_us = forward_us + self._cycles(timing.args_fifo_latency_cycles)
            insert_cycles = timing.insert_cycles_per_param
            if access.set_conflict:
                insert_cycles += timing.set_conflict_stall_cycles
            _, tg_end = self._task_graph_ports[access.table_index].reserve(
                visible_us, self._cycles(insert_cycles)
            )
            insert_ends.append(tg_end)

        ready: Tuple[ReadyNotification, ...] = ()
        if result.accesses:
            self._arbiter.begin_task(task.task_id, expected_results=len(result.accesses))
            concluded: Optional[float] = None
            for tg_end in sorted(insert_ends):
                concluded = self._arbiter.collect_result(task.task_id, tg_end)
            assert concluded is not None
            if result.ready:
                ready = (self._write_back_ready(task.task_id, concluded, time_us),)
        else:
            ready = (self._write_back_ready(task.task_id, ip_end, time_us),)

        return SubmitOutcome(accept_time_us=ip_end, ready=ready)

    def finish(self, task_id: int, time_us: float) -> FinishOutcome:
        timing = self.config.timing
        result = self._tracker.finish_task(task_id)
        num_params = max(1, result.num_accesses)

        fp_start, fp_end = self._input_parser.reserve(
            time_us, self._cycles(timing.finish_input_cycles(num_params))
        )

        last_decrement: Dict[int, float] = {}
        for index, access in enumerate(result.accesses):
            forward_us = fp_start + self._cycles(timing.finish_param_forward_offset_cycles(index))
            visible_us = forward_us + self._cycles(timing.args_fifo_latency_cycles)
            update_cycles = timing.finish_update_cycles_per_param
            update_cycles += timing.kickoff_cycles_per_waiter * len(access.kicked_off)
            _, tg_end = self._task_graph_ports[access.table_index].reserve(
                visible_us, self._cycles(update_cycles)
            )
            for waiter in access.kicked_off:
                decrement_end = self._arbiter.decrement(tg_end)
                previous = last_decrement.get(waiter, 0.0)
                last_decrement[waiter] = max(previous, decrement_end)

        notifications: List[ReadyNotification] = []
        for ready_task in result.newly_ready:
            concluded = last_decrement.get(ready_task, fp_end)
            notifications.append(self._write_back_ready(ready_task, concluded, time_us))
        return FinishOutcome(ready=tuple(notifications), notify_done_us=fp_end)


#: Factories for the frozen managers, keyed the way the benchmark names rows.
def legacy_manager_factory(key: str):
    """Return a zero-argument factory building the frozen manager ``key``."""
    if key == "nanos":
        return LegacyNanosManager
    if key == "nexuspp":
        return LegacyNexusPlusPlusManager
    if key.startswith("nexus#"):
        num_tg = int(key.split("#", 1)[1])

        def build() -> LegacyNexusSharpManager:
            from repro.nexus.nexussharp import NexusSharpConfig

            return LegacyNexusSharpManager(NexusSharpConfig(num_task_graphs=num_tg))

        return build
    raise ConfigurationError(f"unknown legacy manager key {key!r}")
