"""The functional dependency engine shared by all hardware manager models.

Nexus++ and Nexus# differ in *where* the per-address state lives (one
central task graph vs. several distributed ones) and in the cycle cost of
getting information in and out, but the dependency bookkeeping itself is
identical.  :class:`DependencyTracker` implements that bookkeeping over a
configurable number of :class:`~repro.taskgraph.table.AddressTable`
instances:

* :meth:`insert_task` registers a new task's accesses and returns
  ``(rows, dependence_count, wait_mask, conflict_mask)``: the task's
  preresolved rows (which carry each access's task-graph index) and, per
  mask, bit *i* set when row *i* had to wait / hit a full set;
* :meth:`finish_task` replays a finished task's accesses, kicks off
  waiting tasks and returns ``(rows, released, newly_ready,
  kickoff_count)``: ``released[i]`` lists the waiters row *i* kicked off
  and ``newly_ready`` the tasks whose count reached zero, in order.

Both return flat tuples of ints and plain lists — no per-access or
per-task record objects on the simulation hot path.  The timing layers
in :mod:`repro.nexus` translate these results into pipeline occupancy;
the functional result (who waits for whom) is identical for every
hardware configuration, which the property-based tests assert against
the reference DAG.

The per-address state machine
-----------------------------
Accesses to one address are serialised the way the OmpSs runtime and the
Nexus hardware do it: readers since the last writer run concurrently, a
writer waits for the previous writer and every reader since (WAW + WAR),
a reader waits for an unfinished writer (RAW), and an access arriving
while others wait on the address queues behind them (program order).
The result is the partial order of the reference dependency DAG
(:mod:`repro.trace.dag`).  Each tracked address keeps:

* ``act_rem``, the number of activated (proceeding) accesses that have
  not finished, and ``act_writer``, whether that active set is one
  writer (1) or readers (0);
* the address's kick-off list: a queue of waiting accesses, each
  ``owner << 2 | flags`` (bit 1 of the flags = writes), consumed through
  an activation cursor.

An address is live (it holds a table entry) while ``act_rem > 0``; a
non-empty queue implies a live address.  Its kick-off length is
``len(queue) - cursor``.  An access to an idle address takes a fresh
entry and proceeds; a reader proceeds on a live address only when the
queue is empty and the active set is readers; everything else is
appended to the queue.  A finish decrements ``act_rem`` and then
activates from the cursor: a queued writer when nothing is active, then
stop; a run of queued readers while no writer is active.  The queue is
cleared once the cursor passes its end, and its consumed prefix is
dropped once the cursor is past 64 entries and past half the queue, so
memory stays O(in-flight tasks + live addresses) on an unbounded
stream.  The replay kernel :func:`repro.sim.batch.run_kernel` keeps the
same state per interned address and grows the same queues at insert.

The tracker has one insert path, resolution at insert.  Only streams
and dynamic programs reach the engine that drives it (static traces
replay on the kernel), so every task arrives on its own:
:meth:`insert_task` merges, interns and resolves the task's accesses
into ``(address_id, raw address, flags, table_index, set_index)`` rows.
Live addresses get dense ids from a map with a free list; an id is
freed when its address goes idle, which only happens once no in-flight
task references the address, so a freed id never aliases a live one,
and an idle id's state is already that of a fresh address.

A task's rows stay in the in-flight map from insert to
:meth:`finish_task` and are dropped there.  The rows and the dependence
count are all the tracker keeps per task.  The tracker is pinned against
the frozen pre-compiled engine by the golden tracker-equivalence suite.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.taskgraph.table import AddressTable, ways_for
from repro.trace.compiled import merge_flags
from repro.trace.task import TaskDescriptor

#: One preresolved access: (address id, raw address, flags, table, set).
Row = Tuple[int, int, int, int, int]


class DependencyTracker:
    """Functional dependency resolution over one or more address tables.

    Only the dependence state is modelled: the per-address tables and the
    per-task dependence counts.  The hardware's Task Pool and Function
    Pointers table decide nothing about who waits for whom; their cycles
    are part of the Nexus pipeline timings (:mod:`repro.nexus.timing`).

    Parameters
    ----------
    num_tables:
        Number of task graphs the addresses are distributed over.
    distribute:
        Function mapping an address to a table index in
        ``range(num_tables)``.  Defaults to "always table 0", which is the
        Nexus++ (centralised) behaviour.
    table_factory:
        Callable creating the :class:`AddressTable` for a given index,
        allowing callers to configure geometry.
    """

    def __init__(
        self,
        num_tables: int = 1,
        distribute: Optional[Callable[[int], int]] = None,
        table_factory: Optional[Callable[[int], AddressTable]] = None,
    ) -> None:
        if num_tables <= 0:
            raise ConfigurationError(f"num_tables must be positive, got {num_tables}")
        self.num_tables = num_tables
        self._distribute = distribute or (lambda address: 0)
        factory = table_factory or (lambda index: AddressTable(name=f"TG{index}"))
        self.tables: List[AddressTable] = [factory(i) for i in range(num_tables)]
        #: the Dependence Counts table: unresolved accesses per in-flight task
        self._pending: Dict[int, int] = {}
        #: rows of each in-flight task (inserted, not yet finished)
        self._rows_of: Dict[int, Tuple[Row, ...]] = {}
        #: live raw address -> (dense id, table index, set index)
        self._live: Dict[int, Tuple[int, int, int]] = {}
        #: dense ids of idle addresses, reused before the arrays grow
        self._free_ids: List[int] = []
        self._clear_addresses()
        self._prefetch_tables()
        self.total_inserted = 0
        self.total_finished = 0

    def _clear_addresses(self) -> None:
        """Forget every address: the per-address state of the module
        docstring, indexed by dense address id."""
        self._act_rem: List[int] = []
        self._act_writer: List[int] = []
        self._queue: List[List[int]] = []
        self._cursor: List[int] = []

    def _prefetch_tables(self) -> None:
        """Cache per-table structures as parallel lists for the hot loops.

        ``AddressTable.reset`` replaces the stats and occupancy objects,
        so this runs again after every table reset.
        """
        tables = self.tables
        self._stats_by = [table.stats for table in tables]
        self._occ_by = [table.set_occupancy_array for table in tables]
        self._ways_by = [table.ways for table in tables]
        self._cap_by = [table.kickoff_capacity for table in tables]

    # -- helpers --------------------------------------------------------------
    def table_for(self, address: int) -> int:
        """Index of the task graph responsible for ``address``."""
        index = self._distribute(address)
        if not 0 <= index < self.num_tables:
            raise SimulationError(
                f"distribution function returned table {index} for address {address:#x}; "
                f"valid range is [0, {self.num_tables})"
            )
        return index

    @property
    def in_flight_tasks(self) -> int:
        """Number of tasks inserted but not yet finished."""
        return len(self._rows_of)

    def _resolve_task(self, task: TaskDescriptor) -> Tuple[Row, ...]:
        """Merge, intern and resolve the accesses of ``task``."""
        live = self._live
        rows: List[Row] = []
        for address, flag in merge_flags(task.addresses, task.flags).items():
            placement = live.get(address)
            if placement is None:
                table_index = self.table_for(address)
                set_idx = self.tables[table_index].set_index(address)
                free_ids = self._free_ids
                if free_ids:
                    aid = free_ids.pop()
                else:
                    aid = len(self._act_rem)
                    self._act_rem.append(0)
                    self._act_writer.append(0)
                    self._queue.append([])
                    self._cursor.append(0)
                placement = live[address] = (aid, table_index, set_idx)
            aid, table_index, set_idx = placement
            rows.append((aid, address, flag, table_index, set_idx))
        return tuple(rows)

    # -- main interface ---------------------------------------------------------
    def insert_task(
        self, task: TaskDescriptor,
    ) -> Tuple[Tuple[Row, ...], int, int, int]:
        """Insert ``task`` into the task graph(s) and compute its readiness.

        Returns ``(rows, dependence_count, wait_mask, conflict_mask)``:
        the task's preresolved rows (:data:`Row`), the number of accesses
        that must wait (the task is ready when it is zero), and two
        bit masks in which bit *i* refers to ``rows[i]`` — it had to
        wait, or it hit a structurally full set.
        """
        task_id = task.task_id
        rows_of = self._rows_of
        if task_id in rows_of:
            raise SimulationError(f"task {task_id} inserted twice")
        rows = rows_of[task_id] = self._resolve_task(task)
        act_rem = self._act_rem
        act_writer = self._act_writer
        queues = self._queue
        tables = self.tables
        stats_by = self._stats_by
        occ_by = self._occ_by
        ways_by = self._ways_by
        cap_by = self._cap_by
        owner = task_id << 2
        dependence_count = 0
        wait_mask = 0
        conflict_mask = 0
        bit = 1
        for aid, address, flag, table_index, set_idx in rows:
            active = act_rem[aid]
            if active == 0:
                # Idle: a fresh table entry, and the access proceeds.
                stats = stats_by[table_index]
                occupancy = occ_by[table_index]
                ways_in_use = occupancy[set_idx]
                if ways_in_use >= ways_by[table_index]:
                    # Structurally the hardware would stall until a way
                    # frees up; functionally the address is still tracked
                    # (dummy entries guarantee forward progress) and the
                    # conflict is reported so timing can charge for it.
                    conflict_mask |= bit
                    stats.set_conflicts += 1
                occupancy[set_idx] = ways_in_use + 1
                table = tables[table_index]
                live = table._dense_live + 1
                table._dense_live = live
                stats.insertions += 1
                if live > stats.max_live_entries:
                    stats.max_live_entries = live
                act_rem[aid] = 1
                act_writer[aid] = flag >> 1
            else:
                queue = queues[aid]
                if not queue and not flag & 2 and not act_writer[aid]:
                    act_rem[aid] = active + 1  # joins the active readers
                else:
                    queued = len(queue) - self._cursor[aid]
                    queue.append(owner | flag)
                    dependence_count += 1
                    wait_mask |= bit
                    capacity = cap_by[table_index]
                    if queued >= capacity:  # the kick-off list may spill
                        before_ways = ways_for(queued, capacity)
                        after_ways = ways_for(queued + 1, capacity)
                        if after_ways != before_ways:
                            occ_by[table_index][set_idx] += after_ways - before_ways
                            stats = stats_by[table_index]
                            if after_ways - 1 > stats.dummy_entries_peak:
                                stats.dummy_entries_peak = after_ways - 1
            bit <<= 1
        self._pending[task_id] = dependence_count
        self.total_inserted += 1
        return rows, dependence_count, wait_mask, conflict_mask

    def finish_task(
        self, task_id: int,
    ) -> Tuple[Tuple[Row, ...], List[List[int]], List[int], int]:
        """Retire ``task_id``: release its addresses and kick off waiters.

        Returns ``(rows, released, newly_ready, kickoff_count)``:
        ``released[i]`` lists the waiters ``rows[i]`` kicked off, in
        order; ``newly_ready`` the tasks whose dependence count reached
        zero, in order; ``kickoff_count`` the total over ``released``.
        """
        pending = self._pending
        count = pending.get(task_id)
        if count is None:
            raise SimulationError(f"finish for unknown or already finished task {task_id}")
        if count != 0:
            raise SimulationError(
                f"task {task_id} finished while still having "
                f"{count} unresolved dependencies"
            )
        del pending[task_id]
        rows = self._rows_of.pop(task_id)
        act_rem = self._act_rem
        act_writer = self._act_writer
        queues = self._queue
        cursors = self._cursor
        tables = self.tables
        occ_by = self._occ_by
        cap_by = self._cap_by
        released: List[List[int]] = []
        newly_ready: List[int] = []
        kickoff_count = 0
        for aid, address, _flag, table_index, set_idx in rows:
            active = act_rem[aid]
            if active == 0:
                raise SimulationError(
                    f"{tables[table_index].name}: finish on untracked address {address:#x}"
                )
            active -= 1
            kicked: List[int] = []
            queue = queues[aid]
            if queue:
                # Activate from the cursor: a writer alone, or a run of
                # readers; the queue stays non-empty only behind an
                # active access, so the address stays live.
                cursor = first = cursors[aid]
                end = len(queue)
                writer = act_writer[aid]
                while cursor < end:
                    entry = queue[cursor]
                    if entry & 2:
                        if active == 0:
                            cursor += 1
                            active = 1
                            writer = 1
                            kicked.append(entry >> 2)
                        break
                    if active and writer:
                        break
                    cursor += 1
                    active += 1
                    writer = 0
                    kicked.append(entry >> 2)
                act_rem[aid] = active
                act_writer[aid] = writer
                if kicked:
                    kickoff_count += len(kicked)
                    for waiter_id in kicked:
                        count = pending[waiter_id] - 1
                        pending[waiter_id] = count
                        if count == 0:
                            newly_ready.append(waiter_id)
                capacity = cap_by[table_index]
                if end - first > capacity or end - cursor > capacity:
                    grown = ways_for(end - cursor, capacity) - ways_for(end - first, capacity)
                    if grown:
                        occupancy = occ_by[table_index]
                        remaining = occupancy[set_idx] + grown
                        occupancy[set_idx] = remaining if remaining > 0 else 0
                if cursor == end:
                    queue.clear()
                    cursor = 0
                elif cursor > 64 and cursor * 2 >= end:
                    # Drop the consumed prefix so a long-lived kick-off
                    # list stays O(pending waiters).
                    del queue[:cursor]
                    cursor = 0
                cursors[aid] = cursor
            else:
                act_rem[aid] = active
                if active == 0:
                    # Idle: evict the entry (its empty kick-off list held
                    # one way) and free the dense id.
                    occupancy = occ_by[table_index]
                    remaining = occupancy[set_idx] - 1
                    occupancy[set_idx] = remaining if remaining > 0 else 0
                    table = tables[table_index]
                    table._dense_live -= 1
                    table.stats.evictions += 1
                    del self._live[address]
                    self._free_ids.append(aid)
            released.append(kicked)
        self.total_finished += 1
        return rows, released, newly_ready, kickoff_count

    def reset(self) -> None:
        """Return the tracker to its initial empty state."""
        for table in self.tables:
            table.reset()
        self._prefetch_tables()
        self._pending.clear()
        self._clear_addresses()
        self._live.clear()
        self._free_ids.clear()
        self._rows_of.clear()
        self.total_inserted = 0
        self.total_finished = 0
