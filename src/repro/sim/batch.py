"""The fast replay kernel of every manager's eligible static runs.

:meth:`repro.system.machine.Machine.run` sends every static replay the
kernel covers here (:func:`lane_fallback_reason` decides) and replays the
rest on the general engine of :mod:`repro.system.dynamic`.  The kernel is
one specialized, inlined event loop per run, and its speed comes from
three things:

* **structural compilation cached on the trace.**  A trace is compiled
  once into a :class:`LaneProgram`: the event columns the engine's trace
  master also walks and the per-task access rows of the existing
  :class:`~repro.trace.compiled.CompiledAccessProgram`, whose interned
  address ids index flat per-address lists.  Each address keeps the
  tracker's state (the state machine is described once, in
  :mod:`repro.taskgraph.tracker`): an active count, an active-is-writer
  flag and a kick-off queue consumed through a cursor, grown at insert
  exactly as :class:`~repro.taskgraph.tracker.DependencyTracker` grows
  it.  The same state carries the Nexus task graphs' structural
  accounting (way occupancy, set conflicts, dummy entries), over each
  address's (task graph, set) placement, computed once per geometry.
* **timing tables folded across the task axis.**  Per-kernel cost
  columns (worker-overhead-inclusive nominal durations, Nanos
  creation/lock-insertion costs, Nexus input-parser and table-stage
  costs) are computed once per ``(program, kernel)`` — IEEE-identical to
  the engine's per-event expressions — and reused by every run of that
  kernel.
* **flat run state**: the general engine's plain-tuple event heap and
  its ``(time, priority, sequence)`` discipline, flat per-task
  dependence-count/finished/dispatched state, an int heap of idle core
  ranks, a deque of queued ready tasks (or the built-in policy's own
  queue), and the next-free time and busy time of each serial stage a
  manager reserves (the Nanos lock; the Nexus input parser, task-graph
  ports, arbiter and write-back).

Every built-in manager publishes a kernel spec (:meth:`repro.managers.
base.TaskManagerModel.lane_kernel`; the ``sw400`` manager is a Nanos
configuration), so every static cell with one of them
and a built-in policy replays here, on any topology and with any task
ids; the general engine of :mod:`repro.system.dynamic` serves streams,
dynamic programs and the static runs the kernel does not cover.  The
engine's stream replay of a trace,
:meth:`~repro.system.machine.Machine.run_scalar`, stays the reference
oracle: kernel results are byte-identical to it, pinned by the
kernel-vs-scalar suites (``tests/batch/``,
``tests/golden/test_batch_equivalence.py``,
``tests/golden/test_config_digests.py``).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.managers.base import LaneKernelSpec, TaskManagerModel
from repro.nexus.distribution import nexus_hash
from repro.nexus.timing import shared_offset_tables
from repro.system.results import MachineResult
from repro.system.scheduling import DurationPriorityPolicy, FifoPolicy, LocalityPolicy
from repro.system.timeline import TaskTimeline
from repro.system.topology import CorePool
from repro.taskgraph.table import AddressTable, ways_for
from repro.trace.columns import FULL_TASKWAIT, TraceColumns
from repro.trace.dag import validate_schedule
from repro.trace.task import FLAG_WRITES
from repro.trace.trace import Trace

#: Attribute under which a trace caches its lane program (``_compiled*``
#: prefixed, so ``Trace.__getstate__`` excludes it from pickles).
_LANE_PROGRAM_ATTR = "_compiled_lane_program"

#: Trace event op codes of :attr:`LaneProgram.ops`.
OP_SUBMIT = 0
OP_WAIT = 1
OP_WAIT_ON = 2


@dataclass(frozen=True)
class LaneSpec:
    """One run for :func:`run_lanes`: a trace replayed on a manager under a config."""

    trace: Trace
    manager: TaskManagerModel
    config: "MachineConfig"  # noqa: F821 - resolved via repro.system.machine


def _writer_slots(columns: TraceColumns, address: int) -> List[int]:
    """Ascending slots of the tasks that write ``address`` (C-level scans)."""
    addresses, flags, offsets = columns.addresses, columns.flags, columns.offsets
    slots: List[int] = []
    access = -1
    while True:
        try:
            access = addresses.index(address, access + 1)
        except ValueError:
            return slots
        if flags[access] & FLAG_WRITES:
            slots.append(bisect_right(offsets, access) - 1)


class LaneProgram:
    """Run-invariant compilation of one trace, cached on the trace.

    Everything here depends only on the trace — never on the manager,
    core count or seed of a run — so one program is shared by all runs.
    It is built from the trace's columns and its compiled access program,
    never from event or descriptor objects.  The event columns drive the
    kernel's master thread: one op code per trace event
    (:data:`OP_SUBMIT`, :data:`OP_WAIT`, :data:`OP_WAIT_ON`), the
    submitted task's slot, and the ``taskwait on`` target.  Everything
    is indexed by slot; ``task_ids`` maps a slot back to its task id.
    """

    __slots__ = (
        "num_tasks", "num_events", "ops", "op_slot", "op_wait",
        "task_ids", "slot_of", "has_wait_on", "total_work_us",
        "num_addresses", "acc_off", "acc_aid", "acc_flags",
        "duration", "creation", "functions", "num_params_eff", "param_off", "addresses",
        "_kernel_cache", "_placements",
    )

    def __init__(self, trace: Trace) -> None:
        columns = trace.columns
        num_tasks = columns.num_tasks
        # One op per event: runs of submissions between barriers.
        ops: List[int] = []
        op_slot: List[int] = []
        # event index -> (taskwait-on address, tasks submitted before it)
        wait_ons: Dict[int, Tuple[int, int]] = {}
        for start, end, barrier in columns.segments():
            ops.extend([OP_SUBMIT] * (end - start))
            op_slot.extend(range(start, end))
            if barrier is None:
                break
            if barrier == FULL_TASKWAIT:
                ops.append(OP_WAIT)
            else:
                wait_ons[len(ops)] = (barrier, end)
                ops.append(OP_WAIT_ON)
            op_slot.append(-1)
        self.num_tasks = num_tasks
        self.num_events = len(ops)
        self.ops = ops
        self.op_slot = op_slot
        self.task_ids = list(columns.task_ids)
        # Dense ids (TraceBuilder's invariant) are slots; sparse ids
        # (hand-extended traces) go through an explicit map.
        if columns.task_ids == tuple(range(num_tasks)):
            self.slot_of: Optional[Dict[int, int]] = None
        else:
            self.slot_of = {task_id: slot for slot, task_id in enumerate(self.task_ids)}
        # The `taskwait on` target of each event: the slot of the last
        # writer of the address before it in trace order, or -1.  The
        # master submits in trace order, so the target is static.  Only
        # the addresses some `taskwait on` names are searched for.
        self.has_wait_on = bool(wait_ons)
        self.op_wait = [-1] * self.num_events
        writers: Dict[int, List[int]] = {}
        for index, (address, submitted) in wait_ons.items():
            slots = writers.get(address)
            if slots is None:
                slots = writers[address] = _writer_slots(columns, address)
            before = bisect_left(slots, submitted)
            if before:
                self.op_wait[index] = slots[before - 1]
        # The columns' left-to-right float sum (Trace.total_work_us).
        self.total_work_us = columns.total_work_us

        # Task-major access rows (straight from the compiled program).
        program = trace.access_program()
        self.num_addresses = program.num_addresses
        self.acc_off = program.offsets
        self.acc_aid = program.addr_ids
        self.acc_flags = program.flags
        self.num_params_eff = np.maximum(np.diff(np.asarray(program.offsets, dtype=np.int64)), 1)
        self.duration = columns.durations
        self.creation = columns.creations
        self.functions = columns.functions
        # Raw parameter offsets (duplicates included): the hardware input
        # parsers read every parameter word of the descriptor.
        self.param_off = columns.offsets
        self.addresses = program.addresses
        self._kernel_cache: Dict[LaneKernelSpec, Tuple[list, ...]] = {}
        self._placements: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = {}

    def kernel_columns(self, kern: LaneKernelSpec) -> Tuple[list, list, list, list]:
        """Per-task cost columns of ``kern``, folded once and shared.

        Returns ``(nominal, first, second, third)`` lists indexed by task
        slot.  ``nominal[s]`` is the worker occupancy ``worker_overhead +
        duration`` of every kind; the other three depend on the kind:

        ========== ========================= ===================== ==================
        kind       ``first``                 ``second``            ``third``
        ========== ========================= ===================== ==================
        ``nanos``  creation per-param term   locked-insertion cost —
        ``nexus++`` Input Parser µs           Insert-stage cycles   cleanup cycles
        ``nexus#`` Input Parser µs           finish redistribution —
        ========== ========================= ===================== ==================

        The Nanos creation term ``creation_per_param_us * max(1, n)`` is
        kept as a separate addend so the runtime sum ``(time + base) +
        pp`` associates exactly like the engine's expression.  The Nexus
        columns are lookups into the process-shared
        :func:`~repro.nexus.timing.shared_offset_tables`, by parameter
        count as the managers index them: the raw count for the input
        parsers, the deduplicated access count for the table stages.
        Every value is the same IEEE operation, in the same order, as the
        engine's per-event arithmetic, hence byte-identical.
        """
        cached = self._kernel_cache.get(kern)
        if cached is None:
            durations = np.asarray(self.duration, dtype=np.float64)
            nominal = (kern.worker_overhead_us + durations).tolist()
            kind = kern.kind
            first: list = []
            second: list = []
            third: list = []
            if kind == "nanos":
                params = self.num_params_eff.astype(np.float64)
                first = (kern.creation_per_param_us * params).tolist()
                second = (
                    kern.insert_lock_us + kern.insert_lock_per_param_us * params
                ).tolist()
            elif kind in ("nexus++", "nexus#"):
                tables = shared_offset_tables(kern.config.timing, kern.cycle_us)
                raw = np.maximum(np.diff(np.asarray(self.param_off, dtype=np.int64)), 1).tolist()
                accesses = self.num_params_eff.tolist()
                widest = max(raw + accesses, default=1)
                if kind == "nexus++":
                    tables.grow_pp(widest)
                    input_us, insert_cycles, cleanup_cycles = (
                        tables.input_us, tables.insert_cycles, tables.cleanup_cycles)
                    third = [cleanup_cycles[count] for count in accesses]
                    second = [insert_cycles[count] for count in accesses]
                else:
                    tables.grow_sharp_submit(widest)
                    tables.grow_sharp_finish(widest)
                    input_us, fin_input_us = tables.input_us, tables.fin_input_us
                    second = [fin_input_us[count] for count in accesses]
                first = [input_us[count] for count in raw]
            cached = (nominal, first, second, third)
            self._kernel_cache[kern] = cached
        return cached

    def placement(self, num_tables: int, num_sets: int) -> Tuple[List[int], List[int]]:
        """``(line, table)`` of every address id under a task-graph geometry.

        ``table[a]`` is the task graph the tracker distributes address
        ``a`` to (:func:`~repro.nexus.distribution.nexus_hash`; always 0
        for one table) and ``line[a] = table[a] * num_sets + set`` its
        set in a flat occupancy array of all tables, the set from
        :meth:`~repro.taskgraph.table.AddressTable.set_index`.  Computed
        once per geometry and shared by every run.
        """
        key = (num_tables, num_sets)
        cached = self._placements.get(key)
        if cached is None:
            set_index = AddressTable(num_sets=num_sets).set_index
            addresses = self.addresses
            if num_tables == 1:
                tables = [0] * len(addresses)
            else:
                tables = [nexus_hash(address, num_tables) for address in addresses]
            lines = [table * num_sets + set_index(address)
                     for table, address in zip(tables, addresses)]
            cached = self._placements[key] = (lines, tables)
        return cached


def lane_program(trace: Trace) -> LaneProgram:
    """Return the cached :class:`LaneProgram` of ``trace``."""
    program = trace.__dict__.get(_LANE_PROGRAM_ATTR)
    if program is None:
        program = LaneProgram(trace)
        object.__setattr__(trace, _LANE_PROGRAM_ATTR, program)
    return program


#: Manager methods the kernel replaces with its own arithmetic: a class
#: that overrides one of them below the class declaring the kernel (or an
#: instance that rebinds one) changes behaviour the kernel cannot see.
_KERNEL_REPLACED = ("submit", "finish", "statistics")

#: The policy classes the kernel drives (FIFO as an inline deque); a
#: subclass may change what the kernel relies on, so it keeps the engine.
_KERNEL_POLICIES = (FifoPolicy, DurationPriorityPolicy, LocalityPolicy)


def _kernel_methods_overridden(manager: TaskManagerModel) -> bool:
    """True when ``manager`` does not use the ``submit``/``finish``/
    ``statistics`` of the class that declares its lane kernel."""
    cls = type(manager)
    owner = next(klass for klass in cls.__mro__ if "lane_kernel" in vars(klass))
    instance = getattr(manager, "__dict__", {})
    return any(getattr(cls, name) is not getattr(owner, name) or name in instance
               for name in _KERNEL_REPLACED)


def lane_fallback_reason(machine: "Machine", trace: object) -> Optional[str]:  # noqa: F821
    """Why ``machine`` must replay ``trace`` on the general engine, or
    ``None`` when the kernel applies.

    The kernel-selection rules (documented in ``docs/performance.md``):
    the trace must be a materialised static trace; the manager must
    publish a :class:`~repro.managers.base.LaneKernelSpec` and use the
    ``submit``/``finish``/``statistics`` of the class that declares it;
    and the machine's policy must be an instance of one of the three
    built-in policy classes (not a subclass).  Any topology and any task
    ids are the kernel's.
    """
    if not isinstance(trace, Trace):
        return "not a materialised static trace"
    manager = machine.manager
    if manager.lane_kernel() is None:
        return f"manager {manager.name!r} publishes no lane kernel"
    if _kernel_methods_overridden(manager):
        return "manager overrides methods the lane kernel replaces"
    if type(machine.policy) not in _KERNEL_POLICIES:
        return "scheduler policy is not a built-in policy"
    return None


def run_lanes(lanes: Sequence[LaneSpec]) -> List[MachineResult]:
    """Run every lane to completion through :meth:`Machine.run`, in order.

    :meth:`Machine.run` picks the kernel or the engine per lane, so
    this is a plain loop; the function keeps its name because layer
    probes (the repository benchmark's tracer) bind to it.
    """
    from repro.system.machine import Machine

    return [Machine(lane.manager, lane.config).run(lane.trace) for lane in lanes]


def run_kernel(machine: "Machine", trace: Trace) -> MachineResult:  # noqa: F821
    """Replay ``trace`` on ``machine`` through the specialized kernel.

    Only valid when :func:`lane_fallback_reason` returns ``None``.  This
    inlines — in replicated order — the engine stack replaying the
    trace's events: the master and event loop of
    :func:`repro.system.dynamic.run_engine` with its ``(time, priority,
    sequence)`` heap discipline (and its degradation of ``taskwait on``
    to a full ``taskwait`` for a manager without the pragma),
    ``CorePool``'s fastest-idle-first heap of core ranks with ``nominal /
    speed`` occupancy on a non-unit core, ``FifoPolicy``'s deque (the
    other built-in policies are called with a task slot and the slot's
    duration and function), the ``DependencyTracker`` insert / finish
    state machine on the same per-address state, and the lane kernel's
    manager arithmetic: the Nanos lock and the Nexus pipelines' serial
    reservations replicate :meth:`~repro.sim.resource.SerialResource.
    reserve` exactly, in the managers' order and float association.
    Everything runs on task slots and core ranks; the timeline maps
    slots back to task ids and the result ranks back to core ids.

    For the Nexus kinds the per-address state also carries the tracker's
    structural accounting.  An address is live (it holds a table entry)
    while ``act_rem > 0``; its kick-off list is ``len(queue) - cursor``
    long.  A fresh entry takes a way in its set (a set conflict
    when the set is full), a kick-off list crossing the entry capacity
    takes or frees dummy-entry ways (:func:`~repro.taskgraph.table.
    ways_for`), and an idle address frees its ways, clamped at zero —
    exactly the tracker's ``insert_task`` / ``finish_task`` bookkeeping.

    Schedules are byte-identical to the engine's; any behavioural change
    there must land here too (the kernel-vs-scalar golden and
    differential suites guard the pairing).  The number of events
    processed lands in ``machine.last_events_processed``, equal to the
    engine's pop count.
    """
    manager = machine.manager
    config = machine.config
    kern = manager.lane_kernel()
    assert kern is not None
    prog = lane_program(trace)
    nominal, col_first, col_second, col_third = prog.kernel_columns(kern)

    num_tasks = prog.num_tasks
    num_events = prog.num_events
    num_cores = config.num_cores
    ops = prog.ops
    op_slot = prog.op_slot
    op_wait = prog.op_wait
    acc_off = prog.acc_off
    acc_aid = prog.acc_aid
    acc_flags = prog.acc_flags
    creation = prog.creation
    task_ids = prog.task_ids
    wait_on = manager.supports_taskwait_on

    # --- dispatch: the policy and CorePool's ranks --------------------------
    # No core idles while tasks queue, so a finishing core is the one to
    # take the next queued task: the queue is only read on a completion.
    policy = machine.policy
    fifo = type(policy) is FifoPolicy
    policy.reset()
    enqueue = policy.enqueue
    select = policy.select
    on_start = policy.on_start if policy.wants_start_events else None
    durations = prog.duration
    functions = prog.functions
    # The idle heap holds ranks, fastest core first; events, busy times
    # and the timeline carry ranks until the end of the run.  On
    # unit-speed cores a rank is the core id.
    speeds = machine.topology.speed_factors
    scaled = speeds.count(1.0) != num_cores
    if scaled:
        order = CorePool(machine.topology).order
        rank_speed = [speeds[core] for core in order]

    kind = kern.kind
    nanos = kind == "nanos"
    pp = kind == "nexus++"
    sharp = kind == "nexus#"
    nexus = pp or sharp
    creation_base = kern.creation_base_us
    finish_lock_us = kern.finish_lock_us
    wakeup_us = kern.wakeup_per_task_us

    # --- Nexus pipeline constants and structural state ----------------------
    num_tg = 1
    if nexus:
        hw = kern.config
        timing = hw.timing
        cycle_us = kern.cycle_us
        if sharp:
            num_tg = hw.num_task_graphs
            tables = shared_offset_tables(timing, cycle_us)
            fwd_us = tables.fwd_us
            fin_fwd_us = tables.fin_fwd_us
            args_fifo_us = timing.args_fifo_latency_cycles * cycle_us
            plain_us = timing.insert_cycles_per_param * cycle_us
            conflict_us = (
                (timing.insert_cycles_per_param + timing.set_conflict_stall_cycles) * cycle_us
            )
            fifo_us = timing.ready_fifo_latency_cycles * cycle_us  # before Write Back
            update_cycles = timing.finish_update_cycles_per_param
            result_us = timing.arbiter_cycles_per_result * cycle_us
            conclude_us = timing.arbiter_conclude_cycles * cycle_us
            decrement_us = timing.arbiter_decrement_cycles * cycle_us
        else:
            fifo_us = hw.fifo_latency_cycles * cycle_us  # between every two stages
            notify_us = timing.finish_notify_cycles * cycle_us
            stall_cycles = timing.set_conflict_stall_cycles
        wb_us = timing.writeback_cycles * cycle_us
        kickoff_cycles = timing.kickoff_cycles_per_waiter
        table_ways = hw.table_ways
        capacity = hw.kickoff_capacity
        addr_line, addr_port = prog.placement(num_tg, hw.table_sets)
        occupancy = [0] * (num_tg * hw.table_sets)
    set_conflicts = [0] * num_tg
    live = 0
    max_live = 0
    ip_free = 0.0                    # Input Parser
    ip_busy = 0.0
    tg_free = [0.0] * num_tg         # Nexus# task-graph ports
    tg_busy = [0.0] * num_tg
    graph_free = 0.0                 # the Nexus++ task-graph port
    graph_busy = 0.0
    arb_free = 0.0                   # Nexus# Dependence Counts Arbiter
    arb_busy = 0.0
    wb_free = 0.0                    # Write Back
    wb_busy = 0.0
    ready_latency = 0.0
    ready_count = 0
    conflict_mask = 0

    # --- flat run state -----------------------------------------------------
    num_addresses = prog.num_addresses
    dep_count = [0] * num_tasks
    finished = bytearray(num_tasks)
    dispatched = bytearray(num_tasks)
    # Per address, the tracker's state (repro.taskgraph.tracker): the
    # unfinished activated accesses, whether they are one writer, and
    # the kick-off queue (slot << 2 | flags) with its activation cursor.
    act_rem = [0] * num_addresses
    act_writer = bytearray(num_addresses)
    queues: List[List[int]] = [[] for _ in range(num_addresses)]
    cursors = [0] * num_addresses

    heap: List[Tuple[float, int, int, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    seq = 0
    idle = list(range(num_cores))    # already a valid min-heap
    ready_queue: deque = deque()
    rq_append = ready_queue.append
    rq_popleft = ready_queue.popleft
    busy_us = [0.0] * num_cores
    core_busy_us = 0.0
    master_time = 0.0
    event_index = 0
    blocked_kind = 0                 # 0 = free, 1 = taskwait, 2 = taskwait-on
    blocked_task = -1
    master_done = False
    outstanding = 0
    finished_count = 0
    inserted_count = 0
    lock_free = 0.0                  # Nanos runtime lock (SerialResource)
    lock_reservations = 0
    lock_busy = 0.0
    lock_wait = 0.0
    now = 0.0

    collect = config.keep_schedule or config.validate
    timeline = TaskTimeline(
        num_tasks, task_ids=None if prog.slot_of is None else task_ids,
    ) if collect else None
    if collect:
        submit_arr = timeline.submit
        ready_arr = timeline.ready
        start_arr = timeline.start
        finish_arr = timeline.finish
        core_arr = timeline.core

    # --- main loop ----------------------------------------------------------
    # The master advance is inlined into the loop body rather than kept
    # as a closure: any variable shared with a nested function becomes a
    # cell, which would turn every hot-path access in BOTH the master
    # loop and the event loop into a (slower) dereference.  With
    # everything a plain local, the interpreter uses fast locals
    # throughout.
    do_master = True
    while True:
        if do_master:
            do_master = False
            while event_index < num_events:
                op = ops[event_index]
                if op == OP_SUBMIT:
                    slot = op_slot[event_index]
                    outstanding += 1
                    if collect:
                        submit_arr[slot] = master_time
                    event_index += 1
                    # -- tracker insert: the per-address state machine --
                    index = row_start = acc_off[slot]
                    row_end = acc_off[slot + 1]
                    deps = 0
                    conflict_mask = 0
                    owner = slot << 2
                    while index < row_end:
                        address = acc_aid[index]
                        flag = acc_flags[index]
                        index += 1
                        active = act_rem[address]
                        if active == 0:  # idle: a fresh table entry
                            if nexus:
                                line = addr_line[address]
                                used = occupancy[line]
                                if used >= table_ways:
                                    conflict_mask |= 1 << (index - 1 - row_start)
                                    set_conflicts[addr_port[address]] += 1
                                occupancy[line] = used + 1
                                live += 1
                                if live > max_live:
                                    max_live = live
                            act_writer[address] = flag >> 1
                            act_rem[address] = 1
                            continue
                        queue = queues[address]
                        if not queue and not flag & 2 and not act_writer[address]:
                            act_rem[address] = active + 1  # joins the readers
                            continue
                        if nexus:
                            queued = len(queue) - cursors[address]
                            if queued >= capacity:  # the kick-off list may spill
                                grown = ways_for(queued + 1, capacity) - ways_for(queued, capacity)
                                if grown:
                                    occupancy[addr_line[address]] += grown
                        queue.append(owner | flag)
                        deps += 1
                    dep_count[slot] = deps
                    inserted_count += 1
                    # -- manager submit arithmetic --
                    if nexus:
                        # Input Parser: the whole descriptor.
                        duration = col_first[slot]
                        ip_start = master_time if master_time > ip_free else ip_free
                        accept = ip_start + duration
                        ip_free = accept
                        ip_busy += duration
                        if pp:
                            # Insert: the whole task into the single task graph.
                            available = accept + fifo_us
                            if conflict_mask:
                                duration = (col_second[slot]
                                            + stall_cycles * conflict_mask.bit_count()) * cycle_us
                            else:
                                duration = col_second[slot] * cycle_us
                            start = available if available > graph_free else graph_free
                            graph_free = stage_end = start + duration
                            graph_busy += duration
                        elif row_end == row_start:
                            stage_end = accept  # no parameters: straight to ready
                        else:
                            # Per-parameter insertion at the owning task graph,
                            # then the arbiter's gather in result order.
                            ends = []
                            row = 0
                            for address in acc_aid[row_start:row_end]:
                                visible = ip_start + fwd_us[row] + args_fifo_us
                                duration = conflict_us if conflict_mask >> row & 1 else plain_us
                                row += 1
                                port = addr_port[address]
                                free = tg_free[port]
                                start = visible if visible > free else free
                                end = start + duration
                                tg_free[port] = end
                                tg_busy[port] += duration
                                ends.append(end)
                            ends.sort()
                            free = arb_free
                            for end in ends:
                                start = end if end > free else free
                                free = start + result_us
                                arb_busy += result_us
                            free += conclude_us
                            arb_busy += conclude_us
                            arb_free = free
                            stage_end = free
                        if deps == 0:
                            # Write Back forwards the ready task.
                            available = stage_end + fifo_us
                            start = available if available > wb_free else wb_free
                            ready_time = start + wb_us
                            wb_free = ready_time
                            wb_busy += wb_us
                            ready_latency += ready_time - master_time
                            ready_count += 1
                    elif nanos:
                        creation_done = (master_time + creation_base) + col_first[slot]
                        cost = col_second[slot]
                        lock_start = creation_done if creation_done > lock_free else lock_free
                        lock_end = lock_start + cost
                        lock_free = lock_end
                        lock_reservations += 1
                        lock_busy += cost
                        lock_wait += lock_start - creation_done
                        accept = lock_end
                        ready_time = lock_end
                    else:
                        accept = master_time
                        ready_time = master_time
                    if deps == 0:
                        if collect:
                            ready_arr[slot] = ready_time
                        heappush(heap, (
                            ready_time if ready_time > master_time else master_time,
                            1, seq, slot, -1,
                        ))
                        seq += 1
                    next_time = master_time + creation[slot]
                    if accept > next_time:
                        next_time = accept
                    if next_time < master_time:
                        raise SimulationError(
                            f"manager {manager.name} accepted task {task_ids[slot]} in the past"
                        )
                    master_time = next_time
                    if event_index >= num_events:
                        master_done = True
                        break
                    if heap and heap[0][0] <= master_time:
                        heappush(heap, (master_time, 2, seq, -1, -1))
                        seq += 1
                        break
                    # Inline-submission fast path, exactly as in the engine's
                    # master loop: no pending event sorts before the next
                    # master step, so skip the queue bounce.
                    continue
                if op == OP_WAIT or not wait_on:  # taskwait, or a degraded taskwait on
                    if outstanding == 0:
                        event_index += 1
                        continue
                    blocked_kind = 1
                    break
                waited = op_wait[event_index]
                if waited < 0 or finished[waited]:
                    event_index += 1
                    continue
                blocked_kind = 2
                blocked_task = waited
                break
            else:
                master_done = True
        if not heap:
            break
        time, priority, _, task_id, core = heappop(heap)
        if time > now:
            now = time
        if priority == 0:  # task done
            outstanding -= 1
            finished[task_id] = 1
            finished_count += 1
            # -- tracker finish: release waiters in row x queue order --
            index = acc_off[task_id]
            row_end = acc_off[task_id + 1]
            newly_ready: List[int] = []
            kickoffs = 0
            if sharp:
                # The Input Parser redistributes the addresses; below, each
                # row's task graph updates its entry and emits the waiters
                # it kicked off, whose counts the arbiter decrements.
                duration = col_second[task_id]
                ip_start = time if time > ip_free else ip_free
                stage_end = ip_start + duration
                ip_free = stage_end
                ip_busy += duration
                ready_base: List[float] = []
                row = 0
            while index < row_end:
                address = acc_aid[index]
                index += 1
                active = act_rem[address] - 1
                queue = queues[address]
                kicked = 0
                if queue:
                    cursor = first = cursors[address]
                    end = len(queue)
                    writer = act_writer[address]
                    while cursor < end:
                        entry = queue[cursor]
                        if entry & 2:
                            if active == 0:
                                cursor += 1
                                active = 1
                                writer = 1
                                kickoffs += 1
                                waiter = entry >> 2
                                remaining = dep_count[waiter] - 1
                                dep_count[waiter] = remaining
                                if remaining == 0:
                                    newly_ready.append(waiter)
                            break
                        if active and writer:
                            break
                        cursor += 1
                        active += 1
                        writer = 0
                        kickoffs += 1
                        waiter = entry >> 2
                        remaining = dep_count[waiter] - 1
                        dep_count[waiter] = remaining
                        if remaining == 0:
                            newly_ready.append(waiter)
                    act_rem[address] = active
                    act_writer[address] = writer
                    kicked = cursor - first
                    if nexus:
                        if end - first > capacity or end - cursor > capacity:
                            grown = (ways_for(end - cursor, capacity)
                                     - ways_for(end - first, capacity))
                            if grown:
                                line = addr_line[address]
                                left = occupancy[line] + grown
                                occupancy[line] = left if left > 0 else 0
                        if sharp and kicked:
                            released = queue[first:cursor]
                    if cursor == end:
                        queue.clear()
                        cursor = 0
                    elif cursor > 64 and cursor * 2 >= end:
                        del queue[:cursor]
                        cursor = 0
                    cursors[address] = cursor
                else:
                    act_rem[address] = active
                    if nexus and active == 0:
                        # Idle: the entry is evicted.  Its kick-off list was
                        # empty, so it frees ways_for(0) == 1 way.
                        line = addr_line[address]
                        left = occupancy[line] - 1
                        occupancy[line] = left if left > 0 else 0
                        live -= 1
                if sharp:
                    visible = ip_start + fin_fwd_us[row] + args_fifo_us
                    row += 1
                    duration = (update_cycles + kickoff_cycles * kicked) * cycle_us
                    port = addr_port[address]
                    free = tg_free[port]
                    start = visible if visible > free else free
                    end = start + duration
                    tg_free[port] = end
                    tg_busy[port] += duration
                    if kicked:
                        # The decrement that zeroes a waiter's count is
                        # its last in this finish, and decrement ends
                        # never decrease: its end is the manager's
                        # latest decrement of that waiter (unless 0.0,
                        # which the manager does not record).
                        free = arb_free
                        for entry in released:
                            start = end if end > free else free
                            free = start + decrement_us
                            arb_busy += decrement_us
                            if not dep_count[entry >> 2]:
                                ready_base.append(free if free > 0.0 else stage_end)
                        arb_free = free
            # -- manager finish arithmetic --
            if nexus:
                if pp:
                    # The notification over the IO unit, then the cleanup
                    # walk on the single task-graph port.
                    ip_start = time if time > ip_free else ip_free
                    notify_end = ip_start + notify_us
                    ip_free = notify_end
                    ip_busy += notify_us
                    available = notify_end + fifo_us
                    duration = (col_third[task_id] + kickoff_cycles * kickoffs) * cycle_us
                    start = available if available > graph_free else graph_free
                    graph_free = stage_end = start + duration
                    graph_busy += duration
                    if newly_ready:
                        ready_base = [stage_end] * len(newly_ready)
                if newly_ready:
                    # Ready waiters leave through Write Back in order.
                    free = wb_free
                    for waiter, available in zip(newly_ready, ready_base):
                        available += fifo_us
                        start = available if available > free else free
                        free = start + wb_us
                        wb_busy += wb_us
                        ready_latency += free - time
                        if collect:
                            ready_arr[waiter] = free
                        heappush(heap, (free if free > time else time, 1, seq, waiter, -1))
                        seq += 1
                    wb_free = free
                    ready_count += len(newly_ready)
            else:
                if nanos:
                    cost = finish_lock_us + wakeup_us * kickoffs
                    lock_start = time if time > lock_free else lock_free
                    lock_end = lock_start + cost
                    lock_free = lock_end
                    lock_reservations += 1
                    lock_busy += cost
                    lock_wait += lock_start - time
                    ready_time = lock_end
                else:
                    ready_time = time
                for waiter in newly_ready:
                    if collect:
                        ready_arr[waiter] = ready_time
                    heappush(heap, (
                        ready_time if ready_time > time else time,
                        1, seq, waiter, -1,
                    ))
                    seq += 1
            # The freed core (its rank) picks up the next queued ready
            # task, if any, or idles.
            if fifo:
                next_task = rq_popleft() if ready_queue else None
            else:
                next_task = select(core, time)
            if next_task is None:
                heappush(idle, core)
            else:
                duration = nominal[next_task]
                if scaled and rank_speed[core] != 1.0:
                    duration = duration / rank_speed[core]
                end = time + duration
                core_busy_us += duration
                busy_us[core] += duration
                if collect:
                    start_arr[next_task] = time
                    finish_arr[next_task] = end
                    core_arr[next_task] = core
                if on_start is not None:
                    on_start(next_task, functions[next_task], core, time)
                heappush(heap, (end, 0, seq, next_task, core))
                seq += 1
            # Barriers resolve on completions.
            if blocked_kind:
                if blocked_kind == 1:
                    satisfied = outstanding == 0
                else:
                    satisfied = bool(finished[blocked_task])
                if satisfied:
                    blocked_kind = 0
                    if time > master_time:
                        master_time = time
                    if not master_done:
                        heappush(heap, (master_time, 2, seq, -1, -1))
                        seq += 1
        elif priority == 1:  # task ready
            if dispatched[task_id]:
                raise SimulationError(f"task {task_ids[task_id]} reported ready twice")
            dispatched[task_id] = 1
            if idle:
                run_core = heappop(idle)
                duration = nominal[task_id]
                if scaled and rank_speed[run_core] != 1.0:
                    duration = duration / rank_speed[run_core]
                end = time + duration
                core_busy_us += duration
                busy_us[run_core] += duration
                if collect:
                    start_arr[task_id] = time
                    finish_arr[task_id] = end
                    core_arr[task_id] = run_core
                if on_start is not None:
                    on_start(task_id, functions[task_id], run_core, time)
                heappush(heap, (end, 0, seq, task_id, run_core))
                seq += 1
            elif fifo:
                rq_append(task_id)
            else:
                enqueue(task_id, durations[task_id], functions[task_id], time)
        else:  # master step
            if blocked_kind == 0 and not master_done:
                if time > master_time:
                    master_time = time
                do_master = True

    # The loop only ends on an empty heap, so every pushed event was
    # popped: the sequence counter is the engine's pop count.
    machine.last_events_processed = seq
    machine.last_ready_order = ()
    makespan = now if now > master_time else master_time

    # --- consistency checks (mirroring the engine) ---------------------------
    if finished_count != num_tasks:
        missing = num_tasks - finished_count
        raise SimulationError(
            f"{manager.name} on {trace.name}: {missing} of {num_tasks} tasks never ran "
            "(deadlock or lost ready notification)"
        )
    if not master_done or blocked_kind:
        raise SimulationError(
            f"{manager.name} on {trace.name}: master thread did not reach the end of the trace"
        )

    # Core ranks back to core ids.
    if scaled:
        busy_by_rank = busy_us
        busy_us = [0.0] * num_cores
        for rank, core in enumerate(order):
            busy_us[core] = busy_by_rank[rank]
        if collect:
            core_arr[:] = [order[rank] for rank in core_arr]

    if config.validate:
        assert timeline is not None
        validate_schedule(trace, timeline.start_dict(), timeline.finish_dict())

    # The managers' statistics(), key for key and in their order.
    manager_stats: Dict[str, object] = {
        "tasks_inserted": inserted_count,
        "tasks_finished": finished_count,
    }
    if nanos:
        manager_stats["lock_busy_us"] = lock_busy
        manager_stats["lock_mean_wait_us"] = (
            lock_wait / lock_reservations if lock_reservations else 0.0)
    elif nexus:
        manager_stats["input_parser_busy_us"] = ip_busy
        if pp:
            manager_stats["task_graph_busy_us"] = graph_busy
            manager_stats["write_back_busy_us"] = wb_busy
            manager_stats["set_conflicts"] = set_conflicts[0]
            manager_stats["max_live_addresses"] = max_live
        else:
            manager_stats["write_back_busy_us"] = wb_busy
            manager_stats["arbiter_busy_us"] = arb_busy
            manager_stats["task_graph_busy_us"] = tg_busy
            manager_stats["set_conflicts"] = set_conflicts
        manager_stats["mean_ready_latency_us"] = (
            ready_latency / ready_count if ready_count else 0.0)

    return MachineResult.of_run(
        machine, trace.name, timeline, makespan_us=makespan, total_work_us=prog.total_work_us,
        num_tasks=num_tasks, master_finish_us=master_time, core_busy_us=core_busy_us,
        manager_stats=manager_stats, per_core_busy_us=tuple(busy_us),
    )
