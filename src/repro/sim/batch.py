"""The fast replay kernel for constant-foldable managers.

:meth:`repro.system.machine.Machine.run` sends every static replay the
kernel covers here (:func:`lane_fallback_reason` decides) and replays the
rest on the general engine of :mod:`repro.system.dynamic`.  The kernel is
one specialized, inlined event loop per run, and its speed comes from
three things:

* **structural compilation cached on the trace.**  A trace is compiled
  once into a :class:`LaneProgram`: the event columns the engine's trace
  master also walks, per-task access rows from the existing
  :class:`~repro.trace.compiled.CompiledAccessProgram`,
  augmented (with numpy) by an address-major CSR of each address's
  program-order access sequence and every access's position within it.
  Because the master thread submits tasks in trace order, the per-address
  OmpSs dependency state machine (:class:`~repro.taskgraph.address_state.
  AddressCell`) collapses to **four small integers per address** —
  inserted cursor, activated cursor, active count, active-is-writer —
  advanced over the static address-major arrays.  No cells, sets or
  deques.
* **timing tables folded across the task axis.**  Per-kernel cost
  columns (worker-overhead-inclusive nominal durations, Nanos
  creation/lock-insertion costs) are computed once per ``(program,
  kernel)`` with numpy elementwise arithmetic — IEEE-identical to the
  engine's per-event expressions — and reused by every run of that kernel.
* **flat run state**: the general engine's plain-tuple event heap and
  its ``(time, priority, sequence)`` discipline, flat per-task dependence-count/finished/dispatched state,
  an int heap of idle cores and a deque of queued ready tasks.

The engine stays the reference oracle: kernels exist only for managers
whose behaviour constant-folds (see
:meth:`repro.managers.base.TaskManagerModel.lane_kernel` — ideal and
Nanos today).  Hardware managers with history-dependent pipeline
contention, non-FIFO schedulers, heterogeneous topologies and sparse
task ids stay on the engine.  Kernel results are byte-identical to
:meth:`~repro.system.machine.Machine.run_scalar`, the engine replay,
pinned by the kernel-vs-scalar suites (``tests/batch/``,
``tests/golden/test_batch_equivalence.py``).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.managers.base import LaneKernelSpec, TaskManagerModel
from repro.system.results import MachineResult
from repro.system.scheduling import FifoPolicy
from repro.system.timeline import TaskTimeline
from repro.trace.columns import FULL_TASKWAIT
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


class LaneProgram:
    """Run-invariant compilation of one trace, cached on the trace.

    Everything here depends only on the trace — never on the manager,
    core count or seed of a run — so one program is shared by all runs.
    It is built from the trace's columns and its compiled access program,
    never from event or descriptor objects.  The event columns drive the
    master thread of both the kernel and the general engine
    (:mod:`repro.system.dynamic`): one op code per trace event
    (:data:`OP_SUBMIT`, :data:`OP_WAIT`, :data:`OP_WAIT_ON`), the
    submitted task's slot, and the ``taskwait on`` target.  The access
    rows and duration columns serve the kernel alone.
    """

    __slots__ = (
        "num_tasks", "num_events", "ops", "op_slot", "op_wait",
        "task_ids", "slot_of", "has_wait_on", "total_work_us",
        "num_addresses", "acc_off", "acc_aid", "acc_flags",
        "addr_off", "addr_task", "addr_flags",
        "duration", "creation", "num_params_eff", "_kernel_cache",
    )

    def __init__(self, trace: Trace) -> None:
        columns = trace.columns
        num_tasks = columns.num_tasks
        # One op per event: runs of submissions between barriers.
        ops: List[int] = []
        op_slot: List[int] = []
        wait_addresses: Dict[int, int] = {}  # event index -> taskwait-on address
        for start, end, barrier in columns.segments():
            ops.extend([OP_SUBMIT] * (end - start))
            op_slot.extend(range(start, end))
            if barrier is None:
                break
            if barrier == FULL_TASKWAIT:
                ops.append(OP_WAIT)
            else:
                wait_addresses[len(ops)] = barrier
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
        # master submits in trace order, so the target is static.
        self.has_wait_on = bool(wait_addresses)
        self.op_wait = [-1] * self.num_events
        if self.has_wait_on:
            offsets = columns.offsets
            addresses = columns.addresses
            flags = columns.flags
            last_writer: Dict[int, int] = {}
            for index, op in enumerate(ops):
                if op == OP_SUBMIT:
                    slot = op_slot[index]
                    for access in range(offsets[slot], offsets[slot + 1]):
                        if flags[access] & FLAG_WRITES:
                            last_writer[addresses[access]] = slot
                elif op == OP_WAIT_ON:
                    self.op_wait[index] = last_writer.get(wait_addresses[index], -1)
        # The columns' left-to-right float sum (Trace.total_work_us).
        self.total_work_us = columns.total_work_us

        # Task-major access rows (straight from the compiled program).
        program = trace.access_program()
        self.num_addresses = program.num_addresses
        self.acc_off = program.offsets
        self.acc_aid = program.addr_ids
        self.acc_flags = program.flags
        # Address-major CSR: each address's accesses in program order.  A
        # stable argsort groups the flat task-major accesses by address
        # while preserving the submission order within each address.
        if program.addr_ids:
            aid = np.asarray(program.addr_ids, dtype=np.int64)
            offsets = np.asarray(program.offsets, dtype=np.int64)
            counts = np.bincount(aid, minlength=self.num_addresses)
            addr_off = np.zeros(self.num_addresses + 1, dtype=np.int64)
            np.cumsum(counts, out=addr_off[1:])
            order = np.argsort(aid, kind="stable")
            slot_of_access = np.repeat(
                np.arange(self.num_tasks, dtype=np.int64), np.diff(offsets)
            )
            flags = np.asarray(program.flags, dtype=np.int64)
            self.addr_off = addr_off.tolist()
            self.addr_task = slot_of_access[order].tolist()
            self.addr_flags = flags[order].tolist()
            self.num_params_eff = np.maximum(np.diff(offsets), 1)
        else:
            self.addr_off = [0] * (self.num_addresses + 1)
            self.addr_task = []
            self.addr_flags = []
            self.num_params_eff = np.ones(self.num_tasks, dtype=np.int64)
        self.duration = columns.durations
        self.creation = columns.creations
        self._kernel_cache: Dict[LaneKernelSpec, Tuple[list, ...]] = {}

    def kernel_columns(self, kern: LaneKernelSpec) -> Tuple[list, list, list]:
        """Per-task cost columns of ``kern``, folded once and shared.

        Returns ``(nominal, creation_pp, insert_cost)`` lists indexed by
        task slot:

        * ``nominal[s]`` — worker occupancy ``worker_overhead +
          duration`` (both kernels);
        * ``creation_pp[s]`` — the Nanos per-parameter creation term
          ``creation_per_param_us * max(1, num_accesses)``, kept as a
          separate addend so the runtime sum ``(time + base) + pp``
          associates exactly like the engine's expression;
        * ``insert_cost[s]`` — the full Nanos locked-insertion cost
          ``insert_lock_us + insert_lock_per_param_us * max(1, n)``.

        All three are numpy float64 elementwise expressions — the same
        IEEE operations, in the same order, as the engine's per-event
        arithmetic, hence byte-identical values.
        """
        cached = self._kernel_cache.get(kern)
        if cached is None:
            durations = np.asarray(self.duration, dtype=np.float64)
            nominal = (kern.worker_overhead_us + durations).tolist()
            if kern.kind == "nanos":
                params = self.num_params_eff.astype(np.float64)
                creation_pp = (kern.creation_per_param_us * params).tolist()
                insert_cost = (
                    kern.insert_lock_us + kern.insert_lock_per_param_us * params
                ).tolist()
            else:
                creation_pp = []
                insert_cost = []
            cached = (nominal, creation_pp, insert_cost)
            self._kernel_cache[kern] = cached
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
    the trace must be a materialised static trace with dense task ids;
    the manager must publish a :class:`~repro.managers.base.
    LaneKernelSpec` and use the ``submit``/``finish``/``statistics`` of
    the class that declares it; dispatch must be plain :class:`~repro.system.scheduling.
    FifoPolicy` (not a subclass) over unit-speed cores; and ``taskwait
    on`` pragmas require manager support (no Nexus++-style degradation is
    folded into lane programs).  The machine's own policy and topology
    are checked, so nothing is rebuilt per run.
    """
    if not isinstance(trace, Trace):
        return "not a materialised static trace"
    manager = machine.manager
    if manager.lane_kernel() is None:
        return f"manager {manager.name!r} publishes no lane kernel"
    if _kernel_methods_overridden(manager):
        return "manager overrides methods the lane kernel replaces"
    if type(machine.policy) is not FifoPolicy:
        return "scheduler policy is not plain FIFO"
    if any(speed != 1.0 for speed in machine.topology.speed_factors):
        return "non-unit core speeds"
    prog = lane_program(trace)
    if prog.slot_of is not None:
        return "sparse task ids"
    if prog.has_wait_on and not manager.supports_taskwait_on:
        return "taskwait-on degradation requires the engine's master"
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
    inlines — in replicated order — the engine stack for the FIFO /
    homogeneous / dense-ids configuration: the trace master and event
    loop of :func:`repro.system.dynamic.run_engine` with its
    ``(time, priority, sequence)`` heap discipline,
    ``CorePool``'s lowest-id idle-core heap, ``FifoPolicy``'s deque, the compiled ``DependencyTracker`` insert /
    finish semantics reduced to per-address cursors, and the lane
    kernel's manager arithmetic (including exact
    :meth:`~repro.sim.resource.SerialResource.reserve` replication for
    the Nanos lock).  Schedules are byte-identical to the engine's; any
    behavioural change there must land here too (the kernel-vs-scalar
    golden and differential suites guard the pairing).  The number of
    events processed lands in ``machine.last_events_processed``, equal to
    the engine's pop count.
    """
    manager = machine.manager
    config = machine.config
    kern = manager.lane_kernel()
    assert kern is not None
    prog = lane_program(trace)
    nominal, creation_pp, insert_cost = prog.kernel_columns(kern)

    num_tasks = prog.num_tasks
    num_events = prog.num_events
    num_cores = config.num_cores
    ops = prog.ops
    op_slot = prog.op_slot
    op_wait = prog.op_wait
    acc_off = prog.acc_off
    acc_aid = prog.acc_aid
    acc_flags = prog.acc_flags
    addr_off = prog.addr_off
    addr_task = prog.addr_task
    addr_flags = prog.addr_flags
    creation = prog.creation

    nanos = kern.kind == "nanos"
    creation_base = kern.creation_base_us
    finish_lock_us = kern.finish_lock_us
    wakeup_us = kern.wakeup_per_task_us

    # --- flat run state -----------------------------------------------------
    num_addresses = prog.num_addresses
    dep_count = [0] * num_tasks
    finished = bytearray(num_tasks)
    dispatched = bytearray(num_tasks)
    ins_n = [0] * num_addresses      # accesses inserted per address
    act_n = [0] * num_addresses      # accesses activated per address
    act_rem = [0] * num_addresses    # unfinished activated tasks
    act_writer = bytearray(num_addresses)

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
    timeline = TaskTimeline(num_tasks) if collect else None
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
                    # -- tracker insert: per-address cursor state machine --
                    index = acc_off[slot]
                    row_end = acc_off[slot + 1]
                    deps = 0
                    while index < row_end:
                        address = acc_aid[index]
                        flag = acc_flags[index]
                        index += 1
                        if act_n[address] == ins_n[address]:  # no queued waiters
                            if flag & 2:
                                if act_rem[address] == 0:
                                    act_writer[address] = 1
                                    act_rem[address] = 1
                                    act_n[address] += 1
                                    ins_n[address] += 1
                                    continue
                            elif act_rem[address] == 0 or not act_writer[address]:
                                act_writer[address] = 0
                                act_rem[address] += 1
                                act_n[address] += 1
                                ins_n[address] += 1
                                continue
                        ins_n[address] += 1
                        deps += 1
                    dep_count[slot] = deps
                    inserted_count += 1
                    # -- manager submit arithmetic --
                    if nanos:
                        creation_done = (master_time + creation_base) + creation_pp[slot]
                        cost = insert_cost[slot]
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
                            f"manager {manager.name} accepted task {slot} in the past"
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
                if op == OP_WAIT:
                    if outstanding == 0:
                        event_index += 1
                        continue
                    blocked_kind = 1
                    break
                # op == OP_WAIT_ON (manager support checked by lane_fallback_reason)
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
            while index < row_end:
                address = acc_aid[index]
                index += 1
                act_rem[address] -= 1
                cursor = act_n[address]
                limit = ins_n[address]
                if cursor < limit:
                    base = addr_off[address]
                    while cursor < limit:
                        waiter_flag = addr_flags[base + cursor]
                        if waiter_flag & 2:
                            if act_rem[address] == 0:
                                waiter = addr_task[base + cursor]
                                cursor += 1
                                act_rem[address] = 1
                                act_writer[address] = 1
                                kickoffs += 1
                                remaining = dep_count[waiter] - 1
                                dep_count[waiter] = remaining
                                if remaining == 0:
                                    newly_ready.append(waiter)
                            break
                        if act_rem[address] and act_writer[address]:
                            break
                        waiter = addr_task[base + cursor]
                        cursor += 1
                        act_rem[address] += 1
                        act_writer[address] = 0
                        kickoffs += 1
                        remaining = dep_count[waiter] - 1
                        dep_count[waiter] = remaining
                        if remaining == 0:
                            newly_ready.append(waiter)
                    act_n[address] = cursor
            # -- manager finish arithmetic --
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
            # The freed core picks up the next queued ready task, if any
            # (inlined core dispatch: heappop(idle) is the lowest idle id,
            # matching CorePool on a homogeneous topology).
            heappush(idle, core)
            if ready_queue:
                next_task = rq_popleft()
                run_core = heappop(idle)
                duration = nominal[next_task]
                end = time + duration
                core_busy_us += duration
                busy_us[run_core] += duration
                if collect:
                    start_arr[next_task] = time
                    finish_arr[next_task] = end
                    core_arr[next_task] = run_core
                heappush(heap, (end, 0, seq, next_task, run_core))
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
                raise SimulationError(f"task {task_id} reported ready twice")
            dispatched[task_id] = 1
            if idle:
                run_core = heappop(idle)
                duration = nominal[task_id]
                end = time + duration
                core_busy_us += duration
                busy_us[run_core] += duration
                if collect:
                    start_arr[task_id] = time
                    finish_arr[task_id] = end
                    core_arr[task_id] = run_core
                heappush(heap, (end, 0, seq, task_id, run_core))
                seq += 1
            else:
                rq_append(task_id)
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

    if config.validate:
        assert timeline is not None
        validate_schedule(trace, timeline.start_dict(), timeline.finish_dict())

    if nanos:
        manager_stats = {
            "tasks_inserted": inserted_count,
            "tasks_finished": finished_count,
            "lock_busy_us": lock_busy,
            "lock_mean_wait_us": lock_wait / lock_reservations if lock_reservations else 0.0,
        }
    else:
        manager_stats = {
            "tasks_inserted": inserted_count,
            "tasks_finished": finished_count,
        }

    return MachineResult.of_run(
        machine, trace.name, timeline, makespan_us=makespan, total_work_us=prog.total_work_us,
        num_tasks=num_tasks, master_finish_us=master_time, core_busy_us=core_busy_us,
        manager_stats=manager_stats, per_core_busy_us=tuple(busy_us),
    )
