"""Nexus# — the distributed hardware task manager (the paper's contribution).

Nexus# replaces the single task graph of Nexus++ with ``n`` independent
task graphs and scatters the parameters of incoming tasks over them with
the XOR-fold hash of :mod:`repro.nexus.distribution`.  The pipeline
(Section IV, Figures 2/4/5) becomes:

1. **Input Parser (IP)** — receives the header (2 cycles) and each
   48-bit parameter (2 cycles), *immediately* forwarding every parameter
   to its task graph's New Args. buffer, and finally writes the task
   descriptor to the Task Pool (1 cycle);
2. **Insertion (IN)** — each task graph independently inserts the
   parameters queued at its New Args. buffer (5 cycles per parameter,
   after the buffer's 3-cycle fall-through);
3. **Arbitration (AR)** — the Dependence Counts Arbiter gathers the
   per-task-graph results, concludes the task's final dependence count
   and forwards ready tasks to the Internal Ready Tasks buffer;
4. **Write Back (WB)** — ready task ids are translated through the
   Function Pointers table and handed to the Nexus IO unit (3 cycles),
   after the ready buffer's 3-cycle fall-through.

Finished tasks follow the symmetric path: the Input Parser reads the
task's I/O list back from the Task Pool, redistributes the addresses to
the Finished Args. buffers, each task graph updates its tables and emits
the kicked-off waiters, and the arbiter decrements their dependence
counts, forwarding those reaching zero to the Write Back stage.

Unlike Nexus++, Nexus# supports the ``taskwait on`` pragma, which is what
lets the fine-grained H264dec benchmark scale (Section VI).

The model makes one tracker call per task per side and reads its flat
tuples directly: each parameter's task-graph port is ``row[3]`` of the
task's preresolved rows, its set-conflict stall bit *i* of
``conflict_mask``, and its kick-off work ``released[i]``.  Every serial
stage is reserved inline, and ready tasks leave as plain
``(task_id, time_us)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.common.constants import (
    DEFAULT_KICKOFF_CAPACITY,
    DEFAULT_TABLE_SETS,
    DEFAULT_TABLE_WAYS,
    MAX_TASK_GRAPHS,
)
from repro.common.errors import ConfigurationError
from repro.common.units import Frequency
from repro.common.validation import check_positive, check_positive_int
from repro.managers.base import LaneKernelSpec, Ready, TaskManagerModel
from repro.nexus.arbiter import DependenceCountsArbiter
from repro.nexus.distribution import nexus_hash
from repro.nexus.timing import (
    NexusSharpTiming,
    shared_offset_tables,
    synthesis_frequency_mhz,
)
from repro.sim.resource import SerialResource
from repro.taskgraph.table import AddressTable
from repro.taskgraph.tracker import DependencyTracker
from repro.trace.task import TaskDescriptor


@dataclass(frozen=True)
class NexusSharpConfig:
    """Configuration of a Nexus# instance."""

    #: Number of distributed task graphs (1..32).
    num_task_graphs: int = 6
    #: Manager clock frequency in MHz.  ``None`` selects the synthesis
    #: (test) frequency of Table I for the chosen number of task graphs;
    #: Figure 7(a) style experiments pass an explicit 100.0 instead.
    frequency_mhz: Optional[float] = None
    #: Pipeline latencies.
    timing: NexusSharpTiming = field(default_factory=NexusSharpTiming)
    #: Geometry of each task graph.
    table_sets: int = DEFAULT_TABLE_SETS
    table_ways: int = DEFAULT_TABLE_WAYS
    kickoff_capacity: int = DEFAULT_KICKOFF_CAPACITY

    def __post_init__(self) -> None:
        check_positive_int("num_task_graphs", self.num_task_graphs)
        if self.num_task_graphs > MAX_TASK_GRAPHS:
            raise ConfigurationError(
                f"num_task_graphs must be in [1, {MAX_TASK_GRAPHS}], got {self.num_task_graphs}"
            )
        if self.frequency_mhz is not None:
            check_positive("frequency_mhz", self.frequency_mhz)
        for name in ("table_sets", "table_ways", "kickoff_capacity"):
            check_positive_int(name, getattr(self, name))

    @property
    def effective_frequency_mhz(self) -> float:
        """The frequency the manager actually runs at."""
        if self.frequency_mhz is not None:
            return self.frequency_mhz
        return synthesis_frequency_mhz(self.num_task_graphs)


class NexusSharpManager(TaskManagerModel):
    """Cycle-approximate model of the Nexus# distributed task manager."""

    supports_taskwait_on = True
    worker_overhead_us = 0.0

    def __init__(self, config: Optional[NexusSharpConfig] = None) -> None:
        self.config = config or NexusSharpConfig()
        self.name = f"Nexus# {self.config.num_task_graphs}TG"
        self._frequency = Frequency(self.config.effective_frequency_mhz)
        self._cycle_us = self._frequency.cycle_time_us
        num_tg = self.config.num_task_graphs
        self._tracker = DependencyTracker(
            num_tables=num_tg,
            distribute=lambda address: nexus_hash(address, num_tg),
            table_factory=lambda index: AddressTable(
                num_sets=self.config.table_sets,
                ways=self.config.table_ways,
                kickoff_capacity=self.config.kickoff_capacity,
                name=f"nexus#-TG{index}",
            ),
        )
        timing = self.config.timing
        self._input_parser = SerialResource("nexus#-input-parser")
        # The per-task-graph insertion ports are plain next-free/busy-time
        # arrays: the submit/finish loops touch one port per access, and
        # the serial-reservation arithmetic (start = max(visible, free);
        # end = start + duration) is accumulated inline instead of one
        # SerialResource.reserve call per access.
        self._tg_next_free: List[float] = [0.0] * num_tg
        self._tg_busy_us: List[float] = [0.0] * num_tg
        self._write_back = SerialResource("nexus#-write-back")
        self._arbiter = DependenceCountsArbiter(
            cycles_per_result=timing.arbiter_cycles_per_result,
            conclude_cycles=timing.arbiter_conclude_cycles,
            decrement_cycles=timing.arbiter_decrement_cycles,
            cycle_us=self._cycle_us,
        )
        # Precomputed cycle->µs constants and per-index offset tables
        # (grown on demand): every per-access multiply in the pipeline
        # model becomes a table lookup with bit-identical values.
        cycle_us = self._cycle_us
        self._args_fifo_us = timing.args_fifo_latency_cycles * cycle_us
        self._insert_us = timing.insert_cycles_per_param * cycle_us
        self._insert_conflict_us = (
            (timing.insert_cycles_per_param + timing.set_conflict_stall_cycles) * cycle_us
        )
        self._ready_fifo_us = timing.ready_fifo_latency_cycles * cycle_us
        self._writeback_us = timing.writeback_cycles * cycle_us
        # Per-index offset tables, process-shared per (timing, cycle_us):
        # sweep points with the same configuration alias
        # the same monotonically grown lists.
        self._tables = shared_offset_tables(timing, cycle_us)
        self._fwd_us = self._tables.fwd_us
        self._fin_fwd_us = self._tables.fin_fwd_us
        self._input_us = self._tables.input_us
        self._fin_input_us = self._tables.fin_input_us
        self._ready_latency_total_us = 0.0
        self._ready_count = 0

    @property
    def frequency(self) -> Frequency:
        """The manager clock actually in use."""
        return self._frequency

    @property
    def num_task_graphs(self) -> int:
        return self.config.num_task_graphs

    def reset(self) -> None:
        self._tracker.reset()
        self._input_parser.reset()
        num_tg = self.config.num_task_graphs
        self._tg_next_free = [0.0] * num_tg
        self._tg_busy_us = [0.0] * num_tg
        self._write_back.reset()
        self._arbiter.reset()
        self._ready_latency_total_us = 0.0
        self._ready_count = 0

    # -- TaskManagerModel --------------------------------------------------------
    def submit(self, task: TaskDescriptor, time_us: float) -> Tuple[float, Ready]:
        rows, dependence_count, _, conflict_mask = self._tracker.insert_task(task)
        num_accesses = len(rows)
        num_params = task.num_params
        if num_params < 1:
            num_params = 1
        input_us = self._input_us
        if num_params >= len(input_us) or num_accesses > len(self._fwd_us):
            self._tables.grow_sharp_submit(max(num_params, num_accesses))

        # Stage 1: Input Parser.  Parameters are forwarded to their task
        # graphs as they arrive; the descriptor is written to the Task
        # Pool at the end.  (SerialResource.reserve inlined: start =
        # max(earliest, next_free); end = start + duration.)
        parser = self._input_parser
        duration = input_us[num_params]
        next_free = parser._next_free
        ip_start = time_us if time_us > next_free else next_free
        ip_end = ip_start + duration
        parser._next_free = ip_end
        parser_stats = parser.stats
        parser_stats.reservations += 1
        parser_stats.busy_time += duration
        parser_stats.total_wait += ip_start - time_us

        if not num_accesses:
            # A task with an empty parameter list is trivially ready; it
            # skips the task graphs entirely and is reported straight from
            # the Input Parser through the ready path.
            concluded = ip_end
        else:
            # Stage 2: per-parameter insertion at the owning task graph
            # (``row[3]``).  One serial port per task graph, accumulated
            # arithmetically: the reservation is start = max(visible,
            # next_free), end = start + occupancy, exactly what
            # SerialResource.reserve computes.
            fwd_us = self._fwd_us
            fifo_us = self._args_fifo_us
            plain_us = self._insert_us
            conflict_us = self._insert_conflict_us
            tg_next_free = self._tg_next_free
            tg_busy_us = self._tg_busy_us
            insert_ends: List[float] = []
            append_end = insert_ends.append
            index = 0
            for row in rows:
                visible_us = ip_start + fwd_us[index] + fifo_us
                occupancy_us = conflict_us if conflict_mask >> index & 1 else plain_us
                index += 1
                port = row[3]
                next_free = tg_next_free[port]
                start = visible_us if visible_us > next_free else next_free
                tg_end = start + occupancy_us
                tg_next_free[port] = tg_end
                tg_busy_us[port] += occupancy_us
                append_end(tg_end)

            # Stage 3: the arbiter gathers one result per parameter, in the
            # order the task graphs produce them.
            insert_ends.sort()
            concluded = self._arbiter.gather(insert_ends)
            if dependence_count:
                return (ip_end, ())

        # Stage 4: the ready task passes the Internal Ready Tasks buffer
        # and the Write Back stage (serial reservation inlined).
        write_back = self._write_back
        wb_available = concluded + self._ready_fifo_us
        next_free = write_back._next_free
        start = wb_available if wb_available > next_free else next_free
        wb_end = start + self._writeback_us
        write_back._next_free = wb_end
        wb_stats = write_back.stats
        wb_stats.reservations += 1
        wb_stats.busy_time += self._writeback_us
        wb_stats.total_wait += start - wb_available
        self._ready_latency_total_us += wb_end - time_us
        self._ready_count += 1
        return (ip_end, ((task.task_id, wb_end),))

    def finish(self, task_id: int, time_us: float) -> Tuple[Ready, float]:
        rows, released, newly_ready, _ = self._tracker.finish_task(task_id)
        num_accesses = len(rows)
        num_params = num_accesses if num_accesses > 1 else 1
        fin_input_us = self._fin_input_us
        if num_params >= len(fin_input_us) or num_accesses > len(self._fin_fwd_us):
            self._tables.grow_sharp_finish(num_params)

        # The Input Parser reads the finished task's I/O list from the Task
        # Pool and redistributes the addresses to the Finished Args
        # buffers (serial reservation inlined as in submit).
        parser = self._input_parser
        duration = fin_input_us[num_params]
        next_free = parser._next_free
        fp_start = time_us if time_us > next_free else next_free
        fp_end = fp_start + duration
        parser._next_free = fp_end
        parser_stats = parser.stats
        parser_stats.reservations += 1
        parser_stats.busy_time += duration
        parser_stats.total_wait += fp_start - time_us

        # Each owning task graph updates its entry and emits the kicked-off
        # waiters; the arbiter then decrements their dependence counts.
        # The last decrement of a waiter is only needed when some waiter
        # becomes ready.
        fwd_us = self._fin_fwd_us
        fifo_us = self._args_fifo_us
        cycle_us = self._cycle_us
        timing = self.config.timing
        update_cycles_base = timing.finish_update_cycles_per_param
        kickoff_cycles = timing.kickoff_cycles_per_waiter
        tg_next_free = self._tg_next_free
        tg_busy_us = self._tg_busy_us
        decrement_many = self._arbiter.decrement_many
        last_decrement: Optional[Dict[int, float]] = {} if newly_ready else None
        index = 0
        for row in rows:
            visible_us = fp_start + fwd_us[index] + fifo_us
            kicked = released[index]
            index += 1
            occupancy_us = (update_cycles_base + kickoff_cycles * len(kicked)) * cycle_us
            port = row[3]
            next_free = tg_next_free[port]
            start = visible_us if visible_us > next_free else next_free
            tg_end = start + occupancy_us
            tg_next_free[port] = tg_end
            tg_busy_us[port] += occupancy_us
            if kicked:
                ends = decrement_many(tg_end, len(kicked))
                if last_decrement is not None:
                    for waiter, decrement_end in zip(kicked, ends):
                        if decrement_end > last_decrement.get(waiter, 0.0):
                            last_decrement[waiter] = decrement_end
        if last_decrement is None:
            return ((), fp_end)

        # Ready waiters pass the Internal Ready Tasks buffer and the Write
        # Back stage in order (serial reservations inlined).
        write_back = self._write_back
        wb_stats = write_back.stats
        ready_fifo_us = self._ready_fifo_us
        writeback_us = self._writeback_us
        next_free = write_back._next_free
        ready = []
        for ready_task in newly_ready:
            wb_available = last_decrement.get(ready_task, fp_end) + ready_fifo_us
            start = wb_available if wb_available > next_free else next_free
            next_free = start + writeback_us
            wb_stats.reservations += 1
            wb_stats.busy_time += writeback_us
            wb_stats.total_wait += start - wb_available
            self._ready_latency_total_us += next_free - time_us
            ready.append((ready_task, next_free))
        write_back._next_free = next_free
        self._ready_count += len(newly_ready)
        return (tuple(ready), fp_end)

    def lane_kernel(self) -> LaneKernelSpec:
        """The kernel spec: this configuration, clock period and worker overhead.

        :func:`repro.sim.batch.run_kernel` replays :meth:`submit` and
        :meth:`finish` from it: the Input Parser, the per-task-graph
        ports, the arbiter's ``gather`` and ``decrement_many`` and Write
        Back as inline serial reservations over the process-shared
        latency tables (:func:`repro.nexus.timing.shared_offset_tables`),
        with each address placed by :func:`~repro.nexus.distribution.
        nexus_hash` and :meth:`~repro.taskgraph.table.AddressTable.
        set_index` as in the tracker; way occupancy, set conflicts and the
        waiters each row releases come from the kernel's per-address
        cursors.  Its ``manager_stats`` equal :meth:`statistics`.
        """
        return LaneKernelSpec(kind="nexus#", worker_overhead_us=self.worker_overhead_us,
                              config=self.config, cycle_us=self._cycle_us)

    # -- reporting -----------------------------------------------------------------
    def describe(self) -> Mapping[str, object]:
        return {
            "name": self.name,
            "supports_taskwait_on": self.supports_taskwait_on,
            "num_task_graphs": self.config.num_task_graphs,
            "frequency_mhz": self.config.effective_frequency_mhz,
            "table_sets": self.config.table_sets,
            "table_ways": self.config.table_ways,
        }

    def statistics(self) -> Mapping[str, object]:
        per_tg_busy = list(self._tg_busy_us)
        per_tg_conflicts = [table.stats.set_conflicts for table in self._tracker.tables]
        return {
            "tasks_inserted": self._tracker.total_inserted,
            "tasks_finished": self._tracker.total_finished,
            "input_parser_busy_us": self._input_parser.stats.busy_time,
            "write_back_busy_us": self._write_back.stats.busy_time,
            "arbiter_busy_us": self._arbiter.busy_time_us,
            "task_graph_busy_us": per_tg_busy,
            "set_conflicts": per_tg_conflicts,
            "mean_ready_latency_us": (
                self._ready_latency_total_us / self._ready_count if self._ready_count else 0.0
            ),
        }
