"""Dependency analysis of traces.

The task managers under study derive dependencies *dynamically* from the
parameter addresses, exactly like the OmpSs runtime: a task depends on an
earlier task when both touch the same address and at least one of them
writes it (RAW, WAR and WAW hazards).  This module performs the same
analysis *statically* on a trace, producing a reference DAG used for

* the Ideal ("No Overhead") manager, which needs ground-truth readiness;
* schedule validation — every simulated execution is checked against the
  DAG so a buggy hardware model cannot silently produce wrong speedups;
* workload statistics (dependency counts for Table II, critical paths).

The analysis is address-based, so it reproduces the managers' view of the
program rather than the programmer's intent; this matters e.g. for the
Gaussian-elimination workload, where many tasks read the address produced
by a single pivot task.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.common.errors import SimulationError
from repro.trace.task import FLAG_READS, FLAG_WRITES
from repro.trace.trace import Trace


@dataclass
class DependencyGraph:
    """The task dependency DAG of a trace.

    Attributes
    ----------
    trace_name:
        Name of the originating trace.
    predecessors / successors:
        Adjacency maps keyed by task id.  Barrier-induced orderings are
        *not* included here: barriers constrain the master thread, not
        the data-flow between tasks.
    durations:
        Task execution time (µs) by task id.
    submission_order:
        Task ids in submission order (a topological order).
    """

    trace_name: str
    predecessors: Dict[int, Set[int]] = field(default_factory=dict)
    successors: Dict[int, Set[int]] = field(default_factory=dict)
    durations: Dict[int, float] = field(default_factory=dict)
    submission_order: List[int] = field(default_factory=list)

    # -- basic queries ------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self.submission_order)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.successors.values())

    def roots(self) -> List[int]:
        """Tasks with no predecessors (ready as soon as submitted)."""
        return [t for t in self.submission_order if not self.predecessors[t]]

    def dependency_count_range(self) -> Tuple[int, int]:
        """Min and max number of direct predecessors over all tasks."""
        if not self.submission_order:
            return (0, 0)
        degrees = [len(self.predecessors[t]) for t in self.submission_order]
        return (min(degrees), max(degrees))

    # -- critical path ------------------------------------------------------
    def critical_path_length(self) -> float:
        """Length (in µs of task execution) of the longest dependency chain.

        This bounds the makespan from below on any number of cores with a
        zero-overhead manager, and therefore bounds the achievable
        speedup from above by ``total_work / critical_path``.
        """
        finish: Dict[int, float] = {}
        # submission_order is a topological order because dependencies only
        # ever point backwards in submission order.
        for task_id in self.submission_order:
            earliest = 0.0
            for pred in self.predecessors[task_id]:
                earliest = max(earliest, finish[pred])
            finish[task_id] = earliest + self.durations[task_id]
        return max(finish.values(), default=0.0)

    def total_work(self) -> float:
        """Sum of all task durations (µs)."""
        return sum(self.durations.values())

    def max_parallelism(self) -> float:
        """Upper bound on speedup: total work / critical path."""
        cp = self.critical_path_length()
        if cp <= 0:
            return float(self.num_tasks) if self.num_tasks else 0.0
        return self.total_work() / cp


def build_dependency_graph(trace: Trace) -> DependencyGraph:
    """Derive the dependency DAG of ``trace`` using OmpSs address semantics.

    For every address the analysis tracks the last writer and the set of
    readers since that writer:

    * a task reading the address depends on the last writer (RAW);
    * a task writing the address depends on the last writer (WAW) and on
      all readers since then (WAR);
    * barriers do not create inter-task edges.

    The analysis reads the trace's columns; no task object is built.
    """
    columns = trace.columns
    graph = DependencyGraph(trace_name=trace.name, submission_order=list(columns.task_ids),
                            durations=dict(zip(columns.task_ids, columns.durations)))
    offsets = columns.offsets
    addresses = columns.addresses
    flags = columns.flags
    last_writer: Dict[int, int] = {}
    readers_since_write: Dict[int, List[int]] = defaultdict(list)

    for slot, task_id in enumerate(columns.task_ids):
        preds: Set[int] = set()
        low, high = offsets[slot], offsets[slot + 1]
        accesses = tuple(zip(addresses[low:high], flags[low:high]))
        # First pass: collect dependencies from all parameters.
        for addr, flag in accesses:
            if flag & FLAG_READS:
                if addr in last_writer:
                    preds.add(last_writer[addr])
            if flag & FLAG_WRITES:
                if addr in last_writer:
                    preds.add(last_writer[addr])
                preds.update(readers_since_write[addr])
        preds.discard(task_id)
        graph.predecessors[task_id] = preds
        graph.successors.setdefault(task_id, set())
        for pred in preds:
            graph.successors.setdefault(pred, set()).add(task_id)
        # Second pass: update the address state with this task's accesses
        # (an inout task is the new last writer, so later readers depend
        # on it through last_writer alone).
        for addr, flag in accesses:
            if flag & FLAG_WRITES:
                last_writer[addr] = task_id
                readers_since_write[addr] = []
            else:
                readers_since_write[addr].append(task_id)
    return graph


def validate_schedule(
    trace: Trace,
    start_times: Mapping[int, float],
    finish_times: Mapping[int, float],
    *,
    graph: Optional[DependencyGraph] = None,
    tolerance: float = 1e-9,
) -> None:
    """Check that a simulated schedule respects every data dependency.

    Raises :class:`SimulationError` when a task started before one of its
    predecessors finished, when a task is missing from the schedule, or
    when a task finished before it started.
    """
    graph = graph or build_dependency_graph(trace)
    for task_id in graph.submission_order:
        if task_id not in start_times or task_id not in finish_times:
            raise SimulationError(f"task {task_id} missing from the schedule")
        if finish_times[task_id] + tolerance < start_times[task_id]:
            raise SimulationError(
                f"task {task_id} finishes at {finish_times[task_id]} before it starts "
                f"at {start_times[task_id]}"
            )
    for task_id in graph.submission_order:
        start = start_times[task_id]
        for pred in graph.predecessors[task_id]:
            if start + tolerance < finish_times[pred]:
                raise SimulationError(
                    f"dependency violation: task {task_id} starts at {start} before its "
                    f"predecessor {pred} finishes at {finish_times[pred]}"
                )
