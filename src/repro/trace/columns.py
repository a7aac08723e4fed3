"""The column form of a trace.

A :class:`~repro.trace.trace.Trace` stores its master-thread program as
flat, immutable columns rather than as one object per task and one per
parameter.  The workload generators append to these columns through
:class:`~repro.trace.trace.TraceBuilder`, the columns are validated once
per column, and the compiled forms (:class:`~repro.trace.compiled.
CompiledAccessProgram`, :class:`~repro.sim.batch.LaneProgram`) are built
straight from them.  Event and descriptor objects are views built on
demand (:meth:`TraceColumns.descriptors`, :meth:`TraceColumns.events`).

Per task, indexed by *slot* (submission order):

* ``task_ids``, ``functions``, ``durations``, ``creations``;
* ``offsets`` (``num_tasks + 1`` entries): ``offsets[s] .. offsets[s+1]``
  delimit task ``s``'s parameters in the per-parameter columns
  ``addresses``, ``flags`` (:data:`~repro.trace.task.FLAG_READS` /
  :data:`~repro.trace.task.FLAG_WRITES` bits) and ``sizes`` (``None``
  when every size is 0);
* ``parents``: ``{slot: parent id or None}`` for tasks recorded as
  :class:`~repro.trace.events.SpawnEvent` (``None`` when there are none).

Per barrier, in program order: ``barrier_at`` (how many tasks were
submitted before it) and ``barrier_addr`` (:data:`FULL_TASKWAIT` for a
``taskwait``, else the ``taskwait on`` address).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.constants import ADDRESS_MASK
from repro.common.errors import TraceError
from repro.trace.events import SpawnEvent, TaskSubmitEvent, TaskwaitEvent, TaskwaitOnEvent, TraceEvent
from repro.trace.task import TaskDescriptor, column_error, make_task

#: ``barrier_addr`` entry of a full ``taskwait``.
FULL_TASKWAIT = -1

_INF = math.inf


def _check_times(column: str, values: Tuple[float, ...]) -> float:
    """Validate a time column; return its left-to-right sum.

    A finite sum rules out NaN and ±inf in one C-level pass, and a
    non-negative minimum then rules out negative values; only a failing
    column is walked value by value.
    """
    total = sum(values)
    if total < _INF and (not values or min(values) >= 0.0):
        return total
    for index, value in enumerate(values):
        if not 0.0 <= value < _INF:
            raise column_error(column, index, "must be finite and >= 0", value)
    return total  # finite values whose sum overflowed: still valid


def _check_addresses(addresses: Sequence[int], offsets: Sequence[int]) -> None:
    if not addresses:
        return
    if set(map(type, addresses)) <= {int} and min(addresses) >= 0 and max(addresses) <= ADDRESS_MASK:
        return
    for index, address in enumerate(addresses):
        if not _is_address(address):
            raise column_error("addresses", bisect_right(offsets, index) - 1,
                               "must be a non-bool int within 48 bits", address)


def _is_address(value: object) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and 0 <= value <= ADDRESS_MASK)


class TraceColumns:
    """The validated, immutable column form of one trace (see module doc)."""

    __slots__ = ("task_ids", "functions", "durations", "creations", "offsets",
                 "addresses", "flags", "sizes", "parents", "barrier_at", "barrier_addr",
                 "total_work_us")

    def __init__(
        self,
        task_ids: Sequence[int],
        functions: Sequence[str],
        durations: Sequence[float],
        creations: Sequence[float],
        offsets: Sequence[int],
        addresses: Sequence[int],
        flags: Sequence[int],
        sizes: Optional[Sequence[int]] = None,
        parents: Optional[Dict[int, Optional[int]]] = None,
        barrier_at: Sequence[int] = (),
        barrier_addr: Sequence[int] = (),
    ) -> None:
        self.task_ids = tuple(task_ids)
        self.functions = tuple(functions)
        self.durations = tuple(durations)
        self.creations = tuple(creations)
        self.offsets = tuple(offsets)
        self.addresses = tuple(addresses)
        self.flags = tuple(flags)
        self.sizes = None if sizes is None or not any(sizes) else tuple(sizes)
        self.parents = parents or None
        self.barrier_at = tuple(barrier_at)
        self.barrier_addr = tuple(barrier_addr)
        self.total_work_us = self._validate()

    def _validate(self) -> float:
        """Check every column once; return the total work (a float sum)."""
        task_ids = self.task_ids
        if task_ids != tuple(range(len(task_ids))) and len(set(task_ids)) != len(task_ids):
            seen: set = set()
            for task_id in task_ids:
                if task_id in seen:
                    raise TraceError(f"duplicate task id {task_id} in trace")
                seen.add(task_id)
        if not all(self.functions):
            index = next(i for i, f in enumerate(self.functions) if not f)
            raise column_error("function", index, "must be a non-empty name", self.functions[index])
        total = _check_times("duration_us", self.durations)
        _check_times("creation_overhead_us", self.creations)
        _check_addresses(self.addresses, self.offsets)
        if self.sizes is not None and min(self.sizes) < 0:
            index = next(i for i, s in enumerate(self.sizes) if s < 0)
            raise column_error("sizes", bisect_right(self.offsets, index) - 1, "must be >= 0",
                               self.sizes[index])
        for index, address in enumerate(self.barrier_addr):
            if address != FULL_TASKWAIT and not _is_address(address):
                raise TraceError(f"column 'barrier_addr', barrier {index}: must be "
                                 f"{FULL_TASKWAIT} or a non-bool int within 48 bits, got {address!r}")
        return total

    # -- geometry ------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def num_barriers(self) -> int:
        return len(self.barrier_at)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    __hash__ = None  # type: ignore[assignment]

    # -- object views --------------------------------------------------------
    def descriptors(self) -> List[TaskDescriptor]:
        """One :class:`TaskDescriptor` per slot (no checks, no Parameters)."""
        offsets = self.offsets
        addresses = self.addresses
        flags = self.flags
        sizes = self.sizes
        tasks: List[TaskDescriptor] = []
        append = tasks.append
        low = 0
        for slot, (task_id, function, duration, creation) in enumerate(
                zip(self.task_ids, self.functions, self.durations, self.creations)):
            high = offsets[slot + 1]
            task_sizes = None
            if sizes is not None:
                task_sizes = sizes[low:high]
                if not any(task_sizes):
                    task_sizes = None
            append(make_task(task_id, function, addresses[low:high], flags[low:high],
                             task_sizes, duration, creation))
            low = high
        return tasks

    def segments(self) -> Iterator[Tuple[int, int, Optional[int]]]:
        """The program order as runs of submissions between barriers.

        Yields ``(start, end, barrier)``: tasks ``start .. end-1`` are
        submitted, then the barrier (:data:`FULL_TASKWAIT` or a ``taskwait
        on`` address) runs; the final run has ``barrier`` ``None``.
        """
        submitted = 0
        for at, address in zip(self.barrier_at, self.barrier_addr):
            yield submitted, at, address
            submitted = at
        yield submitted, len(self.task_ids), None

    def events(self, tasks: Sequence[TaskDescriptor]) -> Tuple[TraceEvent, ...]:
        """The event sequence, given this trace's :meth:`descriptors`."""
        parents = self.parents or {}
        events: List[TraceEvent] = []
        append = events.append
        for start, end, barrier in self.segments():
            for slot in range(start, end):
                if slot in parents:
                    append(SpawnEvent(tasks[slot], parent_id=parents[slot]))
                else:
                    append(TaskSubmitEvent(tasks[slot]))
            if barrier == FULL_TASKWAIT:
                append(TaskwaitEvent())
            elif barrier is not None:
                append(TaskwaitOnEvent(address=barrier))
        return tuple(events)
