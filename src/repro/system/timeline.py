"""Struct-of-arrays per-task schedule record.

The pre-refactor machine loop kept five dictionaries keyed by task id
(submit/ready/start/finish times plus the descriptor map).  Task ids are
assigned densely in submission order by :class:`~repro.trace.trace.
TraceBuilder`, so the natural representation is a set of preallocated
arrays indexed by task id — no hashing on the hot path, better locality,
and one bulk conversion to the dict form the result layer serialises.

Traces whose ids are *not* dense (hand-built via ``TraceBuilder.extend``)
are handled by an explicit slot map, compiled once per trace into its
:class:`~repro.sim.batch.LaneProgram`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

NAN = float("nan")


class TaskTimeline:
    """Preallocated per-task schedule arrays, indexed by *slot*.

    For dense traces (the normal case) slot == task id.  For sparse ids
    the machine passes ``task_ids`` — the id of each slot in submission
    order — and indexes through its compiled slot map.

    Streams and dynamic runs, whose task ids are **not known at t=0**,
    use a *growable* timeline instead (:meth:`growable` + :meth:`add_task`):
    slots are appended in submission order as tasks are spawned, keeping
    the struct-of-arrays layout without preallocation.
    """

    __slots__ = ("num_tasks", "task_ids", "submit", "ready", "start", "finish", "core")

    def __init__(self, num_tasks: int, task_ids: Optional[Sequence[int]] = None) -> None:
        self.num_tasks = num_tasks
        self.task_ids: Optional[List[int]] = list(task_ids) if task_ids is not None else None
        self.submit: List[float] = [NAN] * num_tasks
        self.ready: List[float] = [NAN] * num_tasks
        self.start: List[float] = [NAN] * num_tasks
        self.finish: List[float] = [NAN] * num_tasks
        self.core: List[int] = [-1] * num_tasks

    @classmethod
    def growable(cls) -> "TaskTimeline":
        """An empty timeline that grows one slot per :meth:`add_task`."""
        return cls(0, task_ids=())

    def add_task(self, task_id: int) -> int:
        """Append a slot for ``task_id`` (submission order); return it."""
        task_ids = self.task_ids
        if task_ids is None:
            raise ValueError("add_task requires a growable timeline (use TaskTimeline.growable())")
        slot = self.num_tasks
        task_ids.append(task_id)
        self.num_tasks = slot + 1
        self.submit.append(NAN)
        self.ready.append(NAN)
        self.start.append(NAN)
        self.finish.append(NAN)
        self.core.append(-1)
        return slot

    # -- export --------------------------------------------------------------
    def _as_dict(self, values: List[float]) -> Dict[int, float]:
        """Dict view of one array, skipping never-written (NaN) slots."""
        if self.task_ids is None:  # dense: slot == task id
            return {slot: value for slot, value in enumerate(values) if value == value}
        return {task_id: value for task_id, value in zip(self.task_ids, values)
                if value == value}  # not NaN

    def submit_dict(self) -> Dict[int, float]:
        return self._as_dict(self.submit)

    def ready_dict(self) -> Dict[int, float]:
        return self._as_dict(self.ready)

    def start_dict(self) -> Dict[int, float]:
        return self._as_dict(self.start)

    def finish_dict(self) -> Dict[int, float]:
        return self._as_dict(self.finish)

    def core_dict(self) -> Dict[int, int]:
        """Task id -> core id that executed it (only scheduled tasks)."""
        if self.task_ids is None:
            return {slot: core for slot, core in enumerate(self.core) if core >= 0}
        return {task_id: core for task_id, core in zip(self.task_ids, self.core) if core >= 0}
