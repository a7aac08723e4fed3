"""The "No Overhead" (ideal) manager.

This reproduces the paper's first simulation set: "This simulates the
execution of an application without any overhead, to determine the lower
bound for the execution time of the benchmarks.  In this simulation, the
simulation time does not advance while dependencies are resolved"
(Section V-B).  Dependency bookkeeping is still performed — tasks only
become ready when their producers finish — but it costs zero simulated
time, so the resulting curve shows when the *application's* parallelism,
not the task manager, is the limiting factor.
"""

from __future__ import annotations

from typing import Mapping, Tuple

from repro.managers.base import LaneKernelSpec, Ready, TaskManagerModel
from repro.taskgraph.tracker import DependencyTracker
from repro.trace.task import TaskDescriptor


class IdealManager(TaskManagerModel):
    """Zero-overhead dependency resolution (the paper's ideal curve)."""

    name = "Ideal"
    supports_taskwait_on = True
    worker_overhead_us = 0.0

    def __init__(self) -> None:
        self._tracker = DependencyTracker(num_tables=1)

    def reset(self) -> None:
        self._tracker.reset()

    def submit(self, task: TaskDescriptor, time_us: float) -> Tuple[float, Ready]:
        if self._tracker.insert_task(task)[1]:
            return (time_us, ())
        return (time_us, ((task.task_id, time_us),))

    def finish(self, task_id: int, time_us: float) -> Tuple[Ready, float]:
        newly_ready = self._tracker.finish_task(task_id)[2]
        return (tuple([(t, time_us) for t in newly_ready]), time_us)

    def lane_kernel(self) -> LaneKernelSpec:
        """The ideal manager is pure dependency bookkeeping: zero cost,
        ready times equal to the submit/finish times — exactly the
        kernel's ``"ideal"`` kind."""
        return LaneKernelSpec(kind="ideal", worker_overhead_us=self.worker_overhead_us)

    def statistics(self) -> Mapping[str, object]:
        return {
            "tasks_inserted": self._tracker.total_inserted,
            "tasks_finished": self._tracker.total_finished,
        }
