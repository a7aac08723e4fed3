"""An optimistic software task-graph manager (Vandierendonck et al. [17]).

The paper's discussion of related work cites Vandierendonck et al.'s
analysis that "the runtime overhead of their proposed software task graph
manager can go as low as 400 cycles (0.2 µs on their test machine) per
task", while stressing that this number comes from an ideal experiment
(inserting one-parameter tasks into an empty task graph).  This model
lets the reproduction include that optimistic software baseline in
comparisons and ablations: a fixed per-task cost on the master for
insertion and a fixed locked cost for retirement, with no additional
contention or per-parameter growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.common.validation import check_non_negative
from repro.managers.base import Ready, TaskManagerModel
from repro.sim.resource import SerialResource
from repro.taskgraph.tracker import DependencyTracker
from repro.trace.task import TaskDescriptor


@dataclass(frozen=True)
class VandierendonckConfig:
    """Cost constants (µs) of the optimistic software manager."""

    #: Per-task insertion cost on the submitting thread (0.2 µs = 400
    #: cycles on the cited 2 GHz test machine).
    insert_us: float = 0.2
    #: Per-task retirement cost, charged under a shared lock.
    retire_us: float = 0.2
    #: Worker-side dispatch overhead.
    worker_dispatch_us: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative("insert_us", self.insert_us)
        check_non_negative("retire_us", self.retire_us)
        check_non_negative("worker_dispatch_us", self.worker_dispatch_us)


class VandierendonckManager(TaskManagerModel):
    """Fixed-cost software dependency resolution (optimistic baseline)."""

    name = "SW-400cycles"
    supports_taskwait_on = True

    def __init__(self, config: VandierendonckConfig | None = None) -> None:
        self.config = config or VandierendonckConfig()
        self.worker_overhead_us = self.config.worker_dispatch_us
        self._tracker = DependencyTracker(num_tables=1)
        self._lock = SerialResource("sw-manager-lock")

    def reset(self) -> None:
        self._tracker.reset()
        self._lock.reset()

    def submit(self, task: TaskDescriptor, time_us: float) -> Tuple[float, Ready]:
        dependence_count = self._tracker.insert_task(task)[1]
        _, done = self._lock.reserve(time_us, self.config.insert_us)
        if dependence_count:
            return (done, ())
        return (done, ((task.task_id, done),))

    def finish(self, task_id: int, time_us: float) -> Tuple[Ready, float]:
        newly_ready = self._tracker.finish_task(task_id)[2]
        _, done = self._lock.reserve(time_us, self.config.retire_us)
        return (tuple([(t, done) for t in newly_ready]), done)

    def describe(self) -> Mapping[str, object]:
        return {
            "name": self.name,
            "supports_taskwait_on": self.supports_taskwait_on,
            "config": self.config.__dict__,
        }

    def statistics(self) -> Mapping[str, object]:
        return {
            "tasks_inserted": self._tracker.total_inserted,
            "tasks_finished": self._tracker.total_finished,
            "lock_busy_us": self._lock.stats.busy_time,
        }
