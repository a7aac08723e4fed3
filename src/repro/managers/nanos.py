"""Analytical model of the Nanos software runtime.

Nanos (the official OmpSs runtime) resolves dependencies in software.
The published analyses the paper builds on ([11], [17]) identify three
cost components, which this model reproduces:

1. **Task creation** on the master thread: allocating the task structure,
   copying the parameter list and running the dependency analysis.  This
   is inherently serial — the master cannot submit faster than it creates
   — and is the reason Nanos *loses* performance on h264dec-1x1, whose
   4.6 µs tasks are cheaper than their own creation.
2. **Dependency bookkeeping under a runtime lock**: registering the
   task's accesses in the software task graph, and, when a task finishes,
   releasing its successors.  Worker threads contend on this lock, so the
   model funnels both costs through a single serial resource.
3. **Per-task scheduling overhead on the worker** that picks the task up
   (queue operations, switching to the task's context).

The default constants are calibrated so that the 32-core behaviour of the
five Starbench workloads lands near the paper's Table IV Nanos column;
they can be overridden through :class:`NanosConfig` for sensitivity
studies (see ``benchmarks/bench_ablation_nanos.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.common.validation import check_non_negative
from repro.managers.base import LaneKernelSpec, Ready, TaskManagerModel
from repro.sim.resource import SerialResource
from repro.taskgraph.tracker import DependencyTracker
from repro.trace.task import TaskDescriptor


@dataclass(frozen=True)
class NanosConfig:
    """Cost constants (µs) of the Nanos software-runtime model."""

    #: Master-thread cost of creating one task (allocation + marshalling).
    task_creation_us: float = 2.6
    #: Master-thread cost per parameter for the dependency analysis.
    creation_per_param_us: float = 0.9
    #: Cost of registering the task in the graph, under the runtime lock.
    insert_lock_us: float = 0.35
    #: Per-parameter part of the locked insertion.
    insert_lock_per_param_us: float = 0.25
    #: Locked cost of retiring a finished task.
    finish_lock_us: float = 1.0
    #: Locked cost per successor task woken up by a completion.
    wakeup_per_task_us: float = 0.45
    #: Worker-side scheduling overhead added to every task execution.
    worker_dispatch_us: float = 1.2

    def __post_init__(self) -> None:
        for name in (
            "task_creation_us",
            "creation_per_param_us",
            "insert_lock_us",
            "insert_lock_per_param_us",
            "finish_lock_us",
            "wakeup_per_task_us",
            "worker_dispatch_us",
        ):
            check_non_negative(name, getattr(self, name))


class NanosManager(TaskManagerModel):
    """Software dependency resolution with a master bottleneck and a lock."""

    name = "Nanos"
    supports_taskwait_on = True

    def __init__(self, config: NanosConfig | None = None) -> None:
        #: The cost constants the model runs on; ``config`` is what
        #: :meth:`describe` reports (a configuration built on this model,
        #: such as the ``sw400`` manager, reports its own).
        self.costs = config or NanosConfig()
        self.config: object = self.costs
        self.worker_overhead_us = self.costs.worker_dispatch_us
        self._tracker = DependencyTracker(num_tables=1)
        self._lock = SerialResource("nanos-runtime-lock")

    def reset(self) -> None:
        self._tracker.reset()
        self._lock.reset()

    # -- TaskManagerModel ------------------------------------------------------
    def submit(self, task: TaskDescriptor, time_us: float) -> Tuple[float, Ready]:
        cfg = self.costs
        rows, dependence_count, _, _ = self._tracker.insert_task(task)
        num_params = max(1, len(rows))
        # Master-side creation work (serial by construction: the machine
        # only advances the master once we return accept_time).
        creation_done = time_us + cfg.task_creation_us + cfg.creation_per_param_us * num_params
        # Graph insertion happens under the runtime lock and may contend
        # with workers retiring tasks.
        lock_cost = cfg.insert_lock_us + cfg.insert_lock_per_param_us * num_params
        _, insert_done = self._lock.reserve(creation_done, lock_cost)
        if dependence_count:
            return (insert_done, ())
        return (insert_done, ((task.task_id, insert_done),))

    def finish(self, task_id: int, time_us: float) -> Tuple[Ready, float]:
        cfg = self.costs
        _, _, newly_ready, kickoff_count = self._tracker.finish_task(task_id)
        lock_cost = cfg.finish_lock_us + cfg.wakeup_per_task_us * kickoff_count
        _, finish_done = self._lock.reserve(time_us, lock_cost)
        return (tuple([(t, finish_done) for t in newly_ready]), finish_done)

    def lane_kernel(self) -> LaneKernelSpec:
        """Nanos is constant-foldable: per-task costs are affine in the
        parameter count and the runtime lock is one serial resource whose
        reservations the lane kernel replays arithmetically."""
        cfg = self.costs
        return LaneKernelSpec(
            kind="nanos",
            worker_overhead_us=self.worker_overhead_us,
            creation_base_us=cfg.task_creation_us,
            creation_per_param_us=cfg.creation_per_param_us,
            insert_lock_us=cfg.insert_lock_us,
            insert_lock_per_param_us=cfg.insert_lock_per_param_us,
            finish_lock_us=cfg.finish_lock_us,
            wakeup_per_task_us=cfg.wakeup_per_task_us,
        )

    # -- reporting ---------------------------------------------------------------
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
            "lock_mean_wait_us": self._lock.stats.mean_wait,
        }
