"""Result container of one machine simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.common.errors import AnalysisError


@dataclass
class MachineResult:
    """Outcome of simulating one trace on one manager and core count.

    All times are micro-seconds of simulated wall-clock time.
    """

    trace_name: str
    manager_name: str
    num_cores: int
    makespan_us: float
    total_work_us: float
    num_tasks: int
    submit_times: Dict[int, float] = field(default_factory=dict)
    ready_times: Dict[int, float] = field(default_factory=dict)
    start_times: Dict[int, float] = field(default_factory=dict)
    finish_times: Dict[int, float] = field(default_factory=dict)
    master_finish_us: float = 0.0
    core_busy_us: float = 0.0
    manager_stats: Mapping[str, object] = field(default_factory=dict)
    #: Ready-task dispatch policy the machine ran ("fifo" unless swept).
    scheduler: str = "fifo"
    #: Topology identity (``CoreTopology.describe()``; empty for legacy
    #: results deserialised from old documents).
    topology: Mapping[str, object] = field(default_factory=dict)
    #: Busy time accumulated by each core, indexed by core id.
    per_core_busy_us: Tuple[float, ...] = ()
    #: Core that executed each task (kept only with ``keep_schedule``).
    task_cores: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def of_run(cls, machine, trace_name: str, timeline, **measures) -> "MachineResult":
        """Assemble the result of one run of ``machine`` (kernel or engine).

        ``timeline`` is the run's :class:`~repro.system.timeline.
        TaskTimeline`, or ``None`` when it collected none; its columns are
        kept when the config keeps the schedule.  ``measures`` are the
        remaining fields: makespan, work, task count, master finish, busy
        times and manager statistics.
        """
        keep = machine.config.keep_schedule and timeline is not None
        return cls(
            trace_name=trace_name,
            manager_name=machine.manager.name,
            num_cores=machine.config.num_cores,
            submit_times=timeline.submit_dict() if keep else {},
            ready_times=timeline.ready_dict() if keep else {},
            start_times=timeline.start_dict() if keep else {},
            finish_times=timeline.finish_dict() if keep else {},
            scheduler=machine.policy.name,
            topology=machine.topology.describe(),
            task_cores=timeline.core_dict() if keep else {},
            **measures,
        )

    # -- derived metrics -----------------------------------------------------
    @property
    def speedup_vs_serial(self) -> float:
        """Speedup against the serial (single-core, zero-overhead) time.

        The paper computes all speedups "against the single core execution
        time of the ideal curve", which equals the total work of the trace.
        """
        if self.makespan_us <= 0:
            raise AnalysisError(f"non-positive makespan {self.makespan_us} for {self.trace_name}")
        return self.total_work_us / self.makespan_us

    @property
    def core_utilization(self) -> float:
        """Fraction of core-time spent executing task bodies."""
        if self.makespan_us <= 0 or self.num_cores <= 0:
            return 0.0
        return min(1.0, self.core_busy_us / (self.makespan_us * self.num_cores))

    @property
    def per_core_utilization(self) -> Tuple[float, ...]:
        """Fraction of the makespan each core spent busy, by core id.

        Empty when the machine did not report per-core busy times (old
        serialised results).
        """
        if self.makespan_us <= 0:
            return tuple(0.0 for _ in self.per_core_busy_us)
        return tuple(min(1.0, busy / self.makespan_us) for busy in self.per_core_busy_us)

    @property
    def mean_ready_latency_us(self) -> float:
        """Mean time between a task's submission and its ready notification."""
        if not self.ready_times:
            return 0.0
        total = 0.0
        count = 0
        for task_id, ready in self.ready_times.items():
            submitted = self.submit_times.get(task_id)
            if submitted is not None:
                total += ready - submitted
                count += 1
        return total / count if count else 0.0

    def _non_default_topology_label(self) -> "str | None":
        """Label for the topology when it differs from the paper's machine.

        The default is *homogeneous at unit speed* — a homogeneous
        topology with any other speed factor still changes every timing
        and must be reported (e.g. ``homogeneous:0.5``).
        """
        if not self.topology:
            return None
        kind = str(self.topology.get("kind", "homogeneous"))
        speeds = self.topology.get("speed_factors") or ()
        if kind == "homogeneous":
            if all(speed == 1.0 for speed in speeds):
                return None
            return f"homogeneous:{speeds[0]:g}" if speeds else "homogeneous"
        return kind

    def summary(self) -> Dict[str, object]:
        """Compact dictionary used by reports and benchmark output."""
        summary: Dict[str, object] = {
            "trace": self.trace_name,
            "manager": self.manager_name,
            "cores": self.num_cores,
            "makespan_ms": self.makespan_us / 1000.0,
            "speedup": round(self.speedup_vs_serial, 2),
            "core_utilization": round(self.core_utilization, 3),
            "mean_ready_latency_us": round(self.mean_ready_latency_us, 3),
        }
        if self.scheduler != "fifo":
            summary["scheduler"] = self.scheduler
        topology_label = self._non_default_topology_label()
        if topology_label is not None:
            summary["topology"] = topology_label
        utilisation = self.per_core_utilization
        if utilisation:
            summary["core_util_min"] = round(min(utilisation), 3)
            summary["core_util_max"] = round(max(utilisation), 3)
        return summary
