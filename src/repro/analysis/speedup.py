"""Scalability sweeps: speedup as a function of the number of cores.

The paper's Figures 7, 8 and 9 all plot speedup over the single-core
zero-overhead execution time ("All speedup results are calculated against
the single core execution time of the ideal curve") for a set of managers
and core counts.  :func:`run_scalability` produces exactly those series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

from repro.analysis.factories import ManagerFactory
from repro.analysis.formatting import format_speedup_series
from repro.common.constants import PAPER_CORE_COUNTS
from repro.common.errors import ConfigurationError
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - the runner is imported lazily below
    from repro.experiments.runner import SweepRunner


@dataclass
class ScalabilityCurve:
    """Speedup of one manager across core counts on one trace."""

    manager_name: str
    trace_name: str
    core_counts: tuple[int, ...]
    speedups: tuple[float, ...]
    makespans_us: tuple[float, ...]

    @property
    def max_speedup(self) -> float:
        """Maximum speedup over the swept core counts (Table IV metric)."""
        return max(self.speedups) if self.speedups else 0.0

    def speedup_at(self, cores: int) -> float:
        """Speedup at a specific core count (must have been swept)."""
        try:
            return self.speedups[self.core_counts.index(cores)]
        except ValueError as exc:
            raise ConfigurationError(f"core count {cores} was not part of the sweep") from exc

    def as_mapping(self) -> Dict[int, float]:
        return dict(zip(self.core_counts, self.speedups))


@dataclass
class ScalabilityStudy:
    """All manager curves for one trace."""

    trace_name: str
    core_counts: tuple[int, ...]
    curves: Dict[str, ScalabilityCurve] = field(default_factory=dict)

    def series(self) -> Dict[str, tuple[float, ...]]:
        return {name: curve.speedups for name, curve in self.curves.items()}

    def render(self, title: Optional[str] = None) -> str:
        return format_speedup_series(title or self.trace_name, self.core_counts, self.series())


def run_scalability(
    trace: Trace,
    managers: Mapping[str, ManagerFactory],
    core_counts: Sequence[int] = PAPER_CORE_COUNTS,
    *,
    max_cores: Optional[Mapping[str, int]] = None,
    validate: bool = False,
    runner: Optional[SweepRunner] = None,
    schedulers: Sequence[str] = ("fifo",),
    topologies: Sequence[str] = ("homogeneous",),
) -> ScalabilityStudy:
    """Sweep speedup vs. core count for every manager on ``trace``.

    Parameters
    ----------
    trace:
        The workload to replay.
    managers:
        Mapping of display name to manager factory.
    core_counts:
        Core counts to sweep (the paper uses powers of two up to 256).
    max_cores:
        Optional per-manager limit (the paper only runs Nanos up to the 32
        physical cores of the trace machine); sweeps above the limit are
        skipped and the curve is truncated.
    validate:
        When true, every simulated schedule is checked against the
        reference dependency DAG (slow; used in tests).
    runner:
        The :class:`SweepRunner` to execute on.  ``None`` uses a fresh
        serial runner with no cache; pass a configured one for parallel
        (``n_jobs``) or incremental (``cache``) sweeps.
    schedulers / topologies:
        Ready-task dispatch policies and core-topology shapes to sweep
        (see :mod:`repro.system.scheduling` / :mod:`repro.system.
        topology`); when an axis has more than one entry, each manager
        grows one suffixed curve per combination.
    """
    # Imported lazily: repro.experiments sits on top of repro.analysis
    # (its specs resolve manager names via analysis.factories), so a
    # module-level import here would be circular.
    from repro.experiments.runner import SweepRunner
    from repro.experiments.spec import SweepSpec

    spec = SweepSpec(
        workloads=(trace,),
        managers=managers,
        core_counts=core_counts,
        max_cores=max_cores,
        validate=validate,
        schedulers=schedulers,
        topologies=topologies,
        name=f"scalability:{trace.name}",
    )
    outcome = (runner or SweepRunner()).run(spec)
    return outcome.study(trace.name)
