"""An optimistic software task-graph manager (Vandierendonck et al. [17]).

The paper's discussion of related work cites Vandierendonck et al.'s
analysis that "the runtime overhead of their proposed software task graph
manager can go as low as 400 cycles (0.2 µs on their test machine) per
task", while stressing that this number comes from an ideal experiment
(inserting one-parameter tasks into an empty task graph).  This model
lets the reproduction include that optimistic software baseline in
comparisons and ablations: a fixed per-task cost on the master for
insertion and a fixed locked cost for retirement, with no additional
contention or per-parameter growth.  That is the Nanos cost model of
:mod:`repro.managers.nanos` with the creation, per-parameter and wake-up
costs at zero, so the manager is a :class:`NanosManager` configuration
and its static runs replay on the Nanos lane kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.validation import check_non_negative
from repro.managers.base import LaneKernelSpec
from repro.managers.nanos import NanosConfig, NanosManager


@dataclass(frozen=True)
class VandierendonckConfig:
    """Cost constants (µs) of the optimistic software manager."""

    #: Per-task insertion cost (0.2 µs = 400 cycles on the cited 2 GHz
    #: test machine), charged under the manager's lock.
    insert_us: float = 0.2
    #: Per-task retirement cost, charged under the same lock.
    retire_us: float = 0.2
    #: Worker-side dispatch overhead.
    worker_dispatch_us: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative("insert_us", self.insert_us)
        check_non_negative("retire_us", self.retire_us)
        check_non_negative("worker_dispatch_us", self.worker_dispatch_us)


class VandierendonckManager(NanosManager):
    """Fixed-cost software dependency resolution (optimistic baseline).

    ``config`` stays the three-field :class:`VandierendonckConfig` (it is
    what :meth:`describe` reports); the Nanos model runs on the
    :class:`NanosConfig` it maps to.
    """

    name = "SW-400cycles"

    def __init__(self, config: VandierendonckConfig | None = None) -> None:
        config = config or VandierendonckConfig()
        super().__init__(NanosConfig(
            task_creation_us=0.0,
            creation_per_param_us=0.0,
            insert_lock_us=config.insert_us,
            insert_lock_per_param_us=0.0,
            finish_lock_us=config.retire_us,
            wakeup_per_task_us=0.0,
            worker_dispatch_us=config.worker_dispatch_us,
        ))
        self.config = config

    def lane_kernel(self) -> LaneKernelSpec:
        """The Nanos kernel spec of the mapped configuration.

        Declared on this class so that it owns the methods the kernel
        replaces, as every kernel manager does: a layer probe wrapping
        this class's ``submit`` keeps its runs on the kernel.
        """
        return super().lane_kernel()
