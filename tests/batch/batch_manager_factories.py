"""The golden manager configurations plus sw400, as fresh-instance factories.

Mirrors ``tests/golden/golden_config.GOLDEN_MANAGERS`` (same paper
configurations) without importing across test directories, and adds the
optimistic software manager, a Nanos configuration.  All five publish
lane kernels, so ``Machine.run`` replays their eligible static
traces (FIFO, unit-speed cores, dense task ids) on the fast kernel; the
kernel must be byte-identical to ``Machine.run_scalar``, the general
engine.
"""

from __future__ import annotations

from repro.analysis.factories import (
    ideal_factory,
    nanos_factory,
    nexus_pp_factory,
    nexus_sharp_factory,
    vandierendonck_factory,
)

BATCH_TEST_MANAGERS = {
    "ideal": ideal_factory(),
    "nanos": nanos_factory(),
    "sw400": vandierendonck_factory(),
    "nexuspp": nexus_pp_factory(),
    "nexussharp": nexus_sharp_factory(6),
}

#: Managers whose runs take the kernel.
KERNEL_MANAGERS = ("ideal", "nanos", "sw400", "nexuspp", "nexussharp")
