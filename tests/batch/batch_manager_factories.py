"""The four golden manager configurations, as fresh-instance factories.

Mirrors ``tests/golden/golden_config.GOLDEN_MANAGERS`` (same paper
configurations) without importing across test directories.  The ideal
and nanos managers publish lane kernels, so ``Machine.run`` replays
them on the fast kernel; the two nexus managers decline
(``lane_kernel() is None``) and keep the scalar loop — both paths must
be byte-identical to ``Machine.run_scalar``.
"""

from __future__ import annotations

from repro.analysis.factories import (
    ideal_factory,
    nanos_factory,
    nexus_pp_factory,
    nexus_sharp_factory,
)

BATCH_TEST_MANAGERS = {
    "ideal": ideal_factory(),
    "nanos": nanos_factory(),
    "nexuspp": nexus_pp_factory(),
    "nexussharp": nexus_sharp_factory(6),
}

#: Managers whose runs take the kernel.
KERNEL_MANAGERS = ("ideal", "nanos")
