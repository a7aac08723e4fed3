"""sparselu: sparse LU factorisation workload (OmpSs developers' kernel).

Section V-A: "sparselu is a sparse matrix LU factorization kernel from
the developers of OmpSs.  It scales well, as the granularity is designed
to match Nanos overheads."  Table II: 54814 tasks, 38128 ms of work,
696 µs average task size, 1-3 dependencies per task.

The kernel factorises an ``NB x NB`` blocked matrix where only a subset
of blocks is populated (hence *sparse*).  Per outer iteration ``k`` the
classic four task types are generated:

* ``lu0(A[k][k])`` — factorise the diagonal block (``inout``);
* ``fwd(A[k][k], A[k][j])`` — forward elimination of row-panel blocks;
* ``bdiv(A[k][k], A[i][k])`` — backward division of column-panel blocks;
* ``bmod(A[i][k], A[k][j], A[i][j])`` — trailing-matrix update, which
  allocates the block if it was previously empty (fill-in).

This reproduces the 1-3 parameter range of Table II and the diminishing
wave-parallelism toward the end of the factorisation.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.common.validation import check_positive
from repro.trace.stream import TraceStream, materialize
from repro.trace.trace import Trace
from repro.workloads.addressing import AddressSpace

#: Paper values (Table II).
PAPER_NUM_TASKS = 54814
PAPER_AVG_TASK_US = 696.0

#: Default blocked-matrix size chosen so the dense task count is close to
#: the paper's 54814 tasks at the default sparsity.
DEFAULT_NUM_BLOCKS = 56
#: Default fraction of off-diagonal blocks that are populated initially.
DEFAULT_DENSITY = 0.85


def stream_sparselu(
    scale: float = 1.0,
    seed: Optional[int] = None,
    *,
    num_blocks: Optional[int] = None,
    density: float = DEFAULT_DENSITY,
    avg_task_us: float = PAPER_AVG_TASK_US,
    duration_cv: float = 0.20,
) -> TraceStream:
    """Stream a sparselu trace (see :func:`generate_sparselu`).

    Live generator state is the O(NB²) block map — tiny next to the
    O(NB³) task count, so big factorisations stream without holding
    their tasks in memory.
    """
    check_positive("scale", scale)
    if not 0.0 < density <= 1.0:
        raise ConfigurationError(f"density must be in (0, 1], got {density}")
    if num_blocks is None:
        num_blocks = max(2, round(DEFAULT_NUM_BLOCKS * scale ** (1.0 / 3.0)))
    if num_blocks < 2:
        raise ConfigurationError(f"num_blocks must be >= 2, got {num_blocks}")
    nb = num_blocks

    def body(sink) -> Iterator[object]:
        rng = make_rng(seed, "sparselu")
        space = AddressSpace(seed=seed)

        # Populated-block map; diagonal blocks always exist.
        populated = rng.random((nb, nb)) < density
        np.fill_diagonal(populated, True)
        block_addresses = space.alloc_grid(nb, nb)

        # Duration model: bmod dominates the task count, so anchor the mean
        # on it and make lu0 heavier (it factorises a full block).
        lu0_us = avg_task_us * 2.0
        panel_us = avg_task_us * 0.9
        bmod_us = avg_task_us * 1.0

        def jittered(mean: float) -> float:
            return float(max(mean * 0.1, rng.normal(mean, mean * duration_cv)))

        for k in range(nb):
            diag = int(block_addresses[k, k])
            yield sink.task("lu0", duration_us=jittered(lu0_us), inouts=[diag])
            for j in range(k + 1, nb):
                if populated[k, j]:
                    yield sink.task(
                        "fwd",
                        duration_us=jittered(panel_us),
                        inputs=[diag],
                        inouts=[int(block_addresses[k, j])],
                    )
            for i in range(k + 1, nb):
                if populated[i, k]:
                    yield sink.task(
                        "bdiv",
                        duration_us=jittered(panel_us),
                        inputs=[diag],
                        inouts=[int(block_addresses[i, k])],
                    )
            for i in range(k + 1, nb):
                if not populated[i, k]:
                    continue
                for j in range(k + 1, nb):
                    if not populated[k, j]:
                        continue
                    # Fill-in: the target block becomes populated if it was not.
                    populated[i, j] = True
                    yield sink.task(
                        "bmod",
                        duration_us=jittered(bmod_us),
                        inputs=[int(block_addresses[i, k]), int(block_addresses[k, j])],
                        inouts=[int(block_addresses[i, j])],
                    )
        yield sink.taskwait()

    return TraceStream.from_body(
        "sparselu",
        body,
        metadata={
            "suite": "OmpSs examples",
            "num_blocks": nb,
            "density": density,
            "avg_task_us": avg_task_us,
            "scale": scale,
        },
    )


def generate_sparselu(
    scale: float = 1.0,
    seed: Optional[int] = None,
    *,
    num_blocks: Optional[int] = None,
    density: float = DEFAULT_DENSITY,
    avg_task_us: float = PAPER_AVG_TASK_US,
    duration_cv: float = 0.20,
) -> Trace:
    """Generate a sparselu trace.

    Parameters
    ----------
    scale:
        Scales the matrix size; the task count grows roughly with the
        cube of ``num_blocks``, so ``num_blocks`` is scaled by the cube
        root of ``scale``.
    seed:
        Seed for the sparsity pattern and duration jitter.
    num_blocks:
        Blocked-matrix dimension NB (overrides ``scale``).
    density:
        Probability that an off-diagonal block is initially populated.
    avg_task_us:
        Target mean task duration; the three task types get durations in
        the ratio lu0 : fwd/bdiv : bmod = 2 : 1 : 1.2 around this mean.
    duration_cv:
        Coefficient of variation of task durations.
    """
    return materialize(stream_sparselu(
        scale, seed,
        num_blocks=num_blocks, density=density,
        avg_task_us=avg_task_us, duration_cv=duration_cv))
