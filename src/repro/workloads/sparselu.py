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

from typing import Iterator, List, Optional

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

    Live generator state is the O(NB²) block map and one step's task
    durations — tiny next to the O(NB³) task count, so big
    factorisations stream without holding their tasks in memory.
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

        # Populated-block map; diagonal blocks always exist.  Both grids
        # are nested lists: the loops below index them per task.
        populated = rng.random((nb, nb)) < density
        np.fill_diagonal(populated, True)
        populated = populated.tolist()
        block_addresses = space.alloc_grid(nb, nb).tolist()

        # Duration model: bmod dominates the task count, so anchor the mean
        # on it and make lu0 heavier (it factorises a full block).
        lu0_us = avg_task_us * 2.0
        panel_us = avg_task_us * 0.9
        bmod_us = avg_task_us * 1.0

        def jittered(means: List[float]) -> List[float]:
            # One rng.normal call per step: elementwise it makes the same
            # draws, in the same order and with the same arithmetic, as one
            # scalar call per task.
            loc = np.array(means)
            return np.maximum(loc * 0.1, rng.normal(loc, loc * duration_cv)).tolist()

        for k in range(nb):
            row_k = block_addresses[k]
            populated_k = populated[k]
            diag = row_k[k]
            # Step k's panels.  Fill-in below only touches blocks right of
            # column k and below row k, so both lists hold for the step.
            cols = [j for j in range(k + 1, nb) if populated_k[j]]
            rows = [i for i in range(k + 1, nb) if populated[i][k]]
            durations = iter(jittered([lu0_us] + [panel_us] * (len(cols) + len(rows))
                                      + [bmod_us] * (len(rows) * len(cols))))
            yield sink.task("lu0", duration_us=next(durations), inouts=[diag])
            for j in cols:
                yield sink.task(
                    "fwd",
                    duration_us=next(durations),
                    inputs=[diag],
                    inouts=[row_k[j]],
                )
            for i in rows:
                yield sink.task(
                    "bdiv",
                    duration_us=next(durations),
                    inputs=[diag],
                    inouts=[block_addresses[i][k]],
                )
            for i in rows:
                row_i = block_addresses[i]
                populated_i = populated[i]
                for j in cols:
                    # Fill-in: the target block becomes populated if it was not.
                    populated_i[j] = True
                    yield sink.task(
                        "bmod",
                        duration_us=next(durations),
                        inputs=[row_i[k], row_k[j]],
                        inouts=[row_i[j]],
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
