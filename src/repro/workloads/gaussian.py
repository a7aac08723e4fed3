"""Gaussian elimination with partial pivoting (Table III / Figure 9).

The paper uses this micro-benchmark "to validate the dummy tasks/entries
approach": the number of tasks that depend on one memory segment grows
with the matrix size (all row-update tasks of an elimination step read
the same pivot row), so the kick-off lists must grow dynamically.  It is
also, deliberately, a *worst case* for the Nexus# distribution: because a
whole wave of tasks shares one input address, only one task graph
receives work at a time (Figure 3(B)), so adding task graphs cannot help.

Structure (Figure 6), for an ``n x n`` matrix:

* ``T_i^i`` — pivot selection/normalisation of row ``i`` (``inout row_i``);
* ``T_i^j`` (j > i) — eliminate column ``i`` of row ``j`` using the pivot
  row (``in row_i, inout row_j``).

Task count: ``n(n+1)/2 - 1`` (Table III).  Per-task work is
``n - i + 1`` FLOPs, giving the average of ``(2n+1)/3 ≈ 2n/3`` FLOPs
reported in Table III; execution time assumes 2-GFLOPS worker cores
(Section VI), i.e. ``FLOPs / 2000`` µs.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.common.constants import GAUSSIAN_CORE_GFLOPS
from repro.common.errors import ConfigurationError
from repro.trace.stream import TraceStream, materialize
from repro.trace.trace import Trace
from repro.workloads.addressing import AddressSpace

#: Matrix sizes evaluated in Table III / Figure 9.
PAPER_MATRIX_SIZES = (250, 500, 1000, 3000)


def gaussian_task_count(matrix_size: int) -> int:
    """Number of tasks for an ``n x n`` elimination (Table III formula)."""
    if matrix_size < 2:
        raise ConfigurationError(f"matrix_size must be >= 2, got {matrix_size}")
    return matrix_size * (matrix_size + 1) // 2 - 1


def gaussian_avg_flops(matrix_size: int) -> float:
    """Average task weight in FLOPs (Table III: ~2n/3)."""
    if matrix_size < 2:
        raise ConfigurationError(f"matrix_size must be >= 2, got {matrix_size}")
    n = matrix_size
    total = 0
    for i in range(1, n):
        # One pivot task plus (n - i) update tasks, each of weight (n-i+1).
        total += (n - i + 1) * (n - i + 1)
    return total / gaussian_task_count(n)


def stream_gaussian_elimination(
    matrix_size: int = 250,
    *,
    core_gflops: float = GAUSSIAN_CORE_GFLOPS,
    seed: Optional[int] = None,
) -> TraceStream:
    """Stream the Gaussian-elimination trace (see
    :func:`generate_gaussian_elimination`).

    Live generator state is the O(n) row-address list — small next to the
    O(n²/2) task count.
    """
    if matrix_size < 2:
        raise ConfigurationError(f"matrix_size must be >= 2, got {matrix_size}")
    if core_gflops <= 0:
        raise ConfigurationError(f"core_gflops must be positive, got {core_gflops}")
    n = matrix_size

    def body(sink) -> Iterator[object]:
        space = AddressSpace(seed=seed)
        row_addresses = space.alloc(n)
        flops_to_us = 1.0 / (core_gflops * 1000.0)  # FLOPs -> µs at core_gflops GFLOP/s
        for i in range(1, n):  # elimination steps (the last row needs no step)
            weight_flops = n - i + 1
            duration_us = weight_flops * flops_to_us
            pivot_row = row_addresses[i - 1]
            # Pivot task T_i^i.
            yield sink.task("pivot", duration_us=duration_us, inouts=[pivot_row])
            # Update tasks T_i^j for all rows below the pivot.
            for j in range(i + 1, n + 1):
                yield sink.task(
                    "eliminate",
                    duration_us=duration_us,
                    inputs=[pivot_row],
                    inouts=[row_addresses[j - 1]],
                )
        yield sink.taskwait()

    return TraceStream.from_body(
        f"gaussian-{n}",
        body,
        metadata={
            "matrix_size": n,
            "core_gflops": core_gflops,
            "num_tasks": gaussian_task_count(n),
            "avg_flops": gaussian_avg_flops(n),
        },
    )


def generate_gaussian_elimination(
    matrix_size: int = 250,
    *,
    core_gflops: float = GAUSSIAN_CORE_GFLOPS,
    seed: Optional[int] = None,
) -> Trace:
    """Generate the Gaussian-elimination trace for an ``n x n`` matrix.

    Parameters
    ----------
    matrix_size:
        Matrix dimension ``n`` (250/500/1000/3000 in the paper).
    core_gflops:
        Worker-core throughput used to convert FLOPs to micro-seconds
        (2 GFLOPS in the paper).
    seed:
        Unused (the workload is fully deterministic); accepted for
        interface uniformity with the other generators.
    """
    return materialize(stream_gaussian_elimination(
        matrix_size, core_gflops=core_gflops, seed=seed))
