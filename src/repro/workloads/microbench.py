"""The 5-task micro-benchmark of Section IV-E.

"Using a micro benchmark built after [19] that includes inserting 5
independent tasks, each with two parameters, Nexus# (with one task graph)
consumes 78 cycles compared to 172 cycles consumed in [19]."

The benchmark only measures manager-internal latency (how many cycles
until every task has been reported ready), so the task bodies are given a
negligible duration.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.common.errors import ConfigurationError
from repro.trace.stream import TraceStream, materialize
from repro.trace.trace import Trace
from repro.workloads.addressing import AddressSpace

#: Cycle counts quoted in the paper for this micro-benchmark.
PAPER_NEXUS_SHARP_CYCLES = 78
PAPER_TASK_SUPERSCALAR_CYCLES = 172


def stream_microbenchmark(
    num_tasks: int = 5,
    params_per_task: int = 2,
    *,
    duration_us: float = 0.01,
    seed: Optional[int] = None,
) -> TraceStream:
    """Stream the micro-benchmark (see :func:`generate_microbenchmark`)."""
    if num_tasks <= 0:
        raise ConfigurationError(f"num_tasks must be positive, got {num_tasks}")
    if params_per_task <= 0:
        raise ConfigurationError(f"params_per_task must be positive, got {params_per_task}")
    if duration_us < 0:
        raise ConfigurationError(f"duration_us must be >= 0, got {duration_us}")

    def body(sink) -> Iterator[object]:
        space = AddressSpace(seed=seed)
        for _ in range(num_tasks):
            addresses = space.alloc(params_per_task)
            yield sink.task("micro_task", duration_us=duration_us, outputs=addresses)
        yield sink.taskwait()

    return TraceStream.from_body(
        "microbench-independent",
        body,
        metadata={
            "num_tasks": num_tasks,
            "params_per_task": params_per_task,
            "paper_nexus_sharp_cycles": PAPER_NEXUS_SHARP_CYCLES,
            "paper_task_superscalar_cycles": PAPER_TASK_SUPERSCALAR_CYCLES,
        },
    )


def generate_microbenchmark(
    num_tasks: int = 5,
    params_per_task: int = 2,
    *,
    duration_us: float = 0.01,
    seed: Optional[int] = None,
) -> Trace:
    """Generate the independent-task insertion micro-benchmark.

    Parameters
    ----------
    num_tasks:
        Number of independent tasks (5 in the paper).
    params_per_task:
        Parameters per task (2 in the paper); all parameters are distinct
        output addresses so no dependencies arise.
    duration_us:
        Nominal task body duration (irrelevant for the cycle measurement).
    seed:
        Accepted for interface uniformity; the trace is deterministic.
    """
    return materialize(stream_microbenchmark(
        num_tasks, params_per_task, duration_us=duration_us, seed=seed))
