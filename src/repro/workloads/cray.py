"""c-ray: ray-tracing workload (Starbench).

Section V-A: "c-ray and rot-cc have simple dependency patterns, with
tasks working on each line of the input image independently.  For c-ray,
there is only one task per line, which means that all tasks are
independent.  c-ray is a best case for this type of runtime, as it has
long tasks and ample parallelism."

Table II: 1200 tasks, 7381 ms total work, 6151 µs average task size,
1 parameter per task.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.common.validation import check_positive
from repro.trace.stream import TraceStream, materialize
from repro.trace.trace import Trace
from repro.workloads.addressing import AddressSpace

#: Paper values (Table II).
PAPER_NUM_TASKS = 1200
PAPER_AVG_TASK_US = 6151.0
PAPER_TOTAL_WORK_MS = 7381.0


def stream_cray(
    scale: float = 1.0,
    seed: Optional[int] = None,
    *,
    num_lines: Optional[int] = None,
    avg_task_us: float = PAPER_AVG_TASK_US,
    duration_cv: float = 0.15,
) -> TraceStream:
    """Stream a c-ray trace (see :func:`generate_cray` for parameters)."""
    check_positive("scale", scale)
    if num_lines is None:
        num_lines = max(1, round(PAPER_NUM_TASKS * scale))
    if num_lines <= 0:
        raise ConfigurationError(f"num_lines must be positive, got {num_lines}")
    lines = num_lines

    def body(sink) -> Iterator[object]:
        rng = make_rng(seed, "c-ray")
        space = AddressSpace(seed=seed)
        line_addresses = space.alloc(lines)
        durations = rng.normal(avg_task_us, avg_task_us * duration_cv, size=lines)
        durations = durations.clip(min=avg_task_us * 0.1)
        for line, address in enumerate(line_addresses):
            yield sink.task(
                "render_line",
                duration_us=float(durations[line]),
                outputs=[address],
            )
        yield sink.taskwait()

    return TraceStream.from_body(
        "c-ray",
        body,
        metadata={
            "suite": "Starbench",
            "num_lines": num_lines,
            "avg_task_us": avg_task_us,
            "scale": scale,
        },
    )


def generate_cray(
    scale: float = 1.0,
    seed: Optional[int] = None,
    *,
    num_lines: Optional[int] = None,
    avg_task_us: float = PAPER_AVG_TASK_US,
    duration_cv: float = 0.15,
) -> Trace:
    """Generate a c-ray trace.

    Parameters
    ----------
    scale:
        Task-count scale factor relative to the paper's 1200 lines.
    seed:
        Seed for the per-task duration jitter.
    num_lines:
        Explicit number of image lines (overrides ``scale``).
    avg_task_us:
        Mean per-line rendering time in micro-seconds.
    duration_cv:
        Coefficient of variation of the task durations (ray tracing lines
        vary with scene content).
    """
    return materialize(stream_cray(
        scale, seed,
        num_lines=num_lines, avg_task_us=avg_task_us, duration_cv=duration_cv))
