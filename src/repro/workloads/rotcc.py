"""rot-cc: image rotation + colour conversion workload (Starbench).

Section V-A: "For rot-cc there are two tasks per line, one for rotation
and one for color conversion, with the second depending on the first.
All pairs are independent from each other."

Table II: 16262 tasks, 8150 ms total work, 501 µs average task size,
1 dependency per task.
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
PAPER_NUM_TASKS = 16262
PAPER_AVG_TASK_US = 501.0


def stream_rotcc(
    scale: float = 1.0,
    seed: Optional[int] = None,
    *,
    num_lines: Optional[int] = None,
    avg_task_us: float = PAPER_AVG_TASK_US,
    rotate_fraction: float = 0.55,
    duration_cv: float = 0.10,
) -> TraceStream:
    """Stream a rot-cc trace (see :func:`generate_rotcc` for parameters)."""
    check_positive("scale", scale)
    if not 0.0 < rotate_fraction < 1.0:
        raise ConfigurationError(f"rotate_fraction must be in (0, 1), got {rotate_fraction}")
    if num_lines is None:
        num_lines = max(1, round(PAPER_NUM_TASKS * scale / 2))
    if num_lines <= 0:
        raise ConfigurationError(f"num_lines must be positive, got {num_lines}")
    lines = num_lines

    def body(sink) -> Iterator[object]:
        rng = make_rng(seed, "rot-cc")
        space = AddressSpace(seed=seed)
        pair_work_us = 2.0 * avg_task_us
        line_addresses = space.alloc(lines)
        rotate_jitter = rng.normal(1.0, duration_cv, size=lines).clip(min=0.1)
        convert_jitter = rng.normal(1.0, duration_cv, size=lines).clip(min=0.1)
        for line, address in enumerate(line_addresses):
            rotate_us = pair_work_us * rotate_fraction * float(rotate_jitter[line])
            convert_us = pair_work_us * (1.0 - rotate_fraction) * float(convert_jitter[line])
            yield sink.task("rotate_line", duration_us=rotate_us, inouts=[address])
            yield sink.task("color_convert_line", duration_us=convert_us, inouts=[address])
        yield sink.taskwait()

    return TraceStream.from_body(
        "rot-cc",
        body,
        metadata={
            "suite": "Starbench",
            "num_lines": num_lines,
            "avg_task_us": avg_task_us,
            "scale": scale,
        },
    )


def generate_rotcc(
    scale: float = 1.0,
    seed: Optional[int] = None,
    *,
    num_lines: Optional[int] = None,
    avg_task_us: float = PAPER_AVG_TASK_US,
    rotate_fraction: float = 0.55,
    duration_cv: float = 0.10,
) -> Trace:
    """Generate a rot-cc trace.

    Each image line produces a ``rotate_line`` task followed by a
    ``color_convert_line`` task on the same line buffer (RAW dependency
    through the shared ``inout`` parameter).

    Parameters
    ----------
    scale:
        Task-count scale factor relative to the paper's 16262 tasks.
    seed:
        Seed for duration jitter.
    num_lines:
        Explicit number of line pairs (overrides ``scale``).
    avg_task_us:
        Mean task duration across both task types.
    rotate_fraction:
        Fraction of a pair's work spent in the rotation task (rotation is
        slightly heavier than colour conversion).
    duration_cv:
        Coefficient of variation of task durations.
    """
    return materialize(stream_rotcc(
        scale, seed,
        num_lines=num_lines, avg_task_us=avg_task_us,
        rotate_fraction=rotate_fraction, duration_cv=duration_cv))
