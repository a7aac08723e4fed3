"""streamcluster: k-median streaming clustering workload (Starbench).

Section V-A: "streamcluster is a streaming data analysis kernel with
fork-join-style parallelism.  It consists of a chain of groups of about
400 tasks followed by a taskwait."  Table II: 652776 tasks, 237908 ms of
work, 364 µs average task size, 1-3 dependencies per task.

The generated structure mirrors that description: the input stream is
processed in *rounds*; each round evaluates a candidate set of centres by
fanning out ~``group_size`` gain-computation tasks (each reading the
shared centre table and updating its own chunk of points), joining with a
``taskwait``, and then running a short serial ``recluster`` task that
rewrites the centre table — which is what makes consecutive rounds
dependent and gives the runtime its periodic synchronisation cost.
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
PAPER_NUM_TASKS = 652776
PAPER_AVG_TASK_US = 364.0
#: "groups of about 400 tasks"
PAPER_GROUP_SIZE = 400


def stream_streamcluster(
    scale: float = 1.0,
    seed: Optional[int] = None,
    *,
    num_rounds: Optional[int] = None,
    group_size: int = PAPER_GROUP_SIZE,
    avg_task_us: float = PAPER_AVG_TASK_US,
    recluster_us: float = 900.0,
    duration_cv: float = 0.25,
) -> TraceStream:
    """Stream a streamcluster trace (see :func:`generate_streamcluster`).

    Live generator state is O(group_size) — the paper's full 652776-task
    workload streams with the same footprint as a single round.
    """
    check_positive("scale", scale)
    if group_size <= 0:
        raise ConfigurationError(f"group_size must be positive, got {group_size}")
    if num_rounds is None:
        paper_rounds = PAPER_NUM_TASKS / (PAPER_GROUP_SIZE + 1)
        num_rounds = max(1, round(paper_rounds * scale))
    if num_rounds <= 0:
        raise ConfigurationError(f"num_rounds must be positive, got {num_rounds}")
    rounds = num_rounds

    def body(sink) -> Iterator[object]:
        rng = make_rng(seed, "streamcluster")
        space = AddressSpace(seed=seed)
        centers_address = space.alloc_one()
        chunk_addresses = space.alloc(group_size)
        for _round in range(rounds):
            jitter = rng.normal(1.0, duration_cv, size=group_size).clip(min=0.1).tolist()
            for chunk in range(group_size):
                yield sink.task(
                    "compute_gain",
                    duration_us=avg_task_us * jitter[chunk],
                    inputs=[centers_address],
                    inouts=[chunk_addresses[chunk]],
                )
            yield sink.taskwait()
            yield sink.task(
                "recluster",
                duration_us=float(max(recluster_us * 0.1,
                                      rng.normal(recluster_us, recluster_us * duration_cv))),
                inouts=[centers_address],
            )
        yield sink.taskwait()

    return TraceStream.from_body(
        "streamcluster",
        body,
        metadata={
            "suite": "Starbench",
            "num_rounds": num_rounds,
            "group_size": group_size,
            "avg_task_us": avg_task_us,
            "scale": scale,
        },
    )


def generate_streamcluster(
    scale: float = 1.0,
    seed: Optional[int] = None,
    *,
    num_rounds: Optional[int] = None,
    group_size: int = PAPER_GROUP_SIZE,
    avg_task_us: float = PAPER_AVG_TASK_US,
    recluster_us: float = 900.0,
    duration_cv: float = 0.25,
) -> Trace:
    """Generate a streamcluster trace.

    Parameters
    ----------
    scale:
        Scales the number of rounds (task count scales with it).
    seed:
        Seed for duration jitter.
    num_rounds:
        Explicit number of fork-join rounds (overrides ``scale``).
    group_size:
        Number of gain-computation tasks per round (~400 in the paper).
    avg_task_us:
        Mean duration of the gain-computation tasks.
    recluster_us:
        Duration of the serial per-round recluster task.
    duration_cv:
        Coefficient of variation of task durations.
    """
    return materialize(stream_streamcluster(
        scale, seed,
        num_rounds=num_rounds, group_size=group_size,
        avg_task_us=avg_task_us, recluster_us=recluster_us, duration_cv=duration_cv))
