"""Synthetic workload generators.

These generators are not part of the paper's evaluation; they exist for
unit tests, property-based tests, ablation studies and the large-scale
streaming benchmarks that need traces with controlled structure: fully
independent tasks, serial chains, fork-join phases and random layered
DAGs.

Every generator exists in two forms: ``stream_*`` returns a replayable
:class:`~repro.trace.stream.TraceStream` that emits events lazily (the
fork-join and independent/chain streams allocate O(width) state, so
million-task traces stream with bounded memory), and ``generate_*`` is
the classic materialised API — a thin
:func:`~repro.trace.stream.materialize` over the stream.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.trace.stream import TraceStream, materialize
from repro.trace.task import Direction, Parameter
from repro.trace.trace import Trace
from repro.workloads.addressing import AddressSpace


def stream_independent(
    num_tasks: int,
    duration_us: float = 10.0,
    *,
    params_per_task: int = 1,
    seed: Optional[int] = None,
    name: str = "synthetic-independent",
) -> TraceStream:
    """``num_tasks`` fully independent tasks of equal duration, streamed."""
    if num_tasks <= 0:
        raise ConfigurationError(f"num_tasks must be positive, got {num_tasks}")
    if duration_us < 0:
        raise ConfigurationError(f"duration_us must be >= 0, got {duration_us}")
    if params_per_task <= 0:
        raise ConfigurationError(f"params_per_task must be positive, got {params_per_task}")

    def body(sink) -> Iterator[object]:
        space = AddressSpace(seed=seed)
        for _ in range(num_tasks):
            yield sink.task("work", duration_us=duration_us,
                            outputs=space.alloc(params_per_task))
        yield sink.taskwait()

    return TraceStream.from_body(name, body,
                                 metadata={"num_tasks": num_tasks, "duration_us": duration_us})


def generate_independent(
    num_tasks: int,
    duration_us: float = 10.0,
    *,
    params_per_task: int = 1,
    seed: Optional[int] = None,
    name: str = "synthetic-independent",
) -> Trace:
    """``num_tasks`` fully independent tasks of equal duration."""
    return materialize(stream_independent(
        num_tasks, duration_us, params_per_task=params_per_task, seed=seed, name=name))


def stream_chain(
    num_tasks: int,
    duration_us: float = 10.0,
    *,
    seed: Optional[int] = None,
    name: str = "synthetic-chain",
) -> TraceStream:
    """A strictly serial chain, streamed: task ``i`` depends on ``i-1``."""
    if num_tasks <= 0:
        raise ConfigurationError(f"num_tasks must be positive, got {num_tasks}")

    def body(sink) -> Iterator[object]:
        space = AddressSpace(seed=seed)
        token = space.alloc_one()
        for _ in range(num_tasks):
            yield sink.task("link", duration_us=duration_us, inouts=[token])
        yield sink.taskwait()

    return TraceStream.from_body(name, body,
                                 metadata={"num_tasks": num_tasks, "duration_us": duration_us})


def generate_chain(
    num_tasks: int,
    duration_us: float = 10.0,
    *,
    seed: Optional[int] = None,
    name: str = "synthetic-chain",
) -> Trace:
    """A strictly serial chain: task ``i`` depends on task ``i-1``."""
    return materialize(stream_chain(num_tasks, duration_us, seed=seed, name=name))


def stream_fork_join(
    num_phases: int,
    width: int,
    duration_us: float = 10.0,
    *,
    use_taskwait: bool = True,
    seed: Optional[int] = None,
    name: str = "synthetic-fork-join",
) -> TraceStream:
    """``num_phases`` phases of ``width`` independent tasks, streamed.

    Live generator state is O(width) — one reduction address plus one
    address per chunk — regardless of ``num_phases``, which is what makes
    this the workhorse of the million-task streaming benchmarks
    (``benchmarks/bench_large_scale.py``).
    """
    if num_phases <= 0 or width <= 0:
        raise ConfigurationError(f"num_phases and width must be positive, got {num_phases}, {width}")

    def body(sink) -> Iterator[object]:
        space = AddressSpace(seed=seed)
        reduction = space.alloc_one()
        chunk_addresses = space.alloc(width)
        for _phase in range(num_phases):
            for chunk in range(width):
                yield sink.task(
                    "phase_work",
                    duration_us=duration_us,
                    inputs=[reduction],
                    inouts=[chunk_addresses[chunk]],
                )
            if use_taskwait:
                yield sink.taskwait()
            yield sink.task("reduce", duration_us=duration_us, inouts=[reduction])
        yield sink.taskwait()

    return TraceStream.from_body(
        name, body,
        metadata={"num_phases": num_phases, "width": width, "duration_us": duration_us},
    )


def generate_fork_join(
    num_phases: int,
    width: int,
    duration_us: float = 10.0,
    *,
    use_taskwait: bool = True,
    seed: Optional[int] = None,
    name: str = "synthetic-fork-join",
) -> Trace:
    """``num_phases`` phases of ``width`` independent tasks with joins.

    When ``use_taskwait`` is false, the join is expressed through data
    dependencies on a shared reduction variable instead of a barrier,
    which exercises the WAR/WAW paths of the dependency trackers.
    """
    return materialize(stream_fork_join(
        num_phases, width, duration_us,
        use_taskwait=use_taskwait, seed=seed, name=name))


def stream_random_dag(
    num_tasks: int,
    *,
    max_predecessors: int = 3,
    duration_range_us: tuple[float, float] = (1.0, 50.0),
    write_probability: float = 0.7,
    seed: Optional[int] = None,
    name: str = "synthetic-random-dag",
) -> TraceStream:
    """A random data-dependency DAG, streamed.

    Unlike the other synthetic streams this one keeps O(num_tasks) state
    while generating (every produced address remains a candidate
    predecessor), which is inherent to the workload's definition.
    """
    if num_tasks <= 0:
        raise ConfigurationError(f"num_tasks must be positive, got {num_tasks}")
    if max_predecessors < 0:
        raise ConfigurationError(f"max_predecessors must be >= 0, got {max_predecessors}")
    low, high = duration_range_us
    if low < 0 or high < low:
        raise ConfigurationError(f"invalid duration range {duration_range_us}")
    if not 0.0 <= write_probability <= 1.0:
        raise ConfigurationError(f"write_probability must be in [0, 1], got {write_probability}")

    def body(sink) -> Iterator[object]:
        rng = make_rng(seed, "random-dag")
        space = AddressSpace(seed=seed)
        produced: list[int] = []
        for index in range(num_tasks):
            output = space.alloc_one()
            params: list[Parameter] = []
            if produced and max_predecessors > 0:
                num_preds = int(rng.integers(0, max_predecessors + 1))
                if num_preds:
                    chosen = rng.choice(len(produced), size=min(num_preds, len(produced)),
                                        replace=False)
                    for pick in np.atleast_1d(chosen):
                        address = produced[int(pick)]
                        if rng.random() < write_probability:
                            params.append(Parameter(address=address, direction=Direction.IN))
                        else:
                            params.append(Parameter(address=address, direction=Direction.INOUT))
            params.append(Parameter(address=output, direction=Direction.OUT))
            duration = float(rng.uniform(low, high)) if high > low else float(low)
            yield sink.task(f"node_{index % 7}", duration_us=duration, params=params)
            produced.append(output)
        yield sink.taskwait()

    return TraceStream.from_body(
        name, body,
        metadata={
            "num_tasks": num_tasks,
            "max_predecessors": max_predecessors,
            "duration_range_us": list(duration_range_us),
        },
    )


def generate_random_dag(
    num_tasks: int,
    *,
    max_predecessors: int = 3,
    duration_range_us: tuple[float, float] = (1.0, 50.0),
    write_probability: float = 0.7,
    seed: Optional[int] = None,
    name: str = "synthetic-random-dag",
) -> Trace:
    """A random DAG expressed through data dependencies.

    Each task writes one fresh output address and reads up to
    ``max_predecessors`` addresses produced by earlier tasks, chosen
    uniformly at random; with probability ``1 - write_probability`` a
    "read" parameter is instead declared ``inout``, exercising WAR/WAW
    edges.  Barriers are not used, so the trace's parallelism is purely
    data-driven.
    """
    return materialize(stream_random_dag(
        num_tasks,
        max_predecessors=max_predecessors,
        duration_range_us=duration_range_us,
        write_probability=write_probability,
        seed=seed,
        name=name,
    ))
