"""Shared configuration of the golden-trace regression harness.

One small, seeded trace per workload generator, and the four golden
manager models the paper compares (``ideal``, ``nanos``, ``nexuspp``,
``nexussharp``).  Both the regeneration script and the regression test
import from here so they can never drift apart.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path
from typing import Dict, Mapping, Tuple

from repro.analysis.factories import (
    ManagerFactory,
    ideal_factory,
    nanos_factory,
    nexus_pp_factory,
    nexus_sharp_factory,
)
from repro.system.machine import Machine, MachineConfig
from repro.trace.dynamic import DynamicProgram
from repro.trace.events import TaskSubmitEvent
from repro.trace.serialization import (
    json_digest,
    result_to_json,
    save_trace,
    trace_digest,
    write_trace_stream,
)
from repro.trace.task import Direction, Parameter
from repro.trace.trace import Trace, TraceBuilder
from repro.workloads.cray import generate_cray
from repro.workloads.gaussian import generate_gaussian_elimination
from repro.workloads.h264dec import generate_h264dec
from repro.workloads.microbench import generate_microbenchmark
from repro.workloads.registry import get_workload, list_workloads
from repro.workloads.rotcc import generate_rotcc
from repro.workloads.recursive import (
    fib_program,
    nqueens_program,
    recursive_sort_program,
    strassen_program,
)
from repro.workloads.sparselu import generate_sparselu
from repro.workloads.streamcluster import generate_streamcluster
from repro.workloads.synthetic import generate_random_dag

#: Seed used for every seeded golden trace.
GOLDEN_SEED = 20150525

#: Core count of every golden replay.
GOLDEN_CORES = 8

#: Dispatch policies and core topologies the config digests cover.
CONFIG_SCHEDULERS = ("fifo", "sjf", "ljf", "locality")
CONFIG_TOPOLOGIES = ("homogeneous", "biglittle:0.5")

#: The four managers the golden makespans are pinned for.
GOLDEN_MANAGERS: Dict[str, ManagerFactory] = {
    "ideal": ideal_factory(),
    "nanos": nanos_factory(),
    "nexuspp": nexus_pp_factory(),
    "nexussharp": nexus_sharp_factory(6),
}


def golden_traces() -> Dict[str, Trace]:
    """One deterministic miniature trace per workload generator."""
    return {
        "cray": generate_cray(scale=0.05, seed=GOLDEN_SEED),
        "rotcc": generate_rotcc(scale=0.005, seed=GOLDEN_SEED),
        "sparselu": generate_sparselu(scale=0.02, seed=GOLDEN_SEED),
        "streamcluster": generate_streamcluster(scale=0.001, seed=GOLDEN_SEED),
        "h264dec": generate_h264dec(grouping=2, num_frames=3, scale=0.05, seed=GOLDEN_SEED),
        "gaussian": generate_gaussian_elimination(matrix_size=24, seed=GOLDEN_SEED),
        "microbench": generate_microbenchmark(seed=GOLDEN_SEED),
        "synthetic": generate_random_dag(80, max_predecessors=3, seed=GOLDEN_SEED),
    }


def golden_dynamic_programs() -> Dict[str, DynamicProgram]:
    """One seeded dynamic (insert-while-running) program per recursive
    workload.  The golden harness pins their *dynamic-run* makespans for
    every golden manager plus the digest of their serial elaboration."""
    return {
        "fib": fib_program(9, seed=GOLDEN_SEED),
        "nqueens": nqueens_program(5, seed=GOLDEN_SEED),
        "recursive_sort": recursive_sort_program(16, seed=GOLDEN_SEED),
        "strassen": strassen_program(2, seed=GOLDEN_SEED),
    }


def sparse_id_trace(trace: Trace) -> Trace:
    """``trace`` with every task id mapped to ``3 * id + 7`` (sparse ids)."""
    events = tuple(
        TaskSubmitEvent(event.task.with_id(3 * event.task.task_id + 7))
        if isinstance(event, TaskSubmitEvent) else event
        for event in trace.events
    )
    return Trace(name=f"{trace.name}-sparse-ids", events=events,
                 metadata=dict(trace.metadata))


def taskwait_on_trace() -> Trace:
    """Producers, ``taskwait on`` barriers, then consumers: Nexus++
    degrades each ``taskwait on`` to a full ``taskwait``."""
    builder = TraceBuilder("taskwait-on")
    for index in range(6):
        builder.add_task("produce", duration_us=10.0 + index, outputs=[0x1000 + 64 * index])
    builder.add_taskwait_on(0x1000)
    for index in range(6):
        builder.add_task("consume", duration_us=5.0, inputs=[0x1000 + 64 * index],
                         outputs=[0x2000 + 64 * index])
    builder.add_taskwait_on(0x2000 + 64 * 5)
    builder.add_task("tail", duration_us=3.0, inputs=[0x2000])
    builder.add_taskwait()
    return builder.build()


def sized_trace() -> Trace:
    """Parameter sizes, creation overheads and metadata: the trace fields
    no registered workload sets."""
    builder = TraceBuilder("sized", metadata={"ratio": 0.25, "tags": ["a", "b"]})
    builder.add_task("root", duration_us=3.0, creation_overhead_us=0.5,
                     params=[Parameter(0x100, Direction.OUT, size=64)])
    builder.add_taskwait_on(0x100)
    builder.add_task("child", duration_us=1.25,
                     params=[Parameter(0x100, Direction.IN),
                             Parameter(0x140, Direction.INOUT, size=8)])
    builder.add_task("leaf", duration_us=2.0)
    builder.add_taskwait()
    return builder.build()


#: Scale of the registered workloads whose trace bytes are pinned.
TRACE_BYTES_SCALE = 0.01


def trace_byte_cases() -> Dict[str, Trace]:
    """Every trace whose serialized bytes are pinned: each registered
    workload (a dynamic one through its serial elaboration, spawn
    provenance included), the sparse-id trace, the ``taskwait on`` trace
    and :func:`sized_trace`."""
    cases = {name: get_workload(name, scale=TRACE_BYTES_SCALE, seed=GOLDEN_SEED)
             for name in list_workloads()}
    cases["sparse_ids"] = sparse_id_trace(golden_traces()["synthetic"])
    cases["taskwait_on"] = taskwait_on_trace()
    cases["sized"] = sized_trace()
    return cases


def trace_byte_digests(trace: Trace) -> Dict[str, str]:
    """The sha256 of ``trace``'s ``save_trace`` and ``write_trace_stream``
    bytes (both uncompressed: gzip headers carry a timestamp), and its
    :func:`~repro.trace.serialization.trace_digest`."""
    with tempfile.TemporaryDirectory() as scratch:
        document = save_trace(trace, Path(scratch) / "trace.json").read_bytes()
        stream = write_trace_stream(trace, Path(scratch) / "trace.jsonl").read_bytes()
    return {"save_trace": hashlib.sha256(document).hexdigest(),
            "write_trace_stream": hashlib.sha256(stream).hexdigest(),
            "trace_digest": trace_digest(trace)}


ConfigCase = Tuple[Trace, str, Mapping[str, object]]


def config_digest_cases(traces: Mapping[str, Trace]) -> Dict[str, ConfigCase]:
    """Every pinned machine configuration: ``key -> (trace, manager key,
    MachineConfig options)``.

    ``traces`` are the golden traces (generated or loaded).  The grid is
    each golden × manager × scheduler × topology, plus each golden ×
    manager with ``keep_schedule=False`` and with ``validate=True``, a
    sparse-id trace and the ``taskwait on`` degradation trace.
    """
    cases: Dict[str, ConfigCase] = {}
    for key, trace in traces.items():
        for manager_key in GOLDEN_MANAGERS:
            for scheduler in CONFIG_SCHEDULERS:
                for topology in CONFIG_TOPOLOGIES:
                    cases[f"{key}/{manager_key}/{scheduler}/{topology}"] = (
                        trace, manager_key, {"scheduler": scheduler, "topology": topology})
            cases[f"{key}/{manager_key}/keep_schedule=False"] = (
                trace, manager_key, {"keep_schedule": False})
            cases[f"{key}/{manager_key}/validate=True"] = (
                trace, manager_key, {"validate": True})
    sparse = sparse_id_trace(traces["synthetic"])
    waits = taskwait_on_trace()
    for manager_key in GOLDEN_MANAGERS:
        cases[f"sparse_ids/{manager_key}/fifo/homogeneous"] = (sparse, manager_key, {})
        cases[f"sparse_ids/{manager_key}/locality/biglittle:0.5"] = (
            sparse, manager_key, {"scheduler": "locality", "topology": "biglittle:0.5"})
        cases[f"taskwait_on/{manager_key}/fifo/homogeneous"] = (waits, manager_key, {})
    return cases


def config_machine(case: ConfigCase) -> Machine:
    """A fresh machine for one case (its manager and ``MachineConfig``)."""
    _, manager_key, options = case
    return Machine(GOLDEN_MANAGERS[manager_key](),
                   MachineConfig(num_cores=GOLDEN_CORES, **options))


def config_digest(case: ConfigCase, method: str = "run_scalar") -> Dict[str, object]:
    """Replay one case through ``Machine.<method>`` (``run_scalar`` by
    default): the ``result_to_json`` digest and the number of events
    processed."""
    machine = config_machine(case)
    result = getattr(machine, method)(case[0])
    return {"digest": json_digest(result_to_json(result)),
            "events": machine.last_events_processed}
