"""Task and trace model.

The paper's evaluation is *trace driven*: each benchmark is reduced to a
sequence of task descriptors (function identifier, parameter list with
access direction and memory address, measured execution time) plus the
barrier pragmas (`taskwait`, `taskwait on`) the master thread executes
between task submissions.  This package defines that representation:

* :class:`repro.trace.task.TaskDescriptor` — a single task instance.
* :class:`repro.trace.task.Parameter` / :class:`repro.trace.task.Direction`
  — one entry of a task's input/output list.
* :class:`repro.trace.trace.Trace` — an ordered program: task submissions
  interleaved with barrier events, exactly what the RTS testbench replays.
  It is stored as validated columns (:class:`repro.trace.columns.
  TraceColumns`); events and descriptors are views built on first use.
* :mod:`repro.trace.dag` — derives the task dependency DAG from the
  parameter addresses using OmpSs semantics (RAW, WAR and WAW hazards on
  the same address), computes critical paths and checks schedules.
* :mod:`repro.trace.stats` — per-trace statistics matching Table II.
* :mod:`repro.trace.dynamic` — dynamic task programs: tasks that spawn
  tasks and issue ``taskwait`` while the machine runs
  (:class:`~repro.trace.dynamic.DynamicProgram`, body op vocabulary,
  serial elaboration back to a static trace).
* :mod:`repro.trace.stream` — the streaming pipeline: the
  :class:`~repro.trace.stream.TaskStream` protocol, replayable
  :class:`~repro.trace.stream.TraceStream` sources and
  :func:`~repro.trace.stream.materialize`, so million-task workloads
  never need the whole program in memory.
* :mod:`repro.trace.serialization` — on-disk formats: a single-document
  JSON trace plus a chunked JSONL stream format with lazy, bounded-memory
  readers (:class:`~repro.trace.serialization.TraceWriter` /
  :func:`~repro.trace.serialization.open_trace_stream`).
"""

from repro.trace.task import Direction, Parameter, TaskDescriptor
from repro.trace.events import SpawnEvent, TaskSubmitEvent, TaskwaitEvent, TaskwaitOnEvent, TraceEvent
from repro.trace.columns import TraceColumns
from repro.trace.trace import Trace, TraceBuilder
from repro.trace.dynamic import (
    Compute,
    DynamicProgram,
    Spawn,
    Taskwait,
    TaskwaitOn,
    TaskRequest,
    is_dynamic_program,
    task_request,
)
from repro.trace.dag import DependencyGraph, build_dependency_graph, validate_schedule
from repro.trace.stats import TraceStatistics, compute_statistics
from repro.trace.stream import (
    EventEmitter,
    TaskStream,
    TraceStream,
    as_stream,
    limit_stream,
    materialize,
    truncate_trace,
)
from repro.trace.serialization import (
    TraceWriter,
    iter_trace_events,
    load_trace,
    open_trace_stream,
    save_trace,
    trace_from_json,
    trace_to_json,
    write_trace_stream,
)

__all__ = [
    "Direction",
    "Parameter",
    "TaskDescriptor",
    "TraceEvent",
    "SpawnEvent",
    "TaskSubmitEvent",
    "Compute",
    "Spawn",
    "Taskwait",
    "TaskwaitOn",
    "TaskRequest",
    "DynamicProgram",
    "is_dynamic_program",
    "task_request",
    "TaskwaitEvent",
    "TaskwaitOnEvent",
    "Trace",
    "TraceBuilder",
    "TraceColumns",
    "DependencyGraph",
    "build_dependency_graph",
    "validate_schedule",
    "TraceStatistics",
    "compute_statistics",
    "EventEmitter",
    "TaskStream",
    "TraceStream",
    "as_stream",
    "limit_stream",
    "materialize",
    "truncate_trace",
    "TraceWriter",
    "iter_trace_events",
    "load_trace",
    "open_trace_stream",
    "save_trace",
    "trace_from_json",
    "trace_to_json",
    "write_trace_stream",
]
