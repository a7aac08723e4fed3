"""Static-trace readers work on the columns alone.

A :class:`~repro.trace.trace.Trace` stores its program as
:class:`~repro.trace.columns.TraceColumns`; events and descriptors are
views for callers that ask for objects.  Serialization, digests, the
DAG oracle, statistics, inline workload identity and the lane kernel's
validated runs must never build those views, so with both view builders
patched to raise, each of them still succeeds.
"""

from __future__ import annotations

import pytest

from repro.experiments.spec import WorkloadSpec
from repro.managers.ideal import IdealManager
from repro.managers.nanos import NanosManager
from repro.system.machine import simulate
from repro.trace.columns import TraceColumns
from repro.trace.dag import build_dependency_graph
from repro.trace.serialization import save_trace, trace_digest, trace_from_json, trace_to_json
from repro.trace.stats import compute_statistics
from repro.trace.trace import TraceBuilder
from repro.workloads.registry import get_workload


def _taskwait_on_trace():
    builder = TraceBuilder("waits")
    for index in range(4):
        builder.add_task("produce", duration_us=2.0 + index, outputs=[0x100 * (index + 1)])
    builder.add_taskwait_on(0x100)
    builder.add_task("consume", duration_us=1.0, inputs=[0x100, 0x200], inouts=[0x300])
    builder.add_taskwait()
    return builder.build()


@pytest.fixture(autouse=True)
def no_views(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a static-trace reader built the object views")

    monkeypatch.setattr(TraceColumns, "events", refuse)
    monkeypatch.setattr(TraceColumns, "descriptors", refuse)


TRACES = {
    "h264dec": lambda: get_workload("h264dec-2x2-10f", scale=0.01, seed=3),
    "fib": lambda: get_workload("fib", scale=0.01, seed=3),
    "taskwait_on": _taskwait_on_trace,
}


@pytest.fixture(params=sorted(TRACES))
def trace(request):
    return TRACES[request.param]()


def test_serialization_and_digest(trace, tmp_path):
    digest = trace_digest(trace)
    save_trace(trace, tmp_path / "trace.json")
    assert trace_digest(trace_from_json(trace_to_json(trace))) == digest


def test_dependency_graph_and_statistics(trace):
    graph = build_dependency_graph(trace)
    assert graph.num_tasks == trace.num_tasks
    assert compute_statistics(trace, graph=graph).num_tasks == trace.num_tasks
    assert compute_statistics(trace).critical_path_ms == graph.critical_path_length() / 1000.0


def test_inline_workload_identity(trace):
    assert WorkloadSpec.of(trace).describe()["inline_digest"] == trace_digest(trace)


@pytest.mark.parametrize("manager", [IdealManager, NanosManager])
def test_validated_kernel_run(trace, manager):
    result = simulate(trace, manager(), 8, validate=True)
    assert len(result.finish_times) == trace.num_tasks
