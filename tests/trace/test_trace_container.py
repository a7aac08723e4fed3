"""Tests for the Trace container, builder and events."""

import pytest

from repro.common.errors import TraceError
from repro.trace.events import TaskSubmitEvent, TaskwaitEvent, TaskwaitOnEvent
from repro.trace.task import Parameter
from repro.trace.trace import Trace, TraceBuilder


class TestTraceBuilder:
    def test_sequential_task_ids(self):
        builder = TraceBuilder("t")
        t0 = builder.add_task("a", 1.0, outputs=[0x10])
        t1 = builder.add_task("b", 1.0, outputs=[0x20])
        assert (t0.task_id, t1.task_id) == (0, 1)

    def test_barriers_recorded_in_order(self):
        builder = TraceBuilder("t")
        builder.add_task("a", 1.0, outputs=[0x10])
        builder.add_taskwait()
        builder.add_task("b", 1.0, outputs=[0x20])
        builder.add_taskwait_on(0x10)
        trace = builder.build()
        kinds = [e.kind for e in trace.events]
        assert kinds == ["submit", "taskwait", "submit", "taskwait_on"]

    def test_params_and_address_lists_mutually_exclusive(self):
        builder = TraceBuilder("t")
        with pytest.raises(TraceError):
            builder.add_task("a", 1.0, inputs=[1], params=[Parameter(address=1, direction="in")])

    def test_empty_name_rejected(self):
        with pytest.raises(TraceError):
            TraceBuilder("")

    def test_num_tasks(self):
        builder = TraceBuilder("t")
        builder.add_task("a", 1.0, outputs=[1])
        builder.add_taskwait()
        builder.add_task("b", 1.0, outputs=[2])
        assert builder.num_tasks == 2


class TestTrace:
    def _trace(self):
        builder = TraceBuilder("example", metadata={"k": "v"})
        builder.add_task("f", 2.0, outputs=[0x100])
        builder.add_task("g", 4.0, inputs=[0x100], outputs=[0x140])
        builder.add_taskwait()
        return builder.build()

    def test_counts_and_work(self):
        trace = self._trace()
        assert trace.num_tasks == 2
        assert trace.num_barriers == 1
        assert trace.total_work_us == pytest.approx(6.0)
        assert trace.avg_task_us == pytest.approx(3.0)

    def test_task_map_and_lookup(self):
        trace = self._trace()
        assert trace.task_map()[1].function == "g"
        assert set(trace.task_map()) == {0, 1}

    def test_functions_histogram(self):
        assert self._trace().functions() == {"f": 1, "g": 1}

    def test_param_count_range(self):
        assert self._trace().param_count_range() == (1, 2)

    def test_duplicate_task_ids_rejected(self):
        builder = TraceBuilder("dup")
        task = builder.add_task("a", 1.0, outputs=[1])
        with pytest.raises(TraceError):
            Trace(name="dup", events=(TaskSubmitEvent(task), TaskSubmitEvent(task)))

    def test_iteration(self):
        trace = self._trace()
        assert len(list(iter(trace))) == len(trace) == 3

    def test_metadata_preserved(self):
        assert self._trace().metadata["k"] == "v"


class TestEvents:
    def test_taskwait_on_validates_address(self):
        with pytest.raises(TraceError):
            TaskwaitOnEvent(address=-5)

    def test_event_kinds(self):
        assert TaskwaitEvent().kind == "taskwait"
        assert TaskwaitOnEvent(address=0).kind == "taskwait_on"
