"""Tests for the dependency-graph analysis."""

import pytest

from repro.common.errors import SimulationError
from repro.trace.dag import build_dependency_graph, validate_schedule
from repro.trace.trace import TraceBuilder
from repro.workloads.synthetic import generate_chain, generate_independent


def diamond():
    builder = TraceBuilder("diamond")
    builder.add_task("A", 10.0, outputs=[0x1])
    builder.add_task("B", 10.0, inputs=[0x1], outputs=[0x2])
    builder.add_task("C", 10.0, inputs=[0x1], outputs=[0x3])
    builder.add_task("D", 10.0, inputs=[0x2, 0x3], outputs=[0x4])
    return builder.build()


class TestBuildDependencyGraph:
    def test_diamond_edges(self):
        g = build_dependency_graph(diamond())
        assert g.predecessors[0] == set()
        assert g.predecessors[1] == {0}
        assert g.predecessors[2] == {0}
        assert g.predecessors[3] == {1, 2}
        assert g.successors[0] == {1, 2}
        assert g.num_edges == 4

    def test_raw_dependency(self):
        builder = TraceBuilder("raw")
        builder.add_task("w", 1.0, outputs=[0x1])
        builder.add_task("r", 1.0, inputs=[0x1])
        g = build_dependency_graph(builder.build())
        assert g.predecessors[1] == {0}

    def test_war_dependency(self):
        builder = TraceBuilder("war")
        builder.add_task("r", 1.0, inputs=[0x1])
        builder.add_task("w", 1.0, outputs=[0x1])
        g = build_dependency_graph(builder.build())
        assert g.predecessors[1] == {0}

    def test_waw_dependency(self):
        builder = TraceBuilder("waw")
        builder.add_task("w1", 1.0, outputs=[0x1])
        builder.add_task("w2", 1.0, outputs=[0x1])
        g = build_dependency_graph(builder.build())
        assert g.predecessors[1] == {0}

    def test_independent_readers_share_no_edge(self):
        builder = TraceBuilder("readers")
        builder.add_task("w", 1.0, outputs=[0x1])
        builder.add_task("r1", 1.0, inputs=[0x1])
        builder.add_task("r2", 1.0, inputs=[0x1])
        g = build_dependency_graph(builder.build())
        assert g.predecessors[2] == {0}
        assert 1 not in g.predecessors[2]

    def test_writer_after_readers_depends_on_all(self):
        builder = TraceBuilder("readers-then-writer")
        builder.add_task("w", 1.0, outputs=[0x1])
        builder.add_task("r1", 1.0, inputs=[0x1])
        builder.add_task("r2", 1.0, inputs=[0x1])
        builder.add_task("w2", 1.0, outputs=[0x1])
        g = build_dependency_graph(builder.build())
        assert g.predecessors[3] == {0, 1, 2}

    def test_independent_tasks_have_no_edges(self):
        g = build_dependency_graph(generate_independent(10, seed=1))
        assert g.num_edges == 0
        assert len(g.roots()) == 10

    def test_chain_structure(self):
        g = build_dependency_graph(generate_chain(5, seed=1))
        assert g.num_edges == 4
        assert g.dependency_count_range() == (0, 1)


class TestCriticalPath:
    def test_diamond_critical_path(self):
        g = build_dependency_graph(diamond())
        assert g.critical_path_length() == pytest.approx(30.0)
        assert g.total_work() == pytest.approx(40.0)
        assert g.max_parallelism() == pytest.approx(40.0 / 30.0)

    def test_chain_critical_path_equals_total(self):
        g = build_dependency_graph(generate_chain(6, duration_us=3.0, seed=1))
        assert g.critical_path_length() == pytest.approx(g.total_work())

    def test_independent_max_parallelism(self):
        g = build_dependency_graph(generate_independent(8, duration_us=2.0, seed=1))
        assert g.max_parallelism() == pytest.approx(8.0)


class TestValidateSchedule:
    def test_valid_schedule_passes(self):
        trace = diamond()
        starts = {0: 0.0, 1: 10.0, 2: 10.0, 3: 20.0}
        ends = {k: v + 10.0 for k, v in starts.items()}
        validate_schedule(trace, starts, ends)

    def test_dependency_violation_detected(self):
        trace = diamond()
        starts = {0: 0.0, 1: 5.0, 2: 10.0, 3: 20.0}
        ends = {0: 10.0, 1: 15.0, 2: 20.0, 3: 30.0}
        with pytest.raises(SimulationError):
            validate_schedule(trace, starts, ends)

    def test_missing_task_detected(self):
        trace = diamond()
        with pytest.raises(SimulationError):
            validate_schedule(trace, {0: 0.0}, {0: 10.0})

    def test_finish_before_start_detected(self):
        trace = diamond()
        starts = {0: 0.0, 1: 10.0, 2: 10.0, 3: 20.0}
        ends = {0: 10.0, 1: 20.0, 2: 20.0, 3: 15.0}
        with pytest.raises(SimulationError):
            validate_schedule(trace, starts, ends)
