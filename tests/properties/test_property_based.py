"""Property-based tests (hypothesis) on the core invariants.

These tests generate random task programs and check the library's
fundamental guarantees for every manager model: dependencies are never
violated, every task runs exactly once, makespans are bounded by the
critical path below and the serial time above, and the hardware
distribution function behaves like a function.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.managers.ideal import IdealManager
from repro.managers.nanos import NanosManager
from repro.nexus.distribution import nexus_hash
from repro.nexus.nexuspp import NexusPlusPlusManager
from repro.nexus.nexussharp import NexusSharpConfig, NexusSharpManager
from repro.system.machine import simulate
from repro.taskgraph.tracker import DependencyTracker
from repro.trace.dag import build_dependency_graph, validate_schedule
from repro.trace.serialization import trace_from_json, trace_to_json
from repro.trace.trace import Trace, TraceBuilder
from repro.workloads.synthetic import generate_random_dag

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

MANAGER_FACTORIES = [
    IdealManager,
    NanosManager,
    NexusPlusPlusManager,
    lambda: NexusSharpManager(NexusSharpConfig(num_task_graphs=3, frequency_mhz=100.0)),
    lambda: NexusSharpManager(NexusSharpConfig(num_task_graphs=6)),
]


@st.composite
def small_task_program(draw) -> Trace:
    """A random task program with data dependencies and occasional barriers."""
    num_tasks = draw(st.integers(min_value=1, max_value=30))
    num_addresses = draw(st.integers(min_value=1, max_value=12))
    addresses = [0x1000 + 64 * i for i in range(num_addresses)]
    builder = TraceBuilder("hypothesis-program")
    for index in range(num_tasks):
        n_params = draw(st.integers(min_value=1, max_value=min(4, num_addresses)))
        chosen = draw(
            st.lists(st.sampled_from(addresses), min_size=n_params, max_size=n_params, unique=True)
        )
        directions = draw(
            st.lists(st.sampled_from(["in", "out", "inout"]), min_size=n_params, max_size=n_params)
        )
        inputs = [a for a, d in zip(chosen, directions) if d == "in"]
        outputs = [a for a, d in zip(chosen, directions) if d == "out"]
        inouts = [a for a, d in zip(chosen, directions) if d == "inout"]
        duration = draw(st.floats(min_value=0.5, max_value=100.0, allow_nan=False))
        builder.add_task(f"task{index % 5}", duration_us=duration,
                         inputs=inputs, outputs=outputs, inouts=inouts)
        if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
            builder.add_taskwait()
        elif draw(st.integers(0, 14)) == 0:
            builder.add_taskwait_on(draw(st.sampled_from(addresses)))
    builder.add_taskwait()
    return builder.build()


COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# ---------------------------------------------------------------------------
# Distribution-hash properties
# ---------------------------------------------------------------------------


class TestDistributionProperties:
    @given(address=st.integers(min_value=0, max_value=(1 << 48) - 1),
           num_tg=st.integers(min_value=1, max_value=32))
    @settings(max_examples=200, deadline=None)
    def test_hash_in_range_and_deterministic(self, address, num_tg):
        value = nexus_hash(address, num_tg)
        assert 0 <= value < num_tg
        assert value == nexus_hash(address, num_tg)

    @given(address=st.integers(min_value=0, max_value=(1 << 48) - 1),
           high_bits=st.integers(min_value=0, max_value=(1 << 28) - 1),
           num_tg=st.integers(min_value=1, max_value=32))
    @settings(max_examples=100, deadline=None)
    def test_hash_ignores_high_address_bits(self, address, high_bits, num_tg):
        low = address & ((1 << 20) - 1)
        assert nexus_hash(low, num_tg) == nexus_hash(low | (high_bits << 20), num_tg)


# ---------------------------------------------------------------------------
# Scheduling properties
# ---------------------------------------------------------------------------


class TestSchedulingProperties:
    @given(trace=small_task_program(),
           manager_index=st.integers(min_value=0, max_value=len(MANAGER_FACTORIES) - 1),
           cores=st.integers(min_value=1, max_value=16))
    @settings(**COMMON_SETTINGS)
    def test_schedule_respects_dependencies_and_runs_every_task_once(self, trace, manager_index, cores):
        manager = MANAGER_FACTORIES[manager_index]()
        result = simulate(trace, manager, cores)
        assert len(result.finish_times) == trace.num_tasks
        validate_schedule(trace, result.start_times, result.finish_times)

    @given(trace=small_task_program(), cores=st.integers(min_value=1, max_value=16))
    @settings(**COMMON_SETTINGS)
    def test_ideal_makespan_bounded_by_critical_path_and_serial_time(self, trace, cores):
        graph = build_dependency_graph(trace)
        result = simulate(trace, IdealManager(), cores)
        assert result.makespan_us >= graph.critical_path_length() - 1e-6
        assert result.makespan_us <= graph.total_work() + 1e-6

    @given(trace=small_task_program())
    @settings(**COMMON_SETTINGS)
    def test_single_core_ideal_equals_total_work(self, trace):
        result = simulate(trace, IdealManager(), 1)
        assert result.makespan_us == pytest.approx(trace.total_work_us)

    @given(trace=small_task_program(), cores=st.integers(min_value=1, max_value=8))
    @settings(**COMMON_SETTINGS)
    def test_hardware_manager_never_beats_ideal(self, trace, cores):
        ideal = simulate(trace, IdealManager(), cores).makespan_us
        sharp = simulate(
            trace, NexusSharpManager(NexusSharpConfig(num_task_graphs=4, frequency_mhz=100.0)), cores
        ).makespan_us
        assert sharp >= ideal - 1e-6


# ---------------------------------------------------------------------------
# Tracker properties
# ---------------------------------------------------------------------------


class TestTrackerProperties:
    @given(trace=small_task_program(), num_tables=st.integers(min_value=1, max_value=8))
    @settings(**COMMON_SETTINGS)
    def test_tracker_releases_every_task_exactly_once(self, trace, num_tables):
        tracker = DependencyTracker(num_tables=num_tables, distribute=lambda a: a % num_tables)
        graph = build_dependency_graph(trace)
        released = set()
        for task in trace.tasks():
            if tracker.insert_task(task)[1] == 0:
                released.add(task.task_id)
        for task_id in graph.submission_order:
            assert task_id in released
            for newly in tracker.finish_task(task_id)[2]:
                assert newly not in released
                released.add(newly)
        assert released == set(graph.submission_order)

    @given(trace=small_task_program())
    @settings(**COMMON_SETTINGS)
    def test_dependence_counts_never_negative(self, trace):
        # A count driven below zero passes zero first, so its task is
        # reported ready and then finish_task raises on the nonzero
        # count; running the whole trace is the test.
        tracker = DependencyTracker()
        order = []
        for task in trace.tasks():
            if tracker.insert_task(task)[1] == 0:
                order.append(task.task_id)
        index = 0
        while index < len(order):
            for newly in tracker.finish_task(order[index])[2]:
                order.append(newly)
            index += 1
        assert len(order) == trace.num_tasks


# ---------------------------------------------------------------------------
# Serialization properties
# ---------------------------------------------------------------------------


class TestSerializationProperties:
    @given(trace=small_task_program())
    @settings(**COMMON_SETTINGS)
    def test_json_roundtrip_is_identity(self, trace):
        restored = trace_from_json(trace_to_json(trace))
        assert restored.name == trace.name
        assert len(restored) == len(trace)
        assert list(restored.tasks()) == list(trace.tasks())
        assert restored.total_work_us == pytest.approx(trace.total_work_us)
