"""Unit tests of the dynamic task-graph runtime (spawn + taskwait).

Covers the engine semantics hand-computably (exact times on the ideal
manager), the two taskwait-core policies, dispatch interaction with the
scheduler queue, back-pressure, error paths, the growable timeline, and
reuse of a machine after a mid-run exception.
"""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError, TraceError
from repro.managers.ideal import IdealManager
from repro.managers.nanos import NanosManager
from repro.nexus.nexuspp import NexusPlusPlusManager
from repro.nexus.nexussharp import NexusSharpConfig, NexusSharpManager
from repro.system.machine import Machine, MachineConfig, simulate, simulate_dynamic
from repro.system.timeline import TaskTimeline
from repro.trace.dynamic import (
    Compute,
    DynamicProgram,
    Spawn,
    Taskwait,
    TaskwaitOn,
    task_request,
)
from repro.workloads.recursive import fib_program
from repro.workloads.synthetic import generate_random_dag


def leaf(function="leaf", duration=10.0, addr=None, inputs=()):
    outputs = [] if addr is None else [addr]
    return task_request(function, duration, inputs=list(inputs), outputs=outputs)


class TestBasicSemantics:
    def test_two_independent_children(self):
        def master():
            _ = yield Spawn(leaf(addr=0x1000))
            _ = yield Spawn(leaf(addr=0x1040))
            yield Taskwait()

        result = simulate_dynamic(DynamicProgram("pair", master), IdealManager(),
                                  num_cores=2, validate=True)
        assert result.makespan_us == 10.0
        assert result.num_tasks == 2

    def test_nested_spawn_exact_times(self):
        """Parent computes 5, spawns two 10 µs children, joins, computes 5.

        On the ideal manager with 4 cores: children start at t=5, finish
        at 15; the parent resumes at 15 and finishes at 20.
        """
        def parent_body():
            yield Compute(5.0)
            _ = yield Spawn(leaf(addr=0x2000))
            _ = yield Spawn(leaf(addr=0x2040))
            yield Taskwait()
            yield Compute(5.0)

        def master():
            _ = yield Spawn(task_request("parent", 10.0, body=parent_body))
            yield Taskwait()

        result = simulate_dynamic(DynamicProgram("nested", master), IdealManager(),
                                  num_cores=4, validate=True)
        assert result.start_times[0] == 0.0
        assert result.start_times[1] == 5.0
        assert result.start_times[2] == 5.0
        assert result.finish_times[1] == 15.0
        assert result.finish_times[0] == 20.0
        assert result.makespan_us == 20.0

    def test_spawned_child_ids_are_submission_ordered(self):
        seen = []

        def body():
            first = yield Spawn(leaf(addr=0x3000))
            second = yield Spawn(leaf(addr=0x3040))
            seen.append((first, second))
            yield Taskwait()

        def master():
            root = yield Spawn(task_request("root", 0.0, body=body))
            seen.append(root)
            yield Taskwait()

        simulate_dynamic(DynamicProgram("ids", master), IdealManager(), num_cores=2)
        # The root (submitted first) is id 0; its children get the next
        # ids in submission order.  The root's body runs — and spawns —
        # before the master's generator observes the spawn response
        # (ready events outrank master steps at equal timestamps, exactly
        # like the static loop), hence the list order.
        assert seen == [(1, 2), 0]

    def test_sibling_address_conflicts_serialise(self):
        """A later sibling reading an earlier sibling's output waits for it."""
        def master():
            _ = yield Spawn(leaf("writer", 10.0, addr=0x4000))
            _ = yield Spawn(leaf("reader", 5.0, inputs=[0x4000]))
            yield Taskwait()

        result = simulate_dynamic(DynamicProgram("conflict", master), IdealManager(),
                                  num_cores=4, validate=True)
        assert result.start_times[1] == result.finish_times[0]
        assert result.makespan_us == 15.0

    def test_dangling_children_drain_at_master_barrier(self):
        """A parent may finish with children in flight; the program still joins."""
        def body():
            _ = yield Spawn(leaf(duration=30.0, addr=0x5000))
            yield Compute(1.0)
            # no Taskwait: the child outlives its parent

        def master():
            _ = yield Spawn(task_request("parent", 1.0, body=body))
            yield Taskwait()

        result = simulate_dynamic(DynamicProgram("dangling", master), IdealManager(),
                                  num_cores=2, validate=True)
        assert result.num_tasks == 2
        assert result.finish_times[1] > result.finish_times[0]

    def test_master_taskwait_on_waits_for_last_writer_only(self):
        def master():
            _ = yield Spawn(leaf("slow", 50.0, addr=0x6000))
            _ = yield Spawn(leaf("fast", 5.0, addr=0x6040))
            yield TaskwaitOn(0x6040)
            _ = yield Spawn(leaf("after", 5.0, addr=0x6080))
            yield Taskwait()

        result = simulate_dynamic(DynamicProgram("twon", master), IdealManager(),
                                  num_cores=4, validate=True)
        # "after" is submitted once the fast writer finished, not the slow one.
        assert result.submit_times[2] == 5.0
        assert result.makespan_us == 50.0

    def test_taskwait_on_degrades_without_support(self):
        """Nexus++ has no taskwait-on: it degrades to a full taskwait."""
        def master():
            _ = yield Spawn(leaf("slow", 50.0, addr=0x6000))
            _ = yield Spawn(leaf("fast", 5.0, addr=0x6040))
            yield TaskwaitOn(0x6040)
            _ = yield Spawn(leaf("after", 5.0, addr=0x6080))
            yield Taskwait()

        program = DynamicProgram("twon-degrade", master)
        supported = simulate_dynamic(program, NexusSharpManager(), num_cores=4)
        degraded = simulate_dynamic(program, NexusPlusPlusManager(), num_cores=4)
        # Degradation forces the third submission behind the slow writer.
        assert degraded.submit_times[2] > 50.0
        assert supported.submit_times[2] < 50.0

    def test_master_compute_is_a_serial_section(self):
        def master():
            yield Compute(7.0)
            _ = yield Spawn(leaf(duration=3.0, addr=0x7000))
            yield Taskwait()

        result = simulate_dynamic(DynamicProgram("serial", master), IdealManager(),
                                  num_cores=1, validate=True)
        assert result.submit_times[0] == 7.0
        assert result.makespan_us == 10.0


class TestCoreSemantics:
    def test_taskwait_releases_core_by_default(self):
        """Recursion deeper than the core count completes (scheduling point)."""
        result = simulate_dynamic(fib_program(7, seed=1), IdealManager(),
                                  num_cores=1, validate=True)
        assert result.num_tasks == fib_program(7, seed=1).metadata["num_tasks"]

    def test_resuming_parent_outranks_queued_ready_tasks(self):
        """On the single free core, a drained parent resumes before new work."""
        def parent_body():
            _ = yield Spawn(leaf("child", 10.0, addr=0x8000))
            yield Taskwait()
            yield Compute(1.0)

        def master():
            _ = yield Spawn(task_request("parent", 1.0, body=parent_body))
            _ = yield Spawn(leaf("rival", 20.0, addr=0x8040))
            _ = yield Spawn(leaf("rival2", 20.0, addr=0x8080))
            yield Taskwait()

        result = simulate_dynamic(DynamicProgram("resume-prio", master),
                                  IdealManager(), num_cores=2, validate=True)
        # ids: parent=0, child=1 (spawned before the master continues),
        # rival=2, rival2=3.  When the child frees its core at t=10 the
        # suspended parent resumes first (10 -> 11); the queued rival2
        # only starts afterwards.
        assert result.finish_times[1] == 10.0
        assert result.finish_times[0] == 11.0
        assert result.start_times[3] == 11.0

    def test_heterogeneous_topology(self):
        result = simulate_dynamic(fib_program(6, seed=2), IdealManager(),
                                  num_cores=4, topology="biglittle:0.5",
                                  validate=True)
        assert result.topology["kind"] == "big_little"
        assert result.num_tasks == fib_program(6, seed=2).metadata["num_tasks"]


class TestBackpressureAndErrors:
    def test_max_in_flight_stalls_master(self):
        def master():
            for i in range(8):
                _ = yield Spawn(leaf(duration=10.0, addr=0x9000 + 64 * i))
            yield Taskwait()

        program = DynamicProgram("window", master)
        free = simulate_dynamic(program, IdealManager(), num_cores=8)
        capped = simulate_dynamic(program, IdealManager(), num_cores=8,
                                  max_in_flight=2)
        assert free.makespan_us == 10.0
        assert capped.makespan_us == 40.0  # pairs of two, strictly windowed

    def test_invalid_max_in_flight_rejected(self):
        program = fib_program(3, seed=1)
        with pytest.raises(SimulationError, match="max_in_flight"):
            simulate_dynamic(program, IdealManager(), num_cores=2, max_in_flight=0)

    def test_taskwait_on_inside_body_rejected(self):
        def body():
            yield TaskwaitOn(0x1000)

        def master():
            _ = yield Spawn(task_request("bad", 0.0, body=body))
            yield Taskwait()

        with pytest.raises(SimulationError, match="master-only"):
            simulate_dynamic(DynamicProgram("bad-op", master), IdealManager(),
                             num_cores=1)

    def test_unknown_op_rejected(self):
        def master():
            yield object()

        with pytest.raises(SimulationError, match="unknown master op"):
            simulate_dynamic(DynamicProgram("bad-master", master), IdealManager(),
                             num_cores=1)

    def test_keep_schedule_false_collects_nothing(self):
        result = simulate_dynamic(fib_program(5, seed=1), IdealManager(),
                                  num_cores=2, keep_schedule=False)
        assert result.start_times == {} and result.finish_times == {}
        assert result.num_tasks == fib_program(5, seed=1).metadata["num_tasks"]


class TestGrowableTimeline:
    def test_growable_append_and_export(self):
        timeline = TaskTimeline.growable()
        assert timeline.add_task(5) == 0
        assert timeline.add_task(2) == 1
        timeline.start[0] = 1.0
        timeline.finish[0] = 2.0
        timeline.core[1] = 3
        assert timeline.start_dict() == {5: 1.0}
        assert timeline.finish_dict() == {5: 2.0}
        assert timeline.core_dict() == {2: 3}

    def test_static_timeline_rejects_add_task(self):
        with pytest.raises(ValueError, match="growable"):
            TaskTimeline(4).add_task(0)


class _FlakyNexusSharp(NexusSharpManager):
    """A manager whose ``finish`` raises on the N-th call (test-only)."""

    def __init__(self, fail_at: int):
        super().__init__(NexusSharpConfig())
        self.fail_at = fail_at
        self.calls = 0

    def finish(self, task_id, time_us):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("injected mid-run failure")
        return super().finish(task_id, time_us)


class TestMidRunExceptionTeardown:
    """A failed run must not poison the next run of the same machine:
    every engine run starts by resetting its manager."""

    def test_failed_run_does_not_poison_the_next_run(self):
        trace = generate_random_dag(40, seed=3)
        manager = _FlakyNexusSharp(fail_at=10)
        machine = Machine(manager, MachineConfig(num_cores=4))
        with pytest.raises(RuntimeError):
            machine.run(trace)
        reused = machine.run(trace)  # fail_at already consumed: clean run
        fresh = simulate(trace, NexusSharpManager(), num_cores=4)
        assert reused.makespan_us == fresh.makespan_us
        assert reused.manager_stats == fresh.manager_stats

    def test_failed_dynamic_run_does_not_poison_the_next_run(self):
        manager = _FlakyNexusSharp(fail_at=10)
        machine = Machine(manager, MachineConfig(num_cores=4))
        with pytest.raises(RuntimeError):
            machine.run(fib_program(7, seed=1))
        result = machine.run(fib_program(7, seed=1))
        fresh = simulate_dynamic(fib_program(7, seed=1), NexusSharpManager(),
                                 num_cores=4)
        assert result.makespan_us == fresh.makespan_us


class TestDynamicStaticEquivalence:
    def test_spawn_free_program_matches_static_replay(self):
        """A dynamic program without bodies == static replay of its elaboration."""
        def master():
            for i in range(20):
                _ = yield Spawn(leaf(duration=10.0 + i, addr=0xA000 + 64 * i))
                if i % 5 == 4:
                    yield Taskwait()

        program = DynamicProgram("flat", master)
        trace = program.elaborate()
        for factory in (IdealManager, NanosManager, NexusPlusPlusManager,
                        NexusSharpManager):
            dynamic = simulate_dynamic(program, factory(), num_cores=4,
                                       validate=True)
            static = simulate(trace, factory(), num_cores=4, validate=True)
            assert dynamic.makespan_us == static.makespan_us, factory.__name__
            assert dynamic.start_times == static.start_times, factory.__name__

    def test_body_task_request_validation(self):
        with pytest.raises(TraceError):
            task_request("", 1.0)
        with pytest.raises(TraceError):
            task_request("x", -1.0)
        with pytest.raises(TraceError):
            Compute(-1.0)
        with pytest.raises(TraceError):
            Spawn("not a request")


class TestLastReadyOrder:
    """``Machine.last_ready_order`` always describes the most recent run:
    every engine run that keeps its schedule records its order, and a
    kernel run leaves ``()``."""

    def test_kernel_replay_after_dynamic_run_clears_order(self):
        machine = Machine(IdealManager(), MachineConfig(num_cores=4))
        machine.run(fib_program(5, seed=1))
        assert machine.last_ready_order
        machine.run(generate_random_dag(30, seed=3))  # ideal under FIFO: the kernel
        assert machine.last_ready_order == ()

    def test_engine_static_replay_records_its_own_order(self):
        machine = Machine(IdealManager(), MachineConfig(num_cores=4))
        machine.run(fib_program(5, seed=1))
        trace = generate_random_dag(30, seed=3)
        machine.run_scalar(trace)
        assert sorted(machine.last_ready_order) == [task.task_id for task in trace.tasks()]
        stream_machine = Machine(IdealManager(), MachineConfig(num_cores=4))
        stream_machine.run_stream(iter(trace.events))
        assert machine.last_ready_order == stream_machine.last_ready_order

    def test_stream_after_dynamic_run_records_its_own_order(self):
        machine = Machine(IdealManager(), MachineConfig(num_cores=4))
        machine.run(fib_program(5, seed=1))
        trace = generate_random_dag(30, seed=3)
        machine.run_stream(trace)
        assert sorted(machine.last_ready_order) == [task.task_id for task in trace.tasks()]

    def test_stream_without_schedule_records_nothing(self):
        machine = Machine(IdealManager(), MachineConfig(num_cores=4, keep_schedule=False))
        machine.run(fib_program(5, seed=1))
        machine.run_stream(generate_random_dag(30, seed=3))
        assert machine.last_ready_order == ()
