"""Tests for the multicore machine simulator."""

import pytest

from repro.common.errors import ConfigurationError
from repro.managers.ideal import IdealManager
from repro.managers.nanos import NanosConfig, NanosManager
from repro.nexus.nexuspp import NexusPlusPlusManager
from repro.nexus.nexussharp import NexusSharpConfig, NexusSharpManager
from repro.system.machine import Machine, MachineConfig, simulate
from repro.trace.trace import TraceBuilder
from repro.workloads.synthetic import generate_chain, generate_fork_join, generate_independent


class DegradedIdealManager(IdealManager):
    """Zero-overhead manager without ``taskwait on`` support (Nexus++-style)."""

    name = "DegradedIdeal"
    supports_taskwait_on = False


class TestIdealScheduling:
    def test_single_core_makespan_equals_total_work(self, independent_trace):
        result = simulate(independent_trace, IdealManager(), 1, validate=True)
        assert result.makespan_us == pytest.approx(independent_trace.total_work_us)
        assert result.speedup_vs_serial == pytest.approx(1.0)

    def test_independent_tasks_scale_linearly(self, independent_trace):
        result = simulate(independent_trace, IdealManager(), 4, validate=True)
        assert result.speedup_vs_serial == pytest.approx(4.0)

    def test_more_cores_than_tasks(self, independent_trace):
        result = simulate(independent_trace, IdealManager(), 1000, validate=True)
        # 20 tasks of 10 µs: everything runs at once.
        assert result.makespan_us == pytest.approx(10.0)

    def test_chain_cannot_scale(self, chain_trace):
        serial = simulate(chain_trace, IdealManager(), 1, validate=True)
        parallel = simulate(chain_trace, IdealManager(), 8, validate=True)
        assert parallel.makespan_us == pytest.approx(serial.makespan_us)

    def test_diamond_critical_path(self, tiny_diamond_trace):
        result = simulate(tiny_diamond_trace, IdealManager(), 4, validate=True)
        assert result.makespan_us == pytest.approx(30.0)

    def test_all_tasks_executed_exactly_once(self, random_dag_trace):
        result = simulate(random_dag_trace, IdealManager(), 8, validate=True)
        assert result.num_tasks == random_dag_trace.num_tasks
        assert len(result.finish_times) == random_dag_trace.num_tasks

    def test_makespan_at_least_critical_path_and_at_most_serial(self, random_dag_trace):
        from repro.trace.dag import build_dependency_graph

        graph = build_dependency_graph(random_dag_trace)
        result = simulate(random_dag_trace, IdealManager(), 4, validate=True)
        assert result.makespan_us >= graph.critical_path_length() - 1e-6
        assert result.makespan_us <= graph.total_work() + 1e-6


class TestBarriers:
    def test_taskwait_serialises_phases(self):
        builder = TraceBuilder("barrier")
        builder.add_task("a", 10.0, outputs=[0x40])
        builder.add_task("b", 10.0, outputs=[0x80])
        builder.add_taskwait()
        builder.add_task("c", 10.0, outputs=[0xC0])
        trace = builder.build()
        result = simulate(trace, IdealManager(), 4, validate=True)
        # Phase 1 (10 µs, two tasks in parallel) then c (10 µs).
        assert result.makespan_us == pytest.approx(20.0)
        assert result.start_times[2] >= max(result.finish_times[0], result.finish_times[1])

    def test_taskwait_on_only_waits_for_the_named_writer(self):
        builder = TraceBuilder("taskwait-on")
        builder.add_task("slow", 100.0, outputs=[0x40])
        builder.add_task("fast", 1.0, outputs=[0x80])
        builder.add_taskwait_on(0x80)
        builder.add_task("after", 1.0, outputs=[0xC0])
        trace = builder.build()
        result = simulate(trace, IdealManager(), 4, validate=True)
        # "after" must not wait for "slow".
        assert result.start_times[2] < 100.0

    def test_taskwait_on_degrades_to_full_taskwait_without_support(self):
        builder = TraceBuilder("taskwait-on-degraded")
        builder.add_task("slow", 100.0, outputs=[0x40])
        builder.add_task("fast", 1.0, outputs=[0x80])
        builder.add_taskwait_on(0x80)
        builder.add_task("after", 1.0, outputs=[0xC0])
        trace = builder.build()
        result = simulate(trace, NexusPlusPlusManager(), 4, validate=True)
        # Nexus++ has no taskwait-on support: "after" waits for everything.
        assert result.start_times[2] >= 100.0

    def test_taskwait_on_unwritten_address_is_noop(self):
        builder = TraceBuilder("noop-barrier")
        builder.add_task("a", 10.0, outputs=[0x40])
        builder.add_taskwait_on(0xDEAD00)
        builder.add_task("b", 10.0, outputs=[0x80])
        trace = builder.build()
        result = simulate(trace, IdealManager(), 2, validate=True)
        assert result.makespan_us == pytest.approx(10.0)

    def test_leading_and_trailing_barriers(self):
        builder = TraceBuilder("edge-barriers")
        builder.add_taskwait()
        builder.add_task("a", 5.0, outputs=[0x40])
        builder.add_taskwait()
        builder.add_taskwait()
        trace = builder.build()
        result = simulate(trace, IdealManager(), 1, validate=True)
        assert result.makespan_us == pytest.approx(5.0)


class TestTaskwaitOnDegradation:
    """The ``supports_taskwait_on=False`` path (Nexus++, Section III)."""

    def _trace_with_targeted_wait(self):
        builder = TraceBuilder("degradation")
        builder.add_task("slow", 100.0, outputs=[0x40])
        builder.add_task("fast", 1.0, outputs=[0x80])
        builder.add_taskwait_on(0x80)
        builder.add_task("after", 1.0, outputs=[0xC0])
        return builder.build()

    def test_supporting_manager_only_waits_for_the_writer(self):
        result = simulate(self._trace_with_targeted_wait(), IdealManager(), 4, validate=True)
        assert result.start_times[2] < 100.0

    def test_degraded_manager_waits_for_everything(self):
        result = simulate(self._trace_with_targeted_wait(), DegradedIdealManager(), 4, validate=True)
        assert result.start_times[2] >= 100.0
        assert result.makespan_us == pytest.approx(101.0)

    def test_degradation_with_no_outstanding_tasks_is_a_noop(self):
        builder = TraceBuilder("noop-degraded")
        builder.add_taskwait_on(0x40)
        builder.add_task("a", 10.0, outputs=[0x40])
        builder.add_taskwait()
        builder.add_taskwait_on(0x40)  # everything already finished
        builder.add_task("b", 10.0, outputs=[0x80])
        trace = builder.build()
        result = simulate(trace, DegradedIdealManager(), 2, validate=True)
        assert result.makespan_us == pytest.approx(20.0)

    def test_repeated_degraded_waits_serialise_phases(self):
        builder = TraceBuilder("phased-degraded")
        for phase in range(3):
            builder.add_task(f"p{phase}a", 10.0, outputs=[0x1000 + 0x40 * phase])
            builder.add_task(f"p{phase}b", 10.0, outputs=[0x2000 + 0x40 * phase])
            # Targets only the first task, but degrades to a full barrier.
            builder.add_taskwait_on(0x1000 + 0x40 * phase)
        trace = builder.build()
        result = simulate(trace, DegradedIdealManager(), 4, validate=True)
        # Each phase's two tasks run in parallel; the degraded barrier
        # fences phases, so the makespan is 3 x 10 us.
        assert result.makespan_us == pytest.approx(30.0)
        degraded_starts = [result.start_times[i] for i in range(6)]
        assert degraded_starts == [0.0, 0.0, 10.0, 10.0, 20.0, 20.0]
        # With real taskwait-on support the same trace finishes no later.
        supported = simulate(trace, IdealManager(), 4, validate=True)
        assert supported.makespan_us <= result.makespan_us


class TestCoreSaturationDispatch:
    """More ready tasks than idle cores: dispatch order is the policy's."""

    def _independent(self, durations):
        builder = TraceBuilder("saturation")
        for index, duration in enumerate(durations):
            builder.add_task(f"t{index}", duration, outputs=[0x1000 + 0x40 * index])
        return builder.build()

    def test_fifo_preserves_ready_order_under_saturation(self):
        trace = self._independent([10.0] * 6)
        result = simulate(trace, IdealManager(), 2, validate=True)
        starts = [result.start_times[i] for i in range(6)]
        # Pairs start in submission order as cores free up.
        assert starts == [0.0, 0.0, 10.0, 10.0, 20.0, 20.0]
        assert result.makespan_us == pytest.approx(30.0)

    def test_fifo_queue_drains_in_ready_order_with_mixed_durations(self):
        trace = self._independent([30.0, 5.0, 10.0, 10.0])
        result = simulate(trace, IdealManager(), 2, validate=True)
        # Core frees at t=5 (task 1): FIFO hands it task 2, then task 3.
        assert result.start_times[2] == pytest.approx(5.0)
        assert result.start_times[3] == pytest.approx(15.0)

    def test_sjf_reorders_saturated_queue(self):
        trace = self._independent([50.0, 30.0, 20.0, 10.0])
        result = simulate(trace, IdealManager(), 1, validate=True, scheduler="sjf")
        # Task 0 starts immediately (idle core); the rest drain shortest-first.
        assert result.start_times[0] == pytest.approx(0.0)
        order = sorted(range(1, 4), key=lambda i: result.start_times[i])
        assert order == [3, 2, 1]
        assert result.scheduler == "sjf"

    def test_ljf_reorders_saturated_queue(self):
        trace = self._independent([50.0, 10.0, 20.0, 30.0])
        result = simulate(trace, IdealManager(), 1, validate=True, scheduler="ljf")
        order = sorted(range(1, 4), key=lambda i: result.start_times[i])
        assert order == [3, 2, 1]

    def test_concurrency_never_exceeds_core_count(self):
        trace = self._independent([10.0] * 7)
        for scheduler in ("fifo", "sjf", "locality"):
            result = simulate(trace, IdealManager(), 3, validate=True, scheduler=scheduler)
            events = sorted(
                [(t, 1) for t in result.start_times.values()]
                + [(t, -1) for t in result.finish_times.values()]
            )
            running = peak = 0
            for _, delta in events:
                running += delta
                peak = max(peak, running)
            assert peak <= 3

    def test_makespan_invariant_across_policies_on_uniform_tasks(self):
        trace = self._independent([10.0] * 8)
        makespans = {
            scheduler: simulate(trace, IdealManager(), 2, scheduler=scheduler).makespan_us
            for scheduler in ("fifo", "sjf", "ljf", "locality")
        }
        assert len(set(makespans.values())) == 1


class TestHeterogeneousTopologies:
    def test_slow_core_doubles_duration(self):
        builder = TraceBuilder("one-task")
        builder.add_task("t", 10.0, outputs=[0x40])
        result = simulate(builder.build(), IdealManager(), 1, validate=True,
                          topology="homogeneous:0.5")
        assert result.makespan_us == pytest.approx(20.0)

    def test_fast_idle_core_preferred(self):
        builder = TraceBuilder("two-tasks")
        builder.add_task("a", 10.0, outputs=[0x40])
        builder.add_task("b", 10.0, outputs=[0x80])
        result = simulate(builder.build(), IdealManager(), 2, validate=True,
                          topology="speeds:2,1")
        # Task 0 lands on the fast core (5 us), task 1 on the unit core.
        assert result.task_cores[0] == 0
        assert result.task_cores[1] == 1
        assert result.finish_times[0] == pytest.approx(5.0)
        assert result.finish_times[1] == pytest.approx(10.0)

    def test_big_little_slower_than_homogeneous(self):
        trace = generate_independent(16, duration_us=10.0, seed=3)
        fast = simulate(trace, IdealManager(), 4)
        mixed = simulate(trace, IdealManager(), 4, topology="biglittle:0.5")
        assert mixed.makespan_us > fast.makespan_us
        assert mixed.topology["kind"] == "big_little"

    def test_per_core_busy_sums_to_total(self):
        trace = generate_fork_join(num_phases=4, width=6, seed=1)
        result = simulate(trace, IdealManager(), 4, topology="biglittle:0.5")
        assert sum(result.per_core_busy_us) == pytest.approx(result.core_busy_us)
        assert len(result.per_core_busy_us) == 4
        assert len(result.per_core_utilization) == 4
        assert all(0.0 <= u <= 1.0 for u in result.per_core_utilization)

    def test_homogeneous_results_unchanged_by_topology_plumbing(self):
        trace = generate_fork_join(num_phases=3, width=5, seed=2)
        default = simulate(trace, IdealManager(), 4)
        explicit = simulate(trace, IdealManager(), 4, topology="homogeneous")
        assert default.makespan_us == explicit.makespan_us
        assert default.start_times == explicit.start_times

    def test_mismatched_concrete_topology_rejected(self):
        from repro.system.topology import CoreTopology

        with pytest.raises(ConfigurationError):
            Machine(IdealManager(), MachineConfig(num_cores=4, topology=CoreTopology.homogeneous(2)))


class TestKeepScheduleCollection:
    def test_keep_schedule_false_allocates_no_timeline(self, monkeypatch, independent_trace):
        """With keep_schedule=False neither the kernel nor the engine collects."""
        import repro.sim.batch as batch_module
        import repro.system.dynamic as engine_module

        def forbidden(*args, **kwargs):
            raise AssertionError("TaskTimeline allocated despite keep_schedule=False")

        monkeypatch.setattr(batch_module, "TaskTimeline", forbidden)
        monkeypatch.setattr(engine_module, "TaskTimeline", forbidden)
        result = simulate(independent_trace, IdealManager(), 2, keep_schedule=False)
        assert result.start_times == {}
        assert result.task_cores == {}
        assert result.makespan_us > 0
        machine = Machine(IdealManager(), MachineConfig(num_cores=2, keep_schedule=False))
        assert machine.run_scalar(independent_trace).makespan_us == result.makespan_us

    def test_validate_forces_collection_even_without_keep(self, independent_trace):
        result = simulate(independent_trace, IdealManager(), 2,
                          keep_schedule=False, validate=True)
        # Validation ran (would raise on violation) but the result stays lean.
        assert result.start_times == {}

    def test_keep_schedule_false_matches_kept_makespan(self, random_dag_trace):
        kept = simulate(random_dag_trace, IdealManager(), 4, keep_schedule=True)
        lean = simulate(random_dag_trace, IdealManager(), 4, keep_schedule=False)
        assert lean.makespan_us == kept.makespan_us
        assert lean.core_busy_us == kept.core_busy_us


class TestHardwareManagersOnMachine:
    @pytest.mark.parametrize("num_tg", [1, 4, 6])
    def test_nexus_sharp_executes_fork_join(self, fork_join_trace, num_tg):
        manager = NexusSharpManager(NexusSharpConfig(num_task_graphs=num_tg, frequency_mhz=100.0))
        result = simulate(fork_join_trace, manager, 4, validate=True)
        assert result.num_tasks == fork_join_trace.num_tasks
        assert result.makespan_us > 0

    def test_manager_overhead_slows_execution_down(self, independent_trace):
        ideal = simulate(independent_trace, IdealManager(), 4)
        hardware = simulate(independent_trace, NexusPlusPlusManager(), 4)
        assert hardware.makespan_us >= ideal.makespan_us

    def test_worker_overhead_added_to_execution(self):
        from repro.managers.nanos import NanosManager

        trace = generate_independent(4, duration_us=10.0, seed=0)
        manager = NanosManager()
        result = simulate(trace, manager, 1, validate=True)
        expected_work = 4 * (10.0 + manager.worker_overhead_us)
        assert result.makespan_us >= expected_work - 1e-6


class TestResultMetrics:
    def test_core_utilization_bounds(self, independent_trace):
        result = simulate(independent_trace, IdealManager(), 4)
        assert 0.0 < result.core_utilization <= 1.0

    def test_summary_keys(self, independent_trace):
        summary = simulate(independent_trace, IdealManager(), 2).summary()
        assert {"trace", "manager", "cores", "makespan_ms", "speedup"} <= set(summary)

    def test_keep_schedule_false_drops_schedules(self, independent_trace):
        result = simulate(independent_trace, IdealManager(), 2, keep_schedule=False)
        assert result.start_times == {}
        assert result.makespan_us > 0

    def test_latency_metrics_non_negative(self, fork_join_trace):
        result = simulate(fork_join_trace, NexusPlusPlusManager(), 2)
        assert result.mean_ready_latency_us >= 0.0

    def test_invalid_core_count(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cores=0)

    def test_machine_reusable_across_traces(self):
        machine = Machine(IdealManager(), MachineConfig(num_cores=2))
        first = machine.run(generate_independent(6, seed=1))
        second = machine.run(generate_chain(6, seed=1))
        assert first.num_tasks == 6 and second.num_tasks == 6


class TestDeterminism:
    def test_same_inputs_same_makespan(self, random_dag_trace):
        manager_a = NexusSharpManager(NexusSharpConfig(num_task_graphs=4, frequency_mhz=100.0))
        manager_b = NexusSharpManager(NexusSharpConfig(num_task_graphs=4, frequency_mhz=100.0))
        first = simulate(random_dag_trace, manager_a, 8)
        second = simulate(random_dag_trace, manager_b, 8)
        assert first.makespan_us == pytest.approx(second.makespan_us)


class TestEqualTimestampOrder:
    def test_completion_then_ready_then_master_then_push_order(self):
        """Events at one timestamp pop in that order, on both replay paths.

        Nanos with only its 1 µs insert and finish lock costs, so the
        order of lock reservations shows in the ready times, on 3 cores:

        * t=4: t0's completion reserves the lock before the master step
          submitting t3, so t1/t2 are ready at 5 and t3 at 6 (not 6 and 5);
        * t=5: t1's ready was pushed before t2's, so t1 takes core 0;
        * t=6: t3's ready runs the zero-length t3, whose completion
          reserves the lock before the master step submitting t4, so t4
          is ready at 8 (not 7);
        * t=8: t2's completion frees core 1 before t4's ready picks the
          lowest idle core, so t4 runs on core 1 (not core 2).
        """
        builder = TraceBuilder("equal-timestamps")
        builder.add_task("t0", 3.0, outputs=[0x00], creation_overhead_us=2.0)
        builder.add_task("t1", 5.0, inputs=[0x00], outputs=[0x40])
        builder.add_task("t2", 3.0, inputs=[0x00], outputs=[0x80], creation_overhead_us=1.0)
        builder.add_task("t3", 0.0, outputs=[0xC0])
        builder.add_task("t4", 5.0, outputs=[0x100], creation_overhead_us=1.0)
        trace = builder.build()
        costs = NanosConfig(task_creation_us=0.0, creation_per_param_us=0.0,
                            insert_lock_us=1.0, insert_lock_per_param_us=0.0,
                            finish_lock_us=1.0, wakeup_per_task_us=0.0,
                            worker_dispatch_us=0.0)
        machine = Machine(NanosManager(costs), MachineConfig(num_cores=3, validate=True))
        scalar = machine.run_scalar(trace)
        scalar_events = machine.last_events_processed
        kernel = machine.run(trace)  # the kernel covers Nanos under FIFO
        assert kernel == scalar
        assert machine.last_events_processed == scalar_events == 13
        #            (submit, ready, start, finish, core) per task
        expected = {0: (0.0, 1.0, 1.0, 4.0, 0), 1: (2.0, 5.0, 5.0, 10.0, 0),
                    2: (3.0, 5.0, 5.0, 8.0, 1), 3: (4.0, 6.0, 6.0, 6.0, 2),
                    4: (6.0, 8.0, 8.0, 13.0, 1)}
        assert {task: (scalar.submit_times[task], scalar.ready_times[task],
                       scalar.start_times[task], scalar.finish_times[task],
                       scalar.task_cores[task]) for task in expected} == expected
