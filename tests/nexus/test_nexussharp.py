"""Tests for the Nexus# distributed hardware manager model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.nexus.nexussharp import NexusSharpConfig, NexusSharpManager
from repro.nexus.timing import NexusSharpTiming
from repro.trace.task import TaskDescriptor
from repro.workloads.microbench import generate_microbenchmark

from task_params import make_params


def make_task(task_id, inputs=(), outputs=(), duration=10.0):
    return TaskDescriptor(
        task_id=task_id,
        function="f",
        params=make_params(inputs=inputs, outputs=outputs),
        duration_us=duration,
    )


def sharp(num_tg=2, frequency=100.0, **kwargs):
    return NexusSharpManager(
        NexusSharpConfig(num_task_graphs=num_tg, frequency_mhz=frequency, **kwargs)
    )


class TestConfig:
    def test_synthesis_frequency_selected_when_none(self):
        manager = NexusSharpManager(NexusSharpConfig(num_task_graphs=6, frequency_mhz=None))
        assert manager.frequency.mhz == pytest.approx(55.56)

    def test_explicit_frequency_wins(self):
        manager = sharp(num_tg=6, frequency=100.0)
        assert manager.frequency.mhz == pytest.approx(100.0)

    def test_invalid_task_graph_count(self):
        with pytest.raises(ConfigurationError):
            NexusSharpConfig(num_task_graphs=0)
        with pytest.raises(ConfigurationError):
            NexusSharpConfig(num_task_graphs=64)

    def test_name_reflects_configuration(self):
        assert sharp(num_tg=4).name == "Nexus# 4TG"

    def test_supports_taskwait_on(self):
        assert sharp().supports_taskwait_on is True


class TestFunctionalBehaviour:
    def test_independent_task_ready(self):
        manager = sharp()
        _, ready = manager.submit(make_task(0, outputs=[0x40]), 0.0)
        assert [task_id for task_id, _ in ready] == [0]

    def test_dependency_resolution_across_task_graphs(self):
        manager = sharp(num_tg=6)
        manager.submit(make_task(0, outputs=[0x40, 0x80, 0xC0]), 0.0)
        _, ready = manager.submit(make_task(1, inputs=[0x40, 0xC0]), 0.0)
        assert ready == ()
        ready, _ = manager.finish(0, 50.0)
        assert [task_id for task_id, _ in ready] == [1]

    def test_same_functional_result_for_any_task_graph_count(self):
        released = {}
        for num_tg in (1, 2, 6, 8):
            manager = sharp(num_tg=num_tg)
            manager.submit(make_task(0, outputs=[0x40]), 0.0)
            manager.submit(make_task(1, inputs=[0x40], outputs=[0x80]), 0.0)
            manager.submit(make_task(2, inputs=[0x80]), 0.0)
            order = []
            for task_id, time_us in ((0, 100.0), (1, 200.0)):
                ready, _ = manager.finish(task_id, time_us)
                order.extend(ready_id for ready_id, _ in ready)
            released[num_tg] = order
        assert len(set(map(tuple, released.values()))) == 1

    def test_zero_parameter_task_is_ready(self):
        manager = sharp()
        task = TaskDescriptor(task_id=0, function="f", params=(), duration_us=1.0)
        _, ready = manager.submit(task, 0.0)
        assert [task_id for task_id, _ in ready] == [0]

    def test_statistics_structure(self):
        manager = sharp(num_tg=3)
        manager.submit(make_task(0, outputs=[0x40]), 0.0)
        manager.finish(0, 10.0)
        stats = manager.statistics()
        assert len(stats["task_graph_busy_us"]) == 3
        assert stats["tasks_inserted"] == 1
        assert stats["arbiter_busy_us"] >= 0

    def test_reset(self):
        manager = sharp()
        manager.submit(make_task(0, outputs=[0x40]), 0.0)
        manager.finish(0, 10.0)
        manager.reset()
        stats = manager.statistics()
        assert stats["tasks_inserted"] == 0
        assert stats["input_parser_busy_us"] == 0.0


class TestTiming:
    def test_accept_time_is_input_parser_occupancy(self):
        manager = sharp(num_tg=4, frequency=100.0)
        accept_us, _ = manager.submit(make_task(0, outputs=[0x40, 0x80, 0xC0, 0x100]), 0.0)
        # IPh 2 + 4*IP 2 + IPf 1 = 11 cycles at 100 MHz.
        assert accept_us == pytest.approx(0.11)

    def test_insertion_parallelises_across_task_graphs(self):
        """With parameters spread over many task graphs the task is
        reported ready earlier than with a single task graph."""
        addresses = [0x40, 0x80, 0xC0, 0x100]
        _, [(_, single)] = sharp(num_tg=1).submit(make_task(0, outputs=addresses), 0.0)
        _, [(_, distributed)] = sharp(num_tg=8).submit(make_task(0, outputs=addresses), 0.0)
        assert distributed < single

    def test_ready_rate_improves_with_task_graphs(self):
        """Throughput experiment behind Figure 7: many independent
        4-parameter tasks drain faster with more task graphs."""

        def last_ready(num_tg):
            manager = sharp(num_tg=num_tg, frequency=100.0)
            accept, last = 0.0, 0.0
            for i in range(40):
                base = 0x40 * (1 + 4 * i)
                accept, ready = manager.submit(
                    make_task(i, outputs=[base, base + 0x40, base + 0x80, base + 0xC0]), accept
                )
                for _, ready_us in ready:
                    last = max(last, ready_us)
            return last

        assert last_ready(6) < last_ready(1)

    def test_lower_frequency_scales_latency(self):
        task = make_task(0, outputs=[0x40])
        _, [(_, fast)] = sharp(num_tg=2, frequency=100.0).submit(task, 0.0)
        _, [(_, slow)] = sharp(num_tg=2, frequency=50.0).submit(task, 0.0)
        assert slow == pytest.approx(2.0 * fast)

    def test_microbenchmark_cycle_count_near_paper(self):
        """Section IV-E: 5 independent 2-parameter tasks should complete in
        roughly 78 cycles with one task graph (well under the 172 cycles of
        the task-superscalar prototype)."""
        trace = generate_microbenchmark()
        manager = sharp(num_tg=1, frequency=100.0)
        accept, last = 0.0, 0.0
        for task in trace.tasks():
            accept, ready = manager.submit(task, accept)
            for _, ready_us in ready:
                last = max(last, ready_us)
        cycles = last * 100.0
        assert 40 <= cycles <= 110
        assert cycles < 172

    def test_tightly_coupled_timing_is_faster(self):
        task = make_task(0, outputs=[0x40, 0x80])
        _, [(_, full)] = sharp(num_tg=2, frequency=100.0).submit(task, 0.0)
        _, [(_, tight)] = NexusSharpManager(
            NexusSharpConfig(num_task_graphs=2, frequency_mhz=100.0, timing=NexusSharpTiming.tightly_coupled())
        ).submit(task, 0.0)
        assert tight < full
