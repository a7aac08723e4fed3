"""Tests for the Nexus++ centralised hardware manager model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.nexus.nexuspp import NexusPlusPlusConfig, NexusPlusPlusManager
from repro.trace.task import TaskDescriptor

from task_params import make_params


def make_task(task_id, inputs=(), outputs=(), duration=10.0):
    return TaskDescriptor(
        task_id=task_id,
        function="f",
        params=make_params(inputs=inputs, outputs=outputs),
        duration_us=duration,
    )


class TestBasicBehaviour:
    def test_does_not_support_taskwait_on(self):
        assert NexusPlusPlusManager().supports_taskwait_on is False

    def test_independent_task_reported_ready(self):
        manager = NexusPlusPlusManager()
        _, ready = manager.submit(make_task(0, outputs=[0x40]), 0.0)
        assert len(ready) == 1
        assert ready[0][0] == 0
        assert ready[0][1] > 0.0

    def test_dependent_task_released_after_finish(self):
        manager = NexusPlusPlusManager()
        manager.submit(make_task(0, outputs=[0x40]), 0.0)
        _, ready = manager.submit(make_task(1, inputs=[0x40]), 0.0)
        assert ready == ()
        ready, _ = manager.finish(0, 100.0)
        assert [task_id for task_id, _ in ready] == [1]
        assert ready[0][1] > 100.0

    def test_accept_time_reflects_input_parser_occupancy(self):
        config = NexusPlusPlusConfig(frequency_mhz=100.0)
        manager = NexusPlusPlusManager(config)
        accept_us, _ = manager.submit(make_task(0, outputs=[0x40, 0x80, 0xC0, 0x100]), 0.0)
        # 4-parameter task: 12 input cycles at 100 MHz = 0.12 µs.
        assert accept_us == pytest.approx(0.12)

    def test_submissions_serialise_on_the_input_parser(self):
        manager = NexusPlusPlusManager()
        first, _ = manager.submit(make_task(0, outputs=[0x40]), 0.0)
        second, _ = manager.submit(make_task(1, outputs=[0x80]), 0.0)
        assert second > first

    def test_ready_latency_matches_pipeline_sum(self):
        config = NexusPlusPlusConfig(frequency_mhz=100.0, fifo_latency_cycles=3)
        manager = NexusPlusPlusManager(config)
        _, ready = manager.submit(make_task(0, outputs=[0x40, 0x80, 0xC0, 0x100]), 0.0)
        # input 12 + fifo 3 + insert 18 + fifo 3 + write-back 3 = 39 cycles.
        assert ready[0][1] == pytest.approx(0.39)

    def test_lower_frequency_scales_latency(self):
        fast = NexusPlusPlusManager(NexusPlusPlusConfig(frequency_mhz=100.0))
        slow = NexusPlusPlusManager(NexusPlusPlusConfig(frequency_mhz=50.0))
        task = make_task(0, outputs=[0x40])
        _, ready_fast = fast.submit(task, 0.0)
        _, ready_slow = slow.submit(task, 0.0)
        assert ready_slow[0][1] == pytest.approx(2.0 * ready_fast[0][1])

    def test_reset_clears_pipeline_state(self):
        manager = NexusPlusPlusManager()
        manager.submit(make_task(0, outputs=[0x40]), 0.0)
        manager.finish(0, 50.0)
        manager.reset()
        accept_us, _ = manager.submit(make_task(0, outputs=[0x40]), 0.0)
        fresh_us, _ = NexusPlusPlusManager().submit(make_task(0, outputs=[0x40]), 0.0)
        assert accept_us == pytest.approx(fresh_us)

    def test_statistics_exposed(self):
        manager = NexusPlusPlusManager()
        manager.submit(make_task(0, outputs=[0x40]), 0.0)
        manager.finish(0, 10.0)
        stats = manager.statistics()
        assert stats["tasks_inserted"] == 1
        assert stats["tasks_finished"] == 1
        assert stats["input_parser_busy_us"] > 0
        assert stats["mean_ready_latency_us"] > 0

    def test_describe(self):
        description = NexusPlusPlusManager().describe()
        assert description["name"] == "Nexus++"
        assert description["supports_taskwait_on"] is False

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            NexusPlusPlusConfig(frequency_mhz=0.0)


class TestThroughput:
    def test_back_to_back_ready_tasks_spaced_by_insert_stage(self):
        """Submitting many independent tasks, the ready-task rate is bound
        by the Insert stage (the longest pipeline stage), as in Figure 1."""
        config = NexusPlusPlusConfig(frequency_mhz=100.0)
        manager = NexusPlusPlusManager(config)
        ready_times = []
        accept = 0.0
        for i in range(20):
            accept, ready = manager.submit(make_task(i, outputs=[0x40 * (i + 1) * 7]), accept)
            ready_times.extend(time_us for _, time_us in ready)
        gaps = [b - a for a, b in zip(ready_times, ready_times[1:])]
        insert_stage_us = config.timing.insert_cycles(1) / config.frequency_mhz
        # Steady-state spacing equals the dominant stage occupancy.
        assert gaps[-1] == pytest.approx(insert_stage_us, rel=0.35)
