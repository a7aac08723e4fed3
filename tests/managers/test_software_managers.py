"""Tests for the Ideal, Nanos and Vandierendonck manager models."""

import pytest

from repro.managers.ideal import IdealManager
from repro.managers.nanos import NanosConfig, NanosManager
from repro.managers.software import VandierendonckConfig, VandierendonckManager
from repro.common.errors import ConfigurationError
from repro.trace.task import TaskDescriptor

from task_params import make_params


def make_task(task_id, inputs=(), outputs=(), duration=10.0):
    return TaskDescriptor(
        task_id=task_id,
        function="f",
        params=make_params(inputs=inputs, outputs=outputs),
        duration_us=duration,
    )


class TestIdealManager:
    def test_zero_cost_submission(self):
        manager = IdealManager()
        accept_us, ready = manager.submit(make_task(0, outputs=[0x40]), 5.0)
        assert accept_us == 5.0
        assert ready[0][1] == 5.0

    def test_zero_cost_release(self):
        manager = IdealManager()
        manager.submit(make_task(0, outputs=[0x40]), 0.0)
        manager.submit(make_task(1, inputs=[0x40]), 0.0)
        ready, _ = manager.finish(0, 42.0)
        assert ready[0][1] == 42.0

    def test_no_worker_overhead(self):
        assert IdealManager().worker_overhead_us == 0.0

    def test_supports_taskwait_on(self):
        assert IdealManager().supports_taskwait_on is True

    def test_statistics(self):
        manager = IdealManager()
        manager.submit(make_task(0, outputs=[0x40]), 0.0)
        manager.finish(0, 1.0)
        stats = manager.statistics()
        assert stats["tasks_inserted"] == 1
        assert stats["tasks_finished"] == 1

    def test_reset(self):
        manager = IdealManager()
        manager.submit(make_task(0, outputs=[0x40]), 0.0)
        manager.reset()
        # Same task id can be submitted again after a reset.
        _, ready = manager.submit(make_task(0, outputs=[0x40]), 0.0)
        assert ready[0][0] == 0


class TestNanosManager:
    def test_submission_costs_master_time(self):
        manager = NanosManager()
        accept_us, _ = manager.submit(make_task(0, outputs=[0x40]), 0.0)
        assert accept_us > 0.0

    def test_creation_cost_grows_with_parameters(self):
        manager = NanosManager()
        one, _ = manager.submit(make_task(0, outputs=[0x40]), 0.0)
        manager.reset()
        many, _ = manager.submit(make_task(0, outputs=[0x40, 0x80, 0xC0, 0x100]), 0.0)
        assert many > one

    def test_release_pays_lock_cost(self):
        manager = NanosManager()
        manager.submit(make_task(0, outputs=[0x40]), 0.0)
        manager.submit(make_task(1, inputs=[0x40]), 0.0)
        ready, _ = manager.finish(0, 100.0)
        assert ready[0][1] > 100.0

    def test_lock_contention_serialises_finishes(self):
        manager = NanosManager()
        for i in range(4):
            manager.submit(make_task(i, outputs=[0x40 * (i + 1)]), 0.0)
        ends = [notify_done_us for _, notify_done_us in (manager.finish(i, 200.0)
                                                         for i in range(4))]
        assert ends == sorted(ends)
        assert len(set(ends)) == 4  # strictly serialised

    def test_worker_overhead_positive(self):
        assert NanosManager().worker_overhead_us > 0.0

    def test_custom_config(self):
        config = NanosConfig(task_creation_us=0.0, creation_per_param_us=0.0,
                             insert_lock_us=0.0, insert_lock_per_param_us=0.0,
                             finish_lock_us=0.0, wakeup_per_task_us=0.0,
                             worker_dispatch_us=0.0)
        manager = NanosManager(config)
        accept_us, _ = manager.submit(make_task(0, outputs=[0x40]), 3.0)
        assert accept_us == pytest.approx(3.0)

    def test_negative_config_rejected(self):
        with pytest.raises(ConfigurationError):
            NanosConfig(task_creation_us=-1.0)

    def test_statistics_include_lock(self):
        manager = NanosManager()
        manager.submit(make_task(0, outputs=[0x40]), 0.0)
        manager.finish(0, 10.0)
        assert manager.statistics()["lock_busy_us"] > 0.0

    def test_describe_includes_config(self):
        assert "config" in NanosManager().describe()


class TestVandierendonckManager:
    def test_fixed_insert_cost(self):
        manager = VandierendonckManager()
        accept_us, _ = manager.submit(make_task(0, outputs=[0x40]), 0.0)
        assert accept_us == pytest.approx(0.2)

    def test_cost_independent_of_parameters(self):
        manager = VandierendonckManager()
        one, _ = manager.submit(make_task(0, outputs=[0x40]), 0.0)
        manager.reset()
        many, _ = manager.submit(make_task(0, outputs=[0x40, 0x80, 0xC0]), 0.0)
        assert many == pytest.approx(one)

    def test_cheaper_than_nanos(self):
        task = make_task(0, outputs=[0x40, 0x80])
        sw, _ = VandierendonckManager().submit(task, 0.0)
        nanos, _ = NanosManager().submit(task, 0.0)
        assert sw < nanos

    def test_release(self):
        manager = VandierendonckManager()
        manager.submit(make_task(0, outputs=[0x40]), 0.0)
        manager.submit(make_task(1, inputs=[0x40]), 0.0)
        ready, _ = manager.finish(0, 50.0)
        assert [task_id for task_id, _ in ready] == [1]

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            VandierendonckConfig(insert_us=-0.1)
