"""Which runs ``Machine.run`` hands to the fast kernel, and which it must not.

The kernel replaces the manager's ``submit``/``finish`` and the FIFO
policy with inlined arithmetic, so routing a run there is only sound
when nothing the kernel does not model is in play.  These tests pin
both directions:

* a kernel-eligible run never calls the manager's ``submit`` (it took
  the kernel) — under every golden manager, Nexus++ on a ``taskwait
  on`` trace included, and under every built-in policy, on a
  ``biglittle:0.5`` topology and with sparse task ids, for a software
  and a hardware manager alike — while a run under a policy of its own
  does (it took the scalar loop);
* eligibility is not inherited past an override: a ``FifoPolicy``
  subclass, a policy that merely calls itself ``"fifo"``, and an
  ``IdealManager`` subclass with its own ``submit``/``finish`` all keep
  the scalar loop — and the override's effect shows in the result;
* every fallback names the rule that fired (``lane_fallback_reason``:
  four rules), and a stream or dynamic replay never reaches the kernel
  at all.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.managers.ideal import IdealManager
from repro.nexus.nexuspp import NexusPlusPlusManager
from repro.sim.batch import lane_fallback_reason
from repro.system.machine import Machine, MachineConfig
from repro.system.scheduling import FifoPolicy, SchedulerPolicy
from repro.trace.events import TaskSubmitEvent
from repro.trace.stream import TraceStream
from repro.trace.trace import Trace, TraceBuilder

from batch_manager_factories import BATCH_TEST_MANAGERS, KERNEL_MANAGERS


def _independent(count: int = 3) -> Trace:
    """``count`` independent tasks: on one core, every dispatch choice
    between queued ready tasks shows in the start times."""
    builder = TraceBuilder("independent")
    for index in range(count):
        builder.add_task(f"t{index}", duration_us=10.0 + index,
                         outputs=[0x1000 + 0x40 * index])
    builder.add_taskwait()
    return builder.build()


def _sparse_ids(trace: Trace) -> Trace:
    events = tuple(
        TaskSubmitEvent(event.task.with_id(3 * event.task.task_id + 7))
        if isinstance(event, TaskSubmitEvent) else event
        for event in trace.events
    )
    return Trace(name="sparse", events=events)


def _wait_on_trace() -> Trace:
    """``a`` (short) and ``b`` (long), then ``taskwait on`` a's output,
    then ``c``: c may be submitted as soon as a finishes, long before b."""
    builder = TraceBuilder("wait-on")
    builder.add_task("a", duration_us=10.0, outputs=[0x1000])
    builder.add_task("b", duration_us=100.0, outputs=[0x2000])
    builder.add_taskwait_on(0x1000)
    builder.add_task("c", duration_us=5.0, outputs=[0x3000])
    builder.add_taskwait()
    return builder.build()


def _count_submits(monkeypatch, cls) -> List[int]:
    """Spy on ``cls.submit`` at class level (as a layer probe would)."""
    calls: List[int] = []
    original = cls.submit

    def submit(self, task, time_us):
        calls.append(task.task_id)
        return original(self, task, time_us)

    monkeypatch.setattr(cls, "submit", submit)
    return calls


class TestRouting:
    @pytest.mark.parametrize("manager_key", KERNEL_MANAGERS)
    def test_eligible_run_never_calls_submit(self, manager_key, monkeypatch):
        manager = BATCH_TEST_MANAGERS[manager_key]()
        calls = _count_submits(monkeypatch, type(manager))
        machine = Machine(manager, MachineConfig(num_cores=2))
        trace = _independent()
        assert lane_fallback_reason(machine, trace) is None
        result = machine.run(trace)
        assert calls == []
        assert result == Machine(BATCH_TEST_MANAGERS[manager_key](),
                                 MachineConfig(num_cores=2)).run_scalar(trace)

    def test_kernel_honours_a_subclass_worker_overhead(self):
        class OverheadIdeal(IdealManager):
            worker_overhead_us = 2.0

        trace = _independent()
        config = MachineConfig(num_cores=2)
        machine = Machine(OverheadIdeal(), config)
        assert lane_fallback_reason(machine, trace) is None
        result = machine.run(trace)
        assert result == Machine(OverheadIdeal(), config).run_scalar(trace)
        assert result.makespan_us == Machine(IdealManager(), config).run(trace).makespan_us + 4.0

    @pytest.mark.parametrize("manager_key", ["ideal", "nexussharp"])
    @pytest.mark.parametrize("case", ["sjf", "ljf", "locality", "biglittle:0.5", "sparse-ids"])
    def test_policy_topology_and_sparse_ids_take_the_kernel(self, case, manager_key,
                                                            monkeypatch):
        trace = _independent()
        config = MachineConfig(num_cores=2)
        manager = BATCH_TEST_MANAGERS[manager_key]()
        calls = _count_submits(monkeypatch, type(manager))
        if case == "biglittle:0.5":
            config = MachineConfig(num_cores=2, topology="biglittle:0.5")
        elif case == "sparse-ids":
            trace = _sparse_ids(trace)
        else:
            config = MachineConfig(num_cores=2, scheduler=case)
        machine = Machine(manager, config)
        assert lane_fallback_reason(machine, trace) is None
        result = machine.run(trace)
        assert calls == []
        reference = Machine(BATCH_TEST_MANAGERS[manager_key](), config)
        assert result == reference.run_scalar(trace)
        assert machine.last_events_processed == reference.last_events_processed

    @pytest.mark.parametrize("manager_key", ["ideal", "nexussharp"])
    def test_run_under_an_own_policy_calls_submit(self, manager_key, monkeypatch):
        trace = _independent()
        manager = BATCH_TEST_MANAGERS[manager_key]()
        calls = _count_submits(monkeypatch, type(manager))
        machine = Machine(manager, MachineConfig(num_cores=2, scheduler=_LifoPolicy()))
        assert lane_fallback_reason(machine, trace) is not None
        machine.run(trace)
        assert len(calls) == trace.num_tasks


    @pytest.mark.parametrize("manager_key", KERNEL_MANAGERS)
    def test_explicit_unit_speed_topology_takes_the_kernel(self, manager_key, monkeypatch):
        """Eligibility reads the resolved core speeds, not the topology's
        spelling: an explicit all-1.0 speed list is still the kernel's."""
        manager = BATCH_TEST_MANAGERS[manager_key]()
        calls = _count_submits(monkeypatch, type(manager))
        config = MachineConfig(num_cores=2, topology="speeds:1,1")
        machine = Machine(manager, config)
        trace = _independent()
        assert lane_fallback_reason(machine, trace) is None
        result = machine.run(trace)
        assert calls == []
        assert result == Machine(BATCH_TEST_MANAGERS[manager_key](), config).run_scalar(trace)

    @pytest.mark.parametrize("manager_key", ["ideal", "nanos", "nexussharp"])
    def test_supported_taskwait_on_takes_the_kernel(self, manager_key, monkeypatch):
        manager = BATCH_TEST_MANAGERS[manager_key]()
        calls = _count_submits(monkeypatch, type(manager))
        config = MachineConfig(num_cores=2)
        machine = Machine(manager, config)
        trace = _wait_on_trace()
        assert lane_fallback_reason(machine, trace) is None
        result = machine.run(trace)
        assert calls == []
        reference = Machine(BATCH_TEST_MANAGERS[manager_key](), config)
        assert result == reference.run_scalar(trace)
        assert machine.last_events_processed == reference.last_events_processed
        assert result.submit_times[2] < result.finish_times[1]

    def test_nexuspp_degrades_taskwait_on_on_the_kernel(self, monkeypatch):
        """Nexus++ lacks ``taskwait on``: the kernel's master degrades it to
        a full ``taskwait`` exactly as the engine's does — c waits for b."""
        calls = _count_submits(monkeypatch, NexusPlusPlusManager)
        config = MachineConfig(num_cores=2)
        machine = Machine(BATCH_TEST_MANAGERS["nexuspp"](), config)
        trace = _wait_on_trace()
        assert lane_fallback_reason(machine, trace) is None
        result = machine.run(trace)
        assert calls == []
        reference = Machine(BATCH_TEST_MANAGERS["nexuspp"](), config)
        assert result == reference.run_scalar(trace)
        assert machine.last_events_processed == reference.last_events_processed
        assert result.submit_times[2] >= result.finish_times[1]

    @pytest.mark.parametrize("manager_key", KERNEL_MANAGERS)
    def test_stream_replay_never_takes_the_kernel(self, manager_key, monkeypatch):
        manager = BATCH_TEST_MANAGERS[manager_key]()
        calls = _count_submits(monkeypatch, type(manager))
        trace = _independent()
        config = MachineConfig(num_cores=2)
        result = Machine(manager, config).run_stream(trace)
        assert len(calls) == trace.num_tasks
        assert result.makespan_us == Machine(
            BATCH_TEST_MANAGERS[manager_key](), config).run(trace).makespan_us


class _LifoPolicy(FifoPolicy):
    """A FIFO subclass that dispatches the newest ready task first."""

    def select(self, core: int, now: float) -> Optional[int]:
        return self._queue.pop() if self._queue else None


class _LifoNamedFifo(SchedulerPolicy):
    """Not a FifoPolicy at all, but it calls itself "fifo"."""

    name = "fifo"
    wants_start_events = True

    def __init__(self) -> None:
        self._stack: List[int] = []
        self.started: List[int] = []

    def reset(self) -> None:
        self._stack.clear()
        self.started.clear()

    def enqueue(self, task_id, duration_us, function, now) -> None:
        self._stack.append(task_id)

    def select(self, core, now) -> Optional[int]:
        return self._stack.pop() if self._stack else None

    def __len__(self) -> int:
        return len(self._stack)

    def on_start(self, task_id, function, core, now) -> None:
        self.started.append(task_id)


class TestOverridesKeepTheScalarLoop:
    def _fifo_start_order(self, trace):
        result = Machine(IdealManager(), MachineConfig(num_cores=1)).run(trace)
        return sorted(result.start_times, key=result.start_times.get)

    def test_fifo_policy_subclass(self):
        trace = _independent()
        machine = Machine(IdealManager(), MachineConfig(num_cores=1, scheduler=_LifoPolicy()))
        assert lane_fallback_reason(machine, trace) is not None
        result = machine.run(trace)
        order = sorted(result.start_times, key=result.start_times.get)
        assert self._fifo_start_order(trace) == [0, 1, 2]
        assert order == [0, 2, 1]

    def test_policy_named_fifo(self):
        trace = _independent()
        policy = _LifoNamedFifo()
        machine = Machine(IdealManager(), MachineConfig(num_cores=1, scheduler=policy))
        assert lane_fallback_reason(machine, trace) is not None
        result = machine.run(trace)
        assert result.scheduler == "fifo"
        assert policy.started == [0, 2, 1]
        assert sorted(result.start_times, key=result.start_times.get) == [0, 2, 1]

    def test_manager_subclass_overriding_submit(self):
        class SlowSubmitIdeal(IdealManager):
            def submit(self, task, time_us):
                _, ready = super().submit(task, time_us)
                return time_us + 5.0, ready

        trace = _independent()
        config = MachineConfig(num_cores=4)
        machine = Machine(SlowSubmitIdeal(), config)
        assert lane_fallback_reason(machine, trace) is not None
        plain = Machine(IdealManager(), config).run(trace)
        slow = machine.run(trace)
        assert [slow.submit_times[t] for t in range(3)] == [0.0, 5.0, 10.0]
        assert slow.makespan_us > plain.makespan_us

    def test_manager_subclass_overriding_finish(self):
        class SlowWakeIdeal(IdealManager):
            def finish(self, task_id, time_us):
                ready, notify_done_us = super().finish(task_id, time_us)
                return tuple((task_id, ready_us + 3.0) for task_id, ready_us in ready), notify_done_us

        builder = TraceBuilder("chain")
        builder.add_task("a", duration_us=10.0, outputs=[0x1000])
        builder.add_task("b", duration_us=10.0, inputs=[0x1000])
        trace = builder.build()
        config = MachineConfig(num_cores=1)
        machine = Machine(SlowWakeIdeal(), config)
        assert lane_fallback_reason(machine, trace) is not None
        assert Machine(IdealManager(), config).run(trace).makespan_us == 20.0
        assert machine.run(trace).makespan_us == 23.0

    def test_instance_rebinding_submit(self):
        manager = IdealManager()
        manager.submit = manager.submit  # an instance-level rebinding
        assert lane_fallback_reason(Machine(manager, MachineConfig(num_cores=1)),
                                    _independent()) is not None

    def test_manager_subclass_overriding_statistics(self):
        class CountingIdeal(IdealManager):
            def statistics(self):
                return {**super().statistics(), "audited": True}

        trace = _independent()
        machine = Machine(CountingIdeal(), MachineConfig(num_cores=2))
        assert lane_fallback_reason(machine, trace) is not None
        assert machine.run(trace).manager_stats["audited"] is True

    def test_manager_without_taskwait_on_support(self):
        """A kernel manager that declines ``taskwait on`` keeps the kernel,
        whose master degrades it to a full ``taskwait`` as the engine's
        does: c now waits for b too."""
        class NoWaitOnIdeal(IdealManager):
            supports_taskwait_on = False

        trace = _wait_on_trace()
        config = MachineConfig(num_cores=2)
        machine = Machine(NoWaitOnIdeal(), config)
        assert lane_fallback_reason(machine, trace) is None
        degraded = machine.run(trace)
        assert degraded == Machine(NoWaitOnIdeal(), config).run_scalar(trace)
        plain = Machine(IdealManager(), config).run(trace)
        assert plain.submit_times[2] < plain.finish_times[1]
        assert degraded.submit_times[2] >= degraded.finish_times[1]


class _NoKernelIdeal(IdealManager):
    def lane_kernel(self):
        return None


class _SubmitOverride(IdealManager):
    def submit(self, task, time_us):
        return super().submit(task, time_us)


class _FinishOverride(IdealManager):
    def finish(self, task_id, time_us):
        return super().finish(task_id, time_us)


class _StatisticsOverride(IdealManager):
    def statistics(self):
        return super().statistics()


def _rebound_ideal() -> IdealManager:
    manager = IdealManager()
    manager.finish = manager.finish
    return manager


def _stream_of(trace: Trace) -> TraceStream:
    return TraceStream(trace.name, lambda: iter(trace.events))


#: case -> (manager factory, MachineConfig overrides, trace transform, reason)
_FALLBACKS = {
    "stream-source": (IdealManager, {}, _stream_of, "not a materialised static trace"),
    "no-kernel": (_NoKernelIdeal, {}, None, "publishes no lane kernel"),
    "submit-override": (_SubmitOverride, {}, None, "overrides methods"),
    "finish-override": (_FinishOverride, {}, None, "overrides methods"),
    "statistics-override": (_StatisticsOverride, {}, None, "overrides methods"),
    "instance-rebinding": (_rebound_ideal, {}, None, "overrides methods"),
    "fifo-subclass": (IdealManager, {"scheduler": _LifoPolicy()}, None,
                      "not a built-in policy"),
    "named-fifo": (IdealManager, {"scheduler": _LifoNamedFifo()}, None,
                   "not a built-in policy"),
}


@pytest.mark.parametrize("case", list(_FALLBACKS))
def test_fallback_names_the_rule_that_fired(case):
    factory, overrides, transform, reason = _FALLBACKS[case]
    machine = Machine(factory(), MachineConfig(num_cores=2, **overrides))
    trace = _independent() if transform is None else transform(_independent())
    assert reason in lane_fallback_reason(machine, trace)

