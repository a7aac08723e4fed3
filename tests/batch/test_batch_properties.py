"""Structural properties of the fast kernel: edge cases and memory.

Beyond the differential suite (which checks *equivalence*), these tests
pin down the kernel's contract:

* **straggler isolation** — a lane that finishes almost immediately, or
  one that runs an order of magnitude longer than its siblings, must not
  perturb any other lane's result in :func:`~repro.sim.batch.run_lanes`
  relative to a solo scalar run (the kernel and the cached lane programs
  share no state between lanes);
* **edge cases** — empty ``run_lanes`` calls, zero-task traces and
  single-task traces go through the same code paths without
  special-casing;
* **memory discipline** — ``keep_schedule=False`` kernel runs must never
  allocate timelines (that is the whole point of the flag on very large
  sweeps).
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch_module
from repro.sim.batch import LaneSpec, run_lanes
from repro.system.machine import Machine, MachineConfig
from repro.trace.trace import TraceBuilder
from repro.workloads.fuzz import FuzzSpec, fuzz_program

from batch_manager_factories import BATCH_TEST_MANAGERS, KERNEL_MANAGERS


def _spec(seed: int, *, duration_scale: float = 1.0) -> FuzzSpec:
    return FuzzSpec(
        seed=seed,
        max_depth=2,
        max_children=3,
        roots=4,
        conflict_density=0.4,
        duration_range_us=(0.0, 30.0 * duration_scale),
        max_tasks=80,
    )


def _trace(spec: FuzzSpec):
    return fuzz_program(spec).elaborate()


# ---------------------------------------------------------------------------
# Straggler isolation
# ---------------------------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       manager_key=st.sampled_from(sorted(BATCH_TEST_MANAGERS)))
@settings(max_examples=10, deadline=None)
def test_long_straggler_does_not_perturb_siblings(seed, manager_key):
    """One lane with 10x-longer tasks between two short ones: every lane
    equals its own solo scalar run exactly."""
    factory = BATCH_TEST_MANAGERS[manager_key]
    siblings = [_trace(_spec(seed)), _trace(_spec(seed ^ 0x5A5A5A))]
    straggler = _trace(_spec(seed, duration_scale=10.0))
    config = MachineConfig(num_cores=4, validate=True)

    solo = [Machine(factory(), config).run_scalar(trace) for trace in siblings]
    lanes = run_lanes([
        LaneSpec(trace=siblings[0], manager=factory(), config=config),
        LaneSpec(trace=straggler, manager=factory(), config=config),
        LaneSpec(trace=siblings[1], manager=factory(), config=config),
    ])
    assert lanes[0] == solo[0]
    assert lanes[2] == solo[1]
    # And the straggler itself equals its own solo run.
    assert lanes[1] == Machine(factory(), config).run_scalar(straggler)


@pytest.mark.parametrize("manager_key", sorted(BATCH_TEST_MANAGERS))
def test_early_finisher_does_not_perturb_siblings(manager_key):
    """A one-task lane ahead of two long lanes leaves them bit-identical
    to their solo scalar runs."""
    factory = BATCH_TEST_MANAGERS[manager_key]
    quick = TraceBuilder("quick")
    quick.add_task("only", duration_us=0.25, outputs=[0x10])
    quick_trace = quick.build()
    long_traces = [_trace(_spec(77)), _trace(_spec(78))]
    config = MachineConfig(num_cores=3, validate=True)

    solo = [Machine(factory(), config).run_scalar(trace) for trace in long_traces]
    lanes = run_lanes(
        [LaneSpec(trace=quick_trace, manager=factory(), config=config)]
        + [LaneSpec(trace=t, manager=factory(), config=config) for t in long_traces]
    )
    assert lanes[1] == solo[0]
    assert lanes[2] == solo[1]
    assert lanes[0] == Machine(factory(), config).run_scalar(quick_trace)


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

def test_empty_run_lanes_returns_empty_list():
    assert run_lanes([]) == []


@pytest.mark.parametrize("manager_key", sorted(BATCH_TEST_MANAGERS))
def test_zero_task_trace_matches_scalar(manager_key):
    factory = BATCH_TEST_MANAGERS[manager_key]
    trace = TraceBuilder("empty").build()
    config = MachineConfig(num_cores=2)

    scalar = Machine(factory(), config).run_scalar(trace)
    routed = Machine(factory(), config).run(trace)
    assert routed == scalar
    assert routed.makespan_us == 0.0


@pytest.mark.parametrize("manager_key", sorted(BATCH_TEST_MANAGERS))
def test_single_task_trace_matches_scalar(manager_key):
    factory = BATCH_TEST_MANAGERS[manager_key]
    builder = TraceBuilder("single")
    builder.add_task("t0", duration_us=5.0, outputs=[0x10])
    trace = builder.build()
    config = MachineConfig(num_cores=1, validate=True)

    scalar = Machine(factory(), config).run_scalar(trace)
    routed = Machine(factory(), config).run(trace)
    assert routed == scalar


# ---------------------------------------------------------------------------
# Memory discipline: keep_schedule=False must not build timelines
# ---------------------------------------------------------------------------

class _ForbiddenTimeline:
    """Stands in for TaskTimeline when no run may materialize one."""

    @staticmethod
    def from_columns(*args, **kwargs):
        raise AssertionError(
            "keep_schedule=False kernel run built a TaskTimeline — the "
            "kernel must skip schedule collection entirely"
        )


@pytest.mark.parametrize("manager_key", KERNEL_MANAGERS)
def test_keep_schedule_false_allocates_no_timelines(manager_key, monkeypatch):
    factory = BATCH_TEST_MANAGERS[manager_key]
    traces = [_trace(_spec(s)) for s in (301, 302, 303)]
    config = MachineConfig(num_cores=4, keep_schedule=False)

    reference = [Machine(factory(), config).run_scalar(trace) for trace in traces]

    monkeypatch.setattr(batch_module, "TaskTimeline", _ForbiddenTimeline)
    routed = [Machine(factory(), config).run(trace) for trace in traces]

    assert routed == reference
    for result in routed:
        assert result.start_times == {}
        assert result.finish_times == {}
        assert result.task_cores == {}
