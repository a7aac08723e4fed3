"""Hypothesis-driven kernel-vs-scalar differential verification.

Random :class:`~repro.workloads.fuzz.FuzzSpec` configurations are
elaborated to static traces and run through ``Machine.run`` (which
takes the fast kernel for all four golden managers, under every
built-in policy and topology) and the scalar reference
``Machine.run_scalar``, the general engine's stream replay.  The two
must agree **byte-for-byte** on the entire result: makespan, per-task
submit/ready/start/finish times, core assignments (the observable image
of the ready/dispatch order), manager statistics and per-core busy
accounting — and on the number of events processed.

The CI workflow selects the ``ci`` hypothesis profile (registered in
``tests/conftest.py``: derandomized, bounded examples, no deadline), so
these tests are exactly reproducible across CI runs.  A failing example
here is a new regression case to pin in ``batch_corpus.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.batch import LaneSpec, lane_fallback_reason, run_lanes
from repro.system.machine import Machine, MachineConfig
from repro.workloads.fuzz import FuzzSpec, fuzz_program

from batch_manager_factories import BATCH_TEST_MANAGERS, KERNEL_MANAGERS


@st.composite
def fuzz_specs(draw) -> FuzzSpec:
    """Random fuzzer configurations, bounded for test runtime."""
    return FuzzSpec(
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        max_depth=draw(st.integers(min_value=0, max_value=4)),
        max_children=draw(st.integers(min_value=0, max_value=4)),
        roots=draw(st.integers(min_value=1, max_value=6)),
        conflict_density=draw(st.floats(min_value=0.0, max_value=1.0)),
        inout_probability=draw(st.floats(min_value=0.0, max_value=1.0)),
        join_probability=draw(st.floats(min_value=0.0, max_value=1.0)),
        mid_taskwait_probability=draw(st.floats(min_value=0.0, max_value=0.5)),
        master_barrier_probability=draw(st.floats(min_value=0.0, max_value=1.0)),
        duration_range_us=(0.0, draw(st.floats(min_value=0.5, max_value=30.0))),
        max_tasks=draw(st.integers(min_value=8, max_value=150)),
        recurse_probability=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


def assert_identical(scalar, routed, context: str) -> None:
    """Field-wise byte-identity, with a readable message per field."""
    for field in (
        "makespan_us", "master_finish_us", "core_busy_us", "per_core_busy_us",
        "submit_times", "ready_times", "start_times", "finish_times",
        "task_cores", "manager_stats", "num_tasks", "total_work_us",
    ):
        assert getattr(scalar, field) == getattr(routed, field), (
            f"{context}: Machine.run {field} diverged from the scalar reference"
        )
    assert scalar == routed, f"{context}: full results differ"


@given(spec=fuzz_specs(),
       cores=st.integers(min_value=1, max_value=6),
       manager_key=st.sampled_from(sorted(BATCH_TEST_MANAGERS)),
       scheduler=st.sampled_from(["fifo", "sjf", "ljf", "locality"]),
       topology=st.sampled_from(["homogeneous", "biglittle:0.5", "biglittle:0.25"]))
@settings(max_examples=30, deadline=None)
def test_run_matches_scalar_reference(spec, cores, manager_key, scheduler, topology):
    """Machine.run == Machine.run_scalar, bit for bit, same event count."""
    factory = BATCH_TEST_MANAGERS[manager_key]
    trace = fuzz_program(spec).elaborate()
    config = MachineConfig(num_cores=cores, validate=True, scheduler=scheduler,
                           topology=topology)

    reference = Machine(factory(), config)
    routed = Machine(factory(), config)
    context = f"{manager_key}/{cores}c/{scheduler}/{topology} seed={spec.seed}"
    assert_identical(reference.run_scalar(trace), routed.run(trace), context)
    assert routed.last_events_processed == reference.last_events_processed, context


@given(spec=fuzz_specs(), cores=st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_kernel_managers_take_the_kernel(spec, cores):
    """Every manager's kernel must actually admit elaborated traces —
    otherwise the differential suite would silently test the scalar
    loop against itself."""
    trace = fuzz_program(spec).elaborate()
    config = MachineConfig(num_cores=cores)
    for manager_key in KERNEL_MANAGERS:
        machine = Machine(BATCH_TEST_MANAGERS[manager_key](), config)
        assert lane_fallback_reason(machine, trace) is None


@given(specs=st.lists(fuzz_specs(), min_size=2, max_size=5, unique_by=lambda s: s.seed),
       manager_key=st.sampled_from(sorted(BATCH_TEST_MANAGERS)))
@settings(max_examples=15, deadline=None)
def test_run_lanes_matches_solo_runs(specs, manager_key):
    """run_lanes over a mix of traces and core counts equals the solo
    scalar runs, lane by lane."""
    factory = BATCH_TEST_MANAGERS[manager_key]
    traces = [fuzz_program(spec).elaborate() for spec in specs]
    configs = [
        MachineConfig(num_cores=1 + (index % 4), validate=True)
        for index in range(len(traces))
    ]
    scalars = [
        Machine(factory(), config).run_scalar(trace)
        for trace, config in zip(traces, configs)
    ]
    lanes = run_lanes([
        LaneSpec(trace=trace, manager=factory(), config=config)
        for trace, config in zip(traces, configs)
    ])
    assert len(lanes) == len(scalars)
    for index, (scalar, lane) in enumerate(zip(scalars, lanes)):
        assert_identical(scalar, lane, f"{manager_key} lane {index}")
