"""Hypothesis-driven differential verification of the dynamic runtime.

Random :class:`~repro.workloads.fuzz.FuzzSpec` configurations are run
under the golden managers through both entry points (``Machine.run``
and ``Machine.run_stream``) of the one engine; every
example asserts the same invariants the pinned corpus pins
(``test_corpus.py``), so a failing example here is a new regression case
to add there.

The CI workflow selects the ``ci`` hypothesis profile (registered in
``tests/conftest.py``: derandomized, bounded examples, no deadline), so
these tests are exactly reproducible across CI runs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system.machine import Machine, MachineConfig
from repro.workloads.fuzz import FuzzSpec, fuzz_program

from golden_manager_factories import GOLDEN_TEST_MANAGERS


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


@given(spec=fuzz_specs(),
       cores=st.integers(min_value=1, max_value=6),
       manager_key=st.sampled_from(sorted(GOLDEN_TEST_MANAGERS)))
@settings(max_examples=30, deadline=None)
def test_differential_paths_and_invariants(spec, cores, manager_key):
    """run vs run_stream of a dynamic program must agree bit-for-bit."""
    factory = GOLDEN_TEST_MANAGERS[manager_key]
    program = fuzz_program(spec)

    compiled_machine = Machine(factory(), MachineConfig(num_cores=cores, validate=True))
    compiled = compiled_machine.run(program)

    dynamic_machine = Machine(factory(), MachineConfig(num_cores=cores, validate=True))
    dynamic = dynamic_machine.run_stream(program)

    assert compiled.makespan_us == dynamic.makespan_us
    assert compiled_machine.last_ready_order == dynamic_machine.last_ready_order
    assert compiled.start_times == dynamic.start_times
    assert compiled.finish_times == dynamic.finish_times
    assert compiled.num_tasks == program.metadata["num_tasks"]
    assert len(compiled.finish_times) == compiled.num_tasks
    # Work conservation: the busy time the cores report covers at least
    # the declared compute of every task (worker overhead may add more).
    assert compiled.core_busy_us >= compiled.total_work_us - 1e-6


@given(spec=fuzz_specs())
@settings(max_examples=15, deadline=None)
def test_elaboration_matches_dynamic_task_set(spec):
    """The serial elaboration spawns exactly the tasks the dynamic run does
    (ids differ — submission order vs depth-first — but counts, functions
    and parameter multisets must match)."""
    program = fuzz_program(spec)
    trace = program.elaborate()

    machine = Machine(GOLDEN_TEST_MANAGERS["ideal"](),
                      MachineConfig(num_cores=4, validate=True))
    result = machine.run(program)

    assert trace.num_tasks == result.num_tasks
    assert trace.functions()  # non-empty
    # Elaboration is itself deterministic: a second build is identical.
    elaborated_params = sorted(
        (task.function, tuple(sorted((p.address, p.direction.value) for p in task.params)))
        for task in trace.tasks())
    rerun_params = sorted(
        (task.function, tuple(sorted((p.address, p.direction.value) for p in task.params)))
        for task in fuzz_program(spec).elaborate().tasks())
    assert elaborated_params == rerun_params


@given(spec=fuzz_specs(), cores=st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_backpressure_preserves_invariants(spec, cores):
    """max_in_flight window stalls never starve or deadlock the run."""
    program = fuzz_program(spec)
    machine = Machine(GOLDEN_TEST_MANAGERS["nexussharp"](),
                      MachineConfig(num_cores=cores, validate=True))
    result = machine.run_dynamic(program, max_in_flight=3)
    assert result.num_tasks == program.metadata["num_tasks"]
    assert len(result.finish_times) == result.num_tasks
