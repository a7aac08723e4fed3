"""Replay the pinned fuzz corpus — the hypothesis-free regression layer.

Every corpus spec runs under all four golden managers through **both**
entry points of the dynamic engine (``Machine.run`` and
``Machine.run_stream``), asserting the acceptance invariants of the
dynamic runtime:

* byte-identical makespans and ready orders between the two entry points;
* schedules that respect every address dependency
  (``validate_schedule`` on the recorded submission order);
* no starvation: every task the program spawns also finishes;
* exact determinism across repeated runs.
"""

from __future__ import annotations

import pytest

from repro.system.machine import Machine, MachineConfig
from repro.workloads.fuzz import fuzz_program

from fuzz_corpus import CORPUS
from golden_manager_factories import GOLDEN_TEST_MANAGERS

CORPUS_IDS = [f"seed{spec.seed}" for spec in CORPUS]
MANAGER_IDS = list(GOLDEN_TEST_MANAGERS)


@pytest.mark.parametrize("spec", CORPUS, ids=CORPUS_IDS)
@pytest.mark.parametrize("manager_key", MANAGER_IDS)
def test_corpus_differential(spec, manager_key):
    factory = GOLDEN_TEST_MANAGERS[manager_key]
    program = fuzz_program(spec)

    compiled_machine = Machine(factory(), MachineConfig(num_cores=4, validate=True))
    compiled = compiled_machine.run(program)

    dynamic_machine = Machine(factory(), MachineConfig(num_cores=4, validate=True))
    dynamic = dynamic_machine.run_stream(program)

    # The two entry points must be byte-identical.
    assert compiled.makespan_us == dynamic.makespan_us
    assert compiled_machine.last_ready_order == dynamic_machine.last_ready_order
    assert compiled.start_times == dynamic.start_times
    assert compiled.finish_times == dynamic.finish_times

    # No starvation: everything the program spawns also finishes.
    assert compiled.num_tasks == program.metadata["num_tasks"]
    assert len(compiled.finish_times) == compiled.num_tasks


@pytest.mark.parametrize("spec", CORPUS, ids=CORPUS_IDS)
def test_corpus_replays_are_exactly_deterministic(spec):
    factory = GOLDEN_TEST_MANAGERS["nexussharp"]
    results = []
    orders = []
    for _ in range(2):
        machine = Machine(factory(), MachineConfig(num_cores=4))
        results.append(machine.run(fuzz_program(spec)))
        orders.append(machine.last_ready_order)
    assert results[0].makespan_us == results[1].makespan_us
    assert results[0].manager_stats == results[1].manager_stats
    assert orders[0] == orders[1]


@pytest.mark.parametrize("spec", CORPUS, ids=CORPUS_IDS)
def test_corpus_elaborations_replay_statically(spec):
    """The serial elaboration is a valid static trace of the same tasks."""
    from repro.system.machine import simulate

    program = fuzz_program(spec)
    trace = program.elaborate()
    assert trace.num_tasks == program.metadata["num_tasks"]
    result = simulate(trace, GOLDEN_TEST_MANAGERS["nexuspp"](), num_cores=4, validate=True)
    assert result.num_tasks == trace.num_tasks


@pytest.mark.parametrize("spec", CORPUS[:3], ids=CORPUS_IDS[:3])
@pytest.mark.parametrize("scheduler", ["fifo", "sjf", "locality"])
def test_corpus_under_alternative_schedulers(spec, scheduler):
    """Dynamic dispatch honours pluggable policies without starvation."""
    factory = GOLDEN_TEST_MANAGERS["ideal"]
    machine = Machine(factory(), MachineConfig(num_cores=2, validate=True,
                                               scheduler=scheduler))
    result = machine.run(fuzz_program(spec))
    assert result.num_tasks == fuzz_program(spec).metadata["num_tasks"]
    assert result.scheduler == scheduler
