"""Golden regression tests of the dynamic (insert-while-running) runtime.

Pins, for every recursive golden program and every golden manager:

* the **exact makespan** of the dynamic run (tasks spawned at runtime);
* the **digest of the serial elaboration** against the committed
  ``dyn_<key>.json.gz`` trace;
* bit-identical results between the ``Machine.run`` and
  ``Machine.run_stream`` entry points of the engine.

Like the static golden suite, any diff here is a change to the simulated
science: regenerate via ``tests/golden/regenerate.py`` and justify it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.system.machine import Machine, MachineConfig
from repro.trace.serialization import load_trace, trace_digest

from golden_config import GOLDEN_MANAGERS, golden_dynamic_programs

GOLDEN_DIR = Path(__file__).parent
DATA_DIR = GOLDEN_DIR / "data"
EXPECTED = json.loads((GOLDEN_DIR / "expected_makespans.json").read_text(encoding="utf-8"))

DYNAMIC_KEYS = sorted(EXPECTED["dynamic"])
MANAGER_KEYS = list(GOLDEN_MANAGERS)
CORES = EXPECTED["cores"]


@pytest.fixture(scope="module")
def programs():
    return golden_dynamic_programs()


@pytest.mark.parametrize("key", DYNAMIC_KEYS)
def test_all_dynamic_programs_are_pinned(key, programs):
    assert key in programs, f"expected_makespans.json pins unknown program {key!r}"


def test_every_program_is_pinned(programs):
    assert sorted(programs) == DYNAMIC_KEYS


@pytest.mark.parametrize("key", DYNAMIC_KEYS)
def test_committed_elaboration_matches_generator(key, programs):
    committed = load_trace(DATA_DIR / f"dyn_{key}.json.gz")
    fresh = programs[key].elaborate()
    assert trace_digest(committed) == trace_digest(fresh)
    assert trace_digest(fresh) == EXPECTED["dynamic"][key]["elaboration_digest"]
    assert committed.num_tasks == EXPECTED["dynamic"][key]["num_tasks"]


@pytest.mark.parametrize("manager_key", MANAGER_KEYS)
@pytest.mark.parametrize("key", DYNAMIC_KEYS)
def test_dynamic_makespans_exact(key, manager_key, programs):
    expected = EXPECTED["dynamic"][key]["makespans_us"][manager_key]
    machine = Machine(GOLDEN_MANAGERS[manager_key](),
                      MachineConfig(num_cores=CORES, validate=True))
    result = machine.run(programs[key])
    assert result.makespan_us == expected, (
        f"{key} under {manager_key}: makespan {result.makespan_us!r} != "
        f"golden {expected!r} — if intentional, regenerate the goldens"
    )


@pytest.mark.parametrize("manager_key", MANAGER_KEYS)
@pytest.mark.parametrize("key", DYNAMIC_KEYS)
def test_run_and_run_stream_paths_identical(key, manager_key, programs):
    """Acceptance invariant: both entry points agree exactly."""
    factory = GOLDEN_MANAGERS[manager_key]
    compiled_machine = Machine(factory(), MachineConfig(num_cores=CORES))
    compiled = compiled_machine.run(programs[key])
    dynamic_machine = Machine(factory(), MachineConfig(num_cores=CORES))
    dynamic = dynamic_machine.run_stream(programs[key])
    assert compiled.makespan_us == dynamic.makespan_us
    assert compiled_machine.last_ready_order == dynamic_machine.last_ready_order
    assert compiled.makespan_us == EXPECTED["dynamic"][key]["makespans_us"][manager_key]
