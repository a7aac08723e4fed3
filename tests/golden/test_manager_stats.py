"""Golden regression test of every manager's run statistics.

The makespan goldens pin *when* a run ends; this suite pins what the
manager reports about it: the ``manager_stats`` of every JSONL row
(``task_graph_busy_us``, ``set_conflicts``, ``arbiter_busy_us``,
``mean_ready_latency_us``, ...).  Each committed golden trace and each
dynamic program is replayed under the four golden managers and its
``statistics()`` compared *exactly*, floats by ``repr``, against
``expected_manager_stats.json``.  A diff is a change to the simulated
science: regenerate via ``tests/golden/regenerate.py`` and justify it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.system.machine import Machine, MachineConfig, simulate
from repro.trace.serialization import load_trace

from golden_config import GOLDEN_MANAGERS, golden_dynamic_programs, golden_traces
from regenerate import pin_stats

GOLDEN_DIR = Path(__file__).parent
DATA_DIR = GOLDEN_DIR / "data"
EXPECTED = json.loads(
    (GOLDEN_DIR / "expected_manager_stats.json").read_text(encoding="utf-8"))
MANAGER_KEYS = list(GOLDEN_MANAGERS)


def test_stats_file_covers_every_golden_and_manager():
    assert sorted(EXPECTED["traces"]) == sorted(golden_traces())
    assert sorted(EXPECTED["dynamic"]) == sorted(golden_dynamic_programs())
    for section in ("traces", "dynamic"):
        for key, per_manager in EXPECTED[section].items():
            assert sorted(per_manager) == sorted(MANAGER_KEYS), (section, key)


@pytest.mark.parametrize("manager_key", MANAGER_KEYS)
@pytest.mark.parametrize("key", sorted(EXPECTED["traces"]))
def test_static_manager_stats_exact(key, manager_key):
    trace = load_trace(DATA_DIR / f"{key}.json.gz")
    result = simulate(trace, GOLDEN_MANAGERS[manager_key](),
                      num_cores=EXPECTED["cores"], validate=True)
    assert pin_stats(dict(result.manager_stats)) == EXPECTED["traces"][key][manager_key]


@pytest.mark.parametrize("manager_key", MANAGER_KEYS)
@pytest.mark.parametrize("key", sorted(EXPECTED["dynamic"]))
def test_dynamic_manager_stats_exact(key, manager_key):
    program = golden_dynamic_programs()[key]
    machine = Machine(GOLDEN_MANAGERS[manager_key](),
                      MachineConfig(num_cores=EXPECTED["cores"], validate=True))
    result = machine.run(program)
    assert pin_stats(dict(result.manager_stats)) == EXPECTED["dynamic"][key][manager_key]
