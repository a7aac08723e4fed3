"""Kernel-vs-scalar golden equivalence.

``Machine.run`` replays the runs of all four golden managers on the
fast kernel (:func:`repro.sim.batch.run_kernel`); it must reproduce the
committed golden makespans **byte-identically**.  Every committed golden
trace is replayed under each golden manager through both
``Machine.run``, which must take the kernel, and the scalar reference
``Machine.run_scalar``, the general engine: the full results must be
equal, both must match the committed makespan, and both must report the
same ``last_events_processed``.  A sweep-shaped mixed cell
(different seeds and core counts per lane) is checked through
:func:`repro.sim.batch.run_lanes` lane by lane against solo scalar runs.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.sim.batch import LaneSpec, lane_fallback_reason, run_lanes
from repro.system.machine import Machine, MachineConfig
from repro.trace.serialization import load_trace
from repro.workloads.sparselu import generate_sparselu

from golden_config import GOLDEN_MANAGERS, GOLDEN_SEED

GOLDEN_DIR = Path(__file__).parent
DATA_DIR = GOLDEN_DIR / "data"
EXPECTED = json.loads((GOLDEN_DIR / "expected_makespans.json").read_text(encoding="utf-8"))

TRACE_KEYS = sorted(EXPECTED["traces"])
MANAGER_KEYS = list(GOLDEN_MANAGERS)


@lru_cache(maxsize=None)
def _golden_trace(key: str):
    return load_trace(DATA_DIR / f"{key}.json.gz")


@pytest.mark.parametrize("manager_key", MANAGER_KEYS)
@pytest.mark.parametrize("key", TRACE_KEYS)
def test_run_matches_scalar_and_golden_makespans(key, manager_key):
    """Machine.run equals the scalar reference — result and event count —
    and both equal the committed golden makespan."""
    trace = _golden_trace(key)
    factory = GOLDEN_MANAGERS[manager_key]
    config = MachineConfig(num_cores=EXPECTED["cores"])
    expected = EXPECTED["traces"][key]["makespans_us"][manager_key]

    reference = Machine(factory(), config)
    scalar = reference.run_scalar(trace)
    assert scalar.makespan_us == expected, (
        f"{manager_key} on golden {key}: scalar reference itself drifted "
        f"from the committed makespan"
    )

    routed = Machine(factory(), config)
    assert lane_fallback_reason(routed, trace) is None
    result = routed.run(trace)
    assert result == scalar, (
        f"{manager_key} on golden {key}: Machine.run diverged from the scalar "
        f"reference — makespan {result.makespan_us!r} != golden {expected!r}"
    )
    assert routed.last_events_processed == reference.last_events_processed


@pytest.mark.parametrize("manager_key", MANAGER_KEYS)
def test_mixed_lane_cell_matches_solo_runs(manager_key):
    """A sweep-shaped mixed cell — one lane per (seed, cores) point, all
    different — equals the corresponding solo scalar runs exactly."""
    factory = GOLDEN_MANAGERS[manager_key]
    cell = [
        (generate_sparselu(scale=0.02, seed=GOLDEN_SEED + index), cores)
        for index, cores in enumerate((2, 4, 8, 16))
    ]
    solo = [
        Machine(factory(), MachineConfig(num_cores=cores)).run_scalar(trace)
        for trace, cores in cell
    ]
    lanes = run_lanes([
        LaneSpec(trace=trace, manager=factory(),
                 config=MachineConfig(num_cores=cores))
        for trace, cores in cell
    ])
    assert lanes == solo
