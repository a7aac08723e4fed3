"""Kernel-vs-engine differential for the Nexus managers under forced table hazards.

The default task-graph geometry almost never fills a set, so the kernel's
structural accounting — a fresh entry taking a way, a set conflict when
the set is full, kick-off lists spilling into dummy-entry ways, an idle
address freeing its way — would go untested by the golden suites.  Here
the tables shrink to one set of two ways with one kick-off slot per
entry (plus a two-set, one-way, two-slot variant under the tightly
coupled timings), which forces every hazard.  Nexus++ and Nexus# at 1,
2, 6 and 16 task graphs replay every golden trace and hypothesis-drawn
traces through ``Machine.run`` (the kernel) and ``Machine.run_scalar``
(the engine): whole results, ``manager_stats`` and event counts must
agree.  The engine's own tables must report set conflicts and dummy
entries, so the hazards were really exercised.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nexus.nexuspp import NexusPlusPlusConfig, NexusPlusPlusManager
from repro.nexus.nexussharp import NexusSharpConfig, NexusSharpManager
from repro.nexus.timing import NexusPlusPlusTiming, NexusSharpTiming
from repro.sim.batch import lane_fallback_reason, lane_program
from repro.system.machine import Machine, MachineConfig
from repro.trace.serialization import load_trace
from repro.workloads.fuzz import fuzz_program
from repro.workloads.registry import get_workload

from test_batch_differential import assert_identical, fuzz_specs

GOLDEN_DATA = Path(__file__).resolve().parent.parent / "golden" / "data"
GOLDEN_TRACES = tuple(load_trace(path) for path in sorted(GOLDEN_DATA.glob("*.json.gz")))

#: One set, two ways, one kick-off slot: conflicts and dummy entries galore.
TINY = {"table_sets": 1, "table_ways": 2, "kickoff_capacity": 1}
#: Two sets of one way, two kick-off slots.
NARROW = {"table_sets": 2, "table_ways": 1, "kickoff_capacity": 2}


def _hazard_factories():
    factories = {
        "nexus++/tiny": lambda: NexusPlusPlusManager(NexusPlusPlusConfig(**TINY)),
        "nexus++/tight-narrow": lambda: NexusPlusPlusManager(NexusPlusPlusConfig(
            timing=NexusPlusPlusTiming.tightly_coupled(), **NARROW)),
    }
    for graphs in (1, 2, 6, 16):
        factories[f"nexus#{graphs}/tiny"] = lambda graphs=graphs: NexusSharpManager(
            NexusSharpConfig(num_task_graphs=graphs, **TINY))
        factories[f"nexus#{graphs}/tight-narrow"] = lambda graphs=graphs: NexusSharpManager(
            NexusSharpConfig(num_task_graphs=graphs, frequency_mhz=100.0,
                             timing=NexusSharpTiming.tightly_coupled(), **NARROW))
    return factories


HAZARD_MANAGERS = _hazard_factories()


def _run_both(factory, trace, config):
    """``(kernel result, engine result, engine manager)``, event counts checked."""
    routed = Machine(factory(), config)
    assert lane_fallback_reason(routed, trace) is None
    reference = Machine(factory(), config)
    expected = reference.run_scalar(trace)
    result = routed.run(trace)
    assert routed.last_events_processed == reference.last_events_processed, trace.name
    return result, expected, reference.manager


@pytest.mark.parametrize("manager_key", list(HAZARD_MANAGERS))
def test_golden_traces_under_forced_hazards(manager_key):
    """Every golden trace, at 1, 4 and 16 cores, equals the engine; the
    engine's tables saw set conflicts and dummy entries along the way."""
    factory = HAZARD_MANAGERS[manager_key]
    conflicts = 0
    dummies = 0
    for trace in GOLDEN_TRACES:
        for cores, validate in ((1, False), (4, True), (16, False)):
            config = MachineConfig(num_cores=cores, validate=validate)
            result, expected, manager = _run_both(factory, trace, config)
            assert_identical(expected, result, f"{manager_key} {trace.name} {cores}c")
            tables = manager._tracker.tables
            conflicts += sum(table.stats.set_conflicts for table in tables)
            dummies += max(table.stats.dummy_entries_peak for table in tables)
    assert conflicts > 0
    assert dummies > 0


@given(spec=fuzz_specs(),
       cores=st.integers(min_value=1, max_value=6),
       manager_key=st.sampled_from(sorted(HAZARD_MANAGERS)))
@settings(max_examples=40, deadline=None)
def test_fuzzed_traces_under_forced_hazards(spec, cores, manager_key):
    """Hypothesis traces, tiny tables: kernel == engine, bit for bit."""
    trace = fuzz_program(spec).elaborate()
    config = MachineConfig(num_cores=cores, validate=True)
    result, expected, _ = _run_both(HAZARD_MANAGERS[manager_key], trace, config)
    assert_identical(expected, result, f"{manager_key}/{cores}c seed={spec.seed}")


def test_nexuspp_degrades_taskwait_on_through_the_kernel():
    """A registered h264dec trace carries ``taskwait on`` pragmas: Nexus++
    runs it on the kernel, degraded to full barriers, as on the engine."""
    trace = get_workload("h264dec-2x2-10f", scale=0.02, seed=1)
    assert lane_program(trace).has_wait_on
    for factory in (NexusPlusPlusManager, HAZARD_MANAGERS["nexus++/tiny"]):
        result, expected, _ = _run_both(factory, trace, MachineConfig(num_cores=8))
        assert result == expected
