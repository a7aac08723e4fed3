"""Replay the pinned kernel corpus — the hypothesis-free regression layer.

Every corpus spec's serial elaboration runs under all four golden
managers through ``Machine.run`` (which takes the kernel for each of
them) and the scalar reference ``Machine.run_scalar``, asserting full
result byte-identity and equal event counts, plus exact determinism of
repeated runs.
"""

from __future__ import annotations

import pytest

from repro.sim.batch import LaneSpec, lane_fallback_reason, run_lanes
from repro.system.machine import Machine, MachineConfig
from repro.workloads.fuzz import fuzz_program

from batch_corpus import BATCH_CORPUS
from batch_manager_factories import BATCH_TEST_MANAGERS

CORPUS_IDS = [f"seed{spec.seed}" for spec in BATCH_CORPUS]
MANAGER_IDS = list(BATCH_TEST_MANAGERS)


def _trace(spec):
    return fuzz_program(spec).elaborate()


@pytest.mark.parametrize("spec", BATCH_CORPUS, ids=CORPUS_IDS)
@pytest.mark.parametrize("manager_key", MANAGER_IDS)
def test_corpus_run_vs_scalar(spec, manager_key):
    factory = BATCH_TEST_MANAGERS[manager_key]
    trace = _trace(spec)
    config = MachineConfig(num_cores=4, validate=True)

    reference = Machine(factory(), config)
    routed = Machine(factory(), config)
    assert lane_fallback_reason(routed, trace) is None
    assert routed.run(trace) == reference.run_scalar(trace)
    assert routed.last_events_processed == reference.last_events_processed


@pytest.mark.parametrize("manager_key", MANAGER_IDS)
def test_corpus_through_run_lanes(manager_key):
    """The whole corpus through run_lanes, each lane a different trace
    and core count, equals the per-trace scalar runs."""
    factory = BATCH_TEST_MANAGERS[manager_key]
    traces = [_trace(spec) for spec in BATCH_CORPUS]
    configs = [
        MachineConfig(num_cores=cores, validate=True)
        for cores in (1, 2, 3, 4, 8, 16)
    ]
    scalars = [
        Machine(factory(), config).run_scalar(trace)
        for trace, config in zip(traces, configs)
    ]
    lanes = run_lanes([
        LaneSpec(trace=trace, manager=factory(), config=config)
        for trace, config in zip(traces, configs)
    ])
    assert lanes == scalars


def test_corpus_kernel_runs_are_exactly_deterministic():
    config = MachineConfig(num_cores=4)
    traces = [_trace(spec) for spec in BATCH_CORPUS]

    def runs():
        return [Machine(BATCH_TEST_MANAGERS["nanos"](), config).run(trace)
                for trace in traces]

    assert runs() == runs()
