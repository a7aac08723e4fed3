"""Golden regression test of whole results beyond the default config.

``expected_config_digests.json`` pins, for every case of
:func:`golden_config.config_digest_cases`, the digest of the full
``result_to_json`` row (schedule, statistics, per-core busy time) and
the number of events the replay processed: each golden trace under
every manager × scheduler × topology, with ``keep_schedule`` off and
``validate`` on, plus a sparse-id trace and the Nexus++ ``taskwait on``
degradation.  Each case replays through ``Machine.run`` (the kernel, for
every case) and through ``Machine.run_scalar`` (the engine's stream
replay of the trace), and both must match exactly.  A diff is a change
to the simulated science: regenerate via ``tests/golden/regenerate.py``
and justify it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.batch import lane_fallback_reason
from repro.trace.serialization import load_trace

from golden_config import (
    GOLDEN_MANAGERS,
    config_digest,
    config_digest_cases,
    config_machine,
    golden_traces,
)

GOLDEN_DIR = Path(__file__).parent
EXPECTED = json.loads(
    (GOLDEN_DIR / "expected_config_digests.json").read_text(encoding="utf-8"))["configs"]

#: ``trace/manager`` prefixes: one test per trace and manager.
GROUPS = sorted({"/".join(key.split("/")[:2]) for key in EXPECTED})


@pytest.fixture(scope="module")
def cases():
    traces = {key: load_trace(GOLDEN_DIR / "data" / f"{key}.json.gz")
              for key in golden_traces()}
    return config_digest_cases(traces)


def test_digest_file_covers_every_case(cases):
    assert sorted(EXPECTED) == sorted(cases)


def test_groups_cover_every_manager():
    assert {group.split("/")[1] for group in GROUPS} == set(GOLDEN_MANAGERS)


def test_every_case_takes_the_kernel(cases):
    for key, case in cases.items():
        assert lane_fallback_reason(config_machine(case), case[0]) is None, key


@pytest.mark.parametrize("method", ["run", "run_scalar"])
@pytest.mark.parametrize("group", GROUPS)
def test_config_digests_exact(group, method, cases):
    keys = [key for key in EXPECTED if key.startswith(group + "/")]
    assert keys
    for key in keys:
        assert config_digest(cases[key], method) == EXPECTED[key], key
