"""A trace may name any number of distinct task functions.

The dependence tracker keys nothing by function name, so every replay
path must accept a trace with more distinct functions than a hardware
function-pointer table would hold (256 on the prototype).  Under each of
the four golden managers the kernel (``Machine.run``), the general engine
(``Machine.run_scalar``), an unbound stream (``Machine.run_stream``) and
an ``sjf`` engine run all complete; the kernel equals the engine bit for
bit, and so does the stream.
"""

from __future__ import annotations

import pytest

from repro.sim.batch import lane_fallback_reason
from repro.system.machine import Machine, MachineConfig
from repro.trace.stream import as_stream
from repro.trace.trace import TraceBuilder

from batch_manager_factories import BATCH_TEST_MANAGERS
from test_batch_differential import assert_identical

NUM_FUNCTIONS = 300


def _many_function_trace():
    """300 tasks, each its own function, in chains over 16 addresses."""
    builder = TraceBuilder("many-functions")
    for index in range(NUM_FUNCTIONS):
        address = 0x40 * (index % 16)
        builder.add_task(f"f{index}", duration_us=1.0 + index % 7,
                         inputs=[address], inouts=[address + 0x4000])
    return builder.build()


TRACE = _many_function_trace()


@pytest.mark.parametrize("manager_key", sorted(BATCH_TEST_MANAGERS))
def test_kernel_equals_engine(manager_key):
    factory = BATCH_TEST_MANAGERS[manager_key]
    config = MachineConfig(num_cores=4, validate=True)
    routed = Machine(factory(), config)
    assert lane_fallback_reason(routed, TRACE) is None
    reference = Machine(factory(), config)
    expected = reference.run_scalar(TRACE)
    assert expected.num_tasks == NUM_FUNCTIONS
    assert_identical(expected, routed.run(TRACE), f"{manager_key} many functions")
    assert routed.last_events_processed == reference.last_events_processed


@pytest.mark.parametrize("manager_key", sorted(BATCH_TEST_MANAGERS))
def test_unbound_stream_equals_engine(manager_key):
    factory = BATCH_TEST_MANAGERS[manager_key]
    config = MachineConfig(num_cores=4, validate=True)
    expected = Machine(factory(), config).run_scalar(TRACE)
    stream = as_stream(iter(TRACE.events), name=TRACE.name)
    assert Machine(factory(), config).run_stream(stream) == expected


@pytest.mark.parametrize("manager_key", sorted(BATCH_TEST_MANAGERS))
def test_sjf_engine_run_completes(manager_key):
    config = MachineConfig(num_cores=4, validate=True, scheduler="sjf")
    result = Machine(BATCH_TEST_MANAGERS[manager_key](), config).run(TRACE)
    assert result.num_tasks == NUM_FUNCTIONS
