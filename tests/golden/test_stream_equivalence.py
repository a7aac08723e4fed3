"""Stream-vs-materialised golden equivalence.

The streaming replay path (`Machine.run_stream`) must produce
**byte-identical** makespans to the materialised path (`Machine.run`)
— the golden-trace guarantee extended to streaming.  ``Machine.run``
replays a materialised trace on the kernel, and a stream runs on the
engine, whose tracker resolves each task at insert.  Every committed
golden trace is replayed three ways under all four golden managers:

* materialised (the classic pinned numbers),
* streamed lazily from the in-memory events (``as_stream(iter(...))``),
* streamed from a chunked JSONL file on disk,

and all three must equal the committed expected makespans exactly.  The
lazy stream must also match the kernel's ``Machine.run`` replay in
manager statistics and processed-event count.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.system.machine import Machine, MachineConfig, simulate_stream
from repro.trace.serialization import load_trace, open_trace_stream, write_trace_stream
from repro.trace.stream import as_stream
from repro.workloads.registry import STREAMS

from golden_config import GOLDEN_MANAGERS

GOLDEN_DIR = Path(__file__).parent
DATA_DIR = GOLDEN_DIR / "data"
EXPECTED = json.loads((GOLDEN_DIR / "expected_makespans.json").read_text(encoding="utf-8"))

TRACE_KEYS = sorted(EXPECTED["traces"])
MANAGER_KEYS = list(GOLDEN_MANAGERS)


@pytest.mark.parametrize("manager_key", MANAGER_KEYS)
@pytest.mark.parametrize("key", TRACE_KEYS)
def test_streamed_replay_matches_golden_makespans(key, manager_key):
    trace = load_trace(DATA_DIR / f"{key}.json.gz")
    expected = EXPECTED["traces"][key]["makespans_us"][manager_key]
    factory = GOLDEN_MANAGERS[manager_key]
    result = simulate_stream(as_stream(iter(trace.events)), factory(),
                             num_cores=EXPECTED["cores"])
    assert result.makespan_us == expected, (
        f"{manager_key} on golden {key}: streamed makespan {result.makespan_us!r} != "
        f"materialised golden {expected!r} — the streaming path diverged from run()"
    )
    assert result.num_tasks == EXPECTED["traces"][key]["num_tasks"]


@pytest.mark.parametrize("key", TRACE_KEYS)
def test_chunked_disk_replay_matches_golden_makespans(key, tmp_path):
    """Golden trace -> chunked JSONL -> lazy stream -> simulate: exact."""
    trace = load_trace(DATA_DIR / f"{key}.json.gz")
    path = write_trace_stream(trace, tmp_path / f"{key}.jsonl.gz", chunk_size=64)
    stream = open_trace_stream(path)
    factory = GOLDEN_MANAGERS["nexussharp"]
    expected = EXPECTED["traces"][key]["makespans_us"]["nexussharp"]
    result = simulate_stream(stream, factory(), num_cores=EXPECTED["cores"])
    assert result.makespan_us == expected


@pytest.mark.parametrize("manager_key", MANAGER_KEYS)
@pytest.mark.parametrize("key", TRACE_KEYS)
def test_streamed_replay_matches_kernel_stats_and_event_count(key, manager_key):
    """The stream is the kernel's twin, not just in makespan: the manager
    statistics are identical and both loops process the same number of
    events."""
    trace = load_trace(DATA_DIR / f"{key}.json.gz")
    factory = GOLDEN_MANAGERS[manager_key]
    config = MachineConfig(num_cores=EXPECTED["cores"], keep_schedule=False)
    scalar_machine = Machine(factory(), config)
    scalar = scalar_machine.run(trace)
    stream_machine = Machine(factory(), config)
    streamed = stream_machine.run_stream(as_stream(iter(trace.events)))
    assert streamed.makespan_us == scalar.makespan_us
    assert streamed.master_finish_us == scalar.master_finish_us
    assert streamed.manager_stats == scalar.manager_stats
    assert stream_machine.last_events_processed == scalar_machine.last_events_processed


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_registry_streams_materialize_to_registry_traces(name):
    """get_workload_stream(...) and get_workload(...) are byte-identical."""
    from repro.trace.serialization import trace_digest
    from repro.trace.stream import materialize
    from repro.workloads.registry import get_workload, get_workload_stream

    scale = 0.01 if name.startswith(("gaussian", "h264dec")) else 0.002
    a = get_workload(name, scale=scale, seed=20150525)
    b = materialize(get_workload_stream(name, scale=scale, seed=20150525))
    assert trace_digest(a) == trace_digest(b)
