"""Golden equivalence of the dependence-resolution engine.

Replays every committed golden trace through three dependency engines:

* the **frozen legacy tracker** (``benchmarks/_legacy_depres.py``) — the
  access-by-access engine as it stood before the compiled engine landed;
* the live tracker **unbound** (each task resolved at insert);
* the live tracker **bound** to the trace's access program.

and asserts that the ``InsertResult`` / ``FinishResult`` sequences are
*identical* — every access record (address, mode, table index, must-wait,
set-conflict), every dependence count, every kick-off list and the
ready order — under central and distributed table configurations,
including a deliberately tiny geometry that forces set conflicts and
dummy-entry chaining.

Finish order is the FIFO ready order (tasks retire in the order they
become ready), which exercises the same interleaving the machine loop
produces under the default scheduler.
"""

from __future__ import annotations

import sys
from collections import deque
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _legacy_depres import LegacyAddressTable, LegacyDependencyTracker  # noqa: E402

from repro.nexus.distribution import nexus_hash  # noqa: E402
from repro.taskgraph.table import AddressTable  # noqa: E402
from repro.taskgraph.tracker import DependencyTracker  # noqa: E402
from repro.trace.serialization import load_trace  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"
TRACE_KEYS = sorted(path.name.split(".")[0] for path in DATA_DIR.glob("*.json.gz"))

#: (id, num_tables, table-geometry kwargs) — the tracker configurations of
#: the golden managers (central = ideal/nanos/nexus++, distributed =
#: nexus# at several task-graph counts) plus a conflict-stress geometry.
CONFIGS = {
    "central": (1, {}),
    "nexus2": (2, {}),
    "nexus6": (6, {}),
    "nexus8": (8, {}),
    "tiny-conflicts": (3, {"num_sets": 4, "ways": 1, "kickoff_capacity": 2}),
}


def _distribute_for(num_tables):
    if num_tables == 1:
        return None
    return lambda address: nexus_hash(address, num_tables)


def _replay(tracker, trace):
    """Insert in submission order, finish in FIFO ready order; log results.

    The log normalises both engines' result records to plain tuples so
    the legacy and live NamedTuple types compare by value.
    """
    log = []
    ready = deque()
    for task in trace.tasks():
        result = tracker.insert_task(task)
        conflicts = sum(1 for a in result.accesses if a.set_conflict)
        # The live engine precounts conflicts; assert the shortcut agrees
        # with the per-access records it summarises.
        shortcut = getattr(result, "num_set_conflicts", conflicts)
        assert shortcut == conflicts
        log.append((
            "insert",
            result.task_id,
            tuple(
                (a.address, a.mode, a.table_index, a.must_wait, a.set_conflict)
                for a in result.accesses
            ),
            result.dependence_count,
            result.ready,
            result.pool_was_full,
            conflicts,
        ))
        if result.ready:
            ready.append(result.task_id)
    while ready:
        task_id = ready.popleft()
        result = tracker.finish_task(task_id)
        kickoffs = sum(len(a.kicked_off) for a in result.accesses)
        assert result.num_kickoffs == kickoffs
        log.append((
            "finish",
            result.task_id,
            tuple((a.address, a.table_index, a.kicked_off) for a in result.accesses),
            result.newly_ready,
            kickoffs,
        ))
        ready.extend(result.newly_ready)
    return log


def _legacy_log(trace, num_tables, geometry):
    tracker = LegacyDependencyTracker(
        num_tables=num_tables,
        distribute=_distribute_for(num_tables),
        table_factory=lambda i: LegacyAddressTable(name=f"TG{i}", **geometry),
    )
    return _replay(tracker, trace)


def _live_tracker(num_tables, geometry):
    return DependencyTracker(
        num_tables=num_tables,
        distribute=_distribute_for(num_tables),
        table_factory=lambda i: AddressTable(name=f"TG{i}", **geometry),
        distribution_key=("equivalence", num_tables),
    )


@pytest.mark.parametrize("config_key", sorted(CONFIGS))
@pytest.mark.parametrize("trace_key", TRACE_KEYS)
def test_compiled_engine_matches_frozen_tracker(trace_key, config_key):
    trace = load_trace(DATA_DIR / f"{trace_key}.json.gz")
    num_tables, geometry = CONFIGS[config_key]
    expected = _legacy_log(trace, num_tables, geometry)

    compiled = _live_tracker(num_tables, geometry)
    compiled.bind_program(trace.access_program())
    assert _replay(compiled, trace) == expected, (
        f"bound tracker diverged from the frozen tracker on {trace_key}/{config_key}"
    )


@pytest.mark.parametrize("config_key", sorted(CONFIGS))
@pytest.mark.parametrize("trace_key", TRACE_KEYS)
def test_dynamic_path_matches_frozen_tracker(trace_key, config_key):
    trace = load_trace(DATA_DIR / f"{trace_key}.json.gz")
    num_tables, geometry = CONFIGS[config_key]
    expected = _legacy_log(trace, num_tables, geometry)

    dynamic = _live_tracker(num_tables, geometry)
    assert _replay(dynamic, trace) == expected, (
        f"unbound tracker diverged from the frozen tracker on {trace_key}/{config_key}"
    )


@pytest.mark.parametrize("trace_key", TRACE_KEYS)
def test_rebinding_after_reset_is_stable(trace_key):
    """Re-running a bound tracker (reset + rebind, recycling cells) is
    byte-stable — the free-list recycling must not leak state."""
    trace = load_trace(DATA_DIR / f"{trace_key}.json.gz")
    tracker = _live_tracker(6, {})
    program = trace.access_program()
    tracker.bind_program(program)
    first = _replay(tracker, trace)
    tracker.reset()
    tracker.bind_program(program)
    second = _replay(tracker, trace)
    assert first == second


def test_table_stats_match_between_paths():
    """Structural accounting (conflicts, insertions, evictions, dummies,
    peak live entries) agrees between bound, unbound and frozen trackers."""
    trace = load_trace(DATA_DIR / f"{TRACE_KEYS[0]}.json.gz")
    num_tables, geometry = CONFIGS["tiny-conflicts"]

    legacy = LegacyDependencyTracker(
        num_tables=num_tables,
        distribute=_distribute_for(num_tables),
        table_factory=lambda i: LegacyAddressTable(name=f"TG{i}", **geometry),
    )
    _replay(legacy, trace)

    for bind in (False, True):
        live = _live_tracker(num_tables, geometry)
        if bind:
            live.bind_program(trace.access_program())
        _replay(live, trace)
        for legacy_table, live_table in zip(legacy.tables, live.tables):
            for field in ("lookups", "insertions", "evictions", "set_conflicts",
                          "dummy_entries_peak", "max_live_entries"):
                assert getattr(live_table.stats, field) == getattr(legacy_table.stats, field), (
                    f"stats field {field} diverged (bound={bind}) on {live_table.name}"
                )
