"""Golden equivalence of the dependence-resolution engine.

Replays every committed golden trace through two dependency engines:

* the **frozen legacy tracker** (``benchmarks/_legacy_depres.py``) — the
  access-by-access engine as it stood before the compiled engine landed;
* the live tracker, which resolves each task at insert (its one path);

and asserts that their insert / finish sequences are *identical* — every
access (address, mode, table index, must-wait, set-conflict), every
dependence count, readiness, every kick-off list and the ready order —
under central and distributed table configurations, including a
deliberately tiny geometry that forces set conflicts and dummy-entry
chaining.  The legacy engine returns per-access records and the live one
flat tuples, so a test-side projection maps both onto the same plain log
(the live rows' direction flags onto the legacy access modes).

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

from _legacy_depres import AccessMode, LegacyAddressTable, LegacyDependencyTracker  # noqa: E402

from repro.nexus.distribution import nexus_hash  # noqa: E402
from repro.taskgraph.table import AddressTable  # noqa: E402
from repro.taskgraph.tracker import DependencyTracker  # noqa: E402
from repro.trace.serialization import load_trace  # noqa: E402

#: Live direction flags (bit 0 reads, bit 1 writes) -> legacy access mode.
MODE_OF_FLAGS = (None, AccessMode.READ, AccessMode.WRITE, AccessMode.READWRITE)

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


def _legacy_insert(tracker, task):
    """Project a legacy ``insert_task`` record onto the common log entry."""
    result = tracker.insert_task(task)
    accesses = tuple(
        (a.address, a.mode, a.table_index, a.must_wait, a.set_conflict)
        for a in result.accesses
    )
    return accesses, result.dependence_count, result.ready


def _legacy_finish(tracker, task_id):
    result = tracker.finish_task(task_id)
    accesses = tuple((a.address, a.table_index, a.kicked_off) for a in result.accesses)
    return accesses, result.newly_ready, sum(len(a.kicked_off) for a in result.accesses)


def _live_insert(tracker, task):
    """Project the live ``(rows, count, wait_mask, conflict_mask)`` tuple."""
    rows, dependence_count, wait_mask, conflict_mask = tracker.insert_task(task)
    accesses = tuple(
        (row[1], MODE_OF_FLAGS[row[2]], row[3], bool(wait_mask >> i & 1),
         bool(conflict_mask >> i & 1))
        for i, row in enumerate(rows)
    )
    assert wait_mask >> len(rows) == 0 and conflict_mask >> len(rows) == 0
    assert dependence_count == bin(wait_mask).count("1")
    return accesses, dependence_count, dependence_count == 0


def _live_finish(tracker, task_id):
    rows, released, newly_ready, kickoff_count = tracker.finish_task(task_id)
    assert len(released) == len(rows)
    accesses = tuple((row[1], row[3], tuple(kicked)) for row, kicked in zip(rows, released))
    assert kickoff_count == sum(len(kicked) for kicked in released)
    return accesses, tuple(newly_ready), kickoff_count


def _replay(tracker, trace):
    """Insert in submission order, finish in FIFO ready order; log results.

    Both engines' results are projected to plain tuples (see
    ``_legacy_insert`` / ``_live_insert``) so they compare by value.
    """
    legacy = isinstance(tracker, LegacyDependencyTracker)
    insert = _legacy_insert if legacy else _live_insert
    finish = _legacy_finish if legacy else _live_finish
    log = []
    ready = deque()
    for task in trace.tasks():
        accesses, dependence_count, is_ready = insert(tracker, task)
        conflicts = sum(1 for access in accesses if access[4])
        log.append(("insert", task.task_id, accesses, dependence_count, is_ready, conflicts))
        if is_ready:
            ready.append(task.task_id)
    while ready:
        task_id = ready.popleft()
        accesses, newly_ready, kickoffs = finish(tracker, task_id)
        log.append(("finish", task_id, accesses, newly_ready, kickoffs))
        ready.extend(newly_ready)
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
    )


@pytest.mark.parametrize("config_key", sorted(CONFIGS))
@pytest.mark.parametrize("trace_key", TRACE_KEYS)
def test_dynamic_path_matches_frozen_tracker(trace_key, config_key):
    trace = load_trace(DATA_DIR / f"{trace_key}.json.gz")
    num_tables, geometry = CONFIGS[config_key]
    expected = _legacy_log(trace, num_tables, geometry)

    dynamic = _live_tracker(num_tables, geometry)
    assert _replay(dynamic, trace) == expected, (
        f"tracker diverged from the frozen tracker on {trace_key}/{config_key}"
    )


@pytest.mark.parametrize("trace_key", TRACE_KEYS)
def test_rerun_after_reset_is_stable(trace_key):
    """Re-running a tracker (reset, recycling cells and dense ids) is
    byte-stable — the free-list recycling must not leak state."""
    trace = load_trace(DATA_DIR / f"{trace_key}.json.gz")
    tracker = _live_tracker(6, {})
    first = _replay(tracker, trace)
    tracker.reset()
    second = _replay(tracker, trace)
    assert first == second


def test_table_stats_match_between_paths():
    """Structural accounting (conflicts, insertions, evictions, dummies,
    peak live entries) agrees between the live and frozen trackers."""
    trace = load_trace(DATA_DIR / f"{TRACE_KEYS[0]}.json.gz")
    num_tables, geometry = CONFIGS["tiny-conflicts"]

    legacy = LegacyDependencyTracker(
        num_tables=num_tables,
        distribute=_distribute_for(num_tables),
        table_factory=lambda i: LegacyAddressTable(name=f"TG{i}", **geometry),
    )
    _replay(legacy, trace)

    live = _live_tracker(num_tables, geometry)
    _replay(live, trace)
    for legacy_table, live_table in zip(legacy.tables, live.tables):
        for field in ("insertions", "evictions", "set_conflicts",
                      "dummy_entries_peak", "max_live_entries"):
            assert getattr(live_table.stats, field) == getattr(legacy_table.stats, field), (
                f"stats field {field} diverged on {live_table.name}"
            )
