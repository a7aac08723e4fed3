"""Tests for the set-associative address table.

The table owns geometry and structural accounting; the accesses that
drive it go through a one-table :class:`DependencyTracker`.
"""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.taskgraph.table import AddressTable
from repro.taskgraph.tracker import DependencyTracker
from repro.trace.task import Direction, Parameter, TaskDescriptor

READ, WRITE = Direction.IN, Direction.OUT


class TestGeometry:
    def test_set_index_is_stable_and_in_range(self):
        table = AddressTable(num_sets=64, ways=4)
        for address in (0x0, 0x1000, 0xDEADBEEF, (1 << 48) - 64):
            idx = table.set_index(address)
            assert 0 <= idx < 64
            assert idx == table.set_index(address)

    def test_capacity(self):
        assert AddressTable(num_sets=16, ways=4).capacity_entries == 64

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressTable(num_sets=100, ways=4)

    def test_invalid_ways_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressTable(num_sets=16, ways=0)


def one_table(**geometry):
    """A one-table tracker over ``AddressTable(**geometry)``."""
    return DependencyTracker(table_factory=lambda index: AddressTable(name="TG0", **geometry))


def access(tracker, task_id, address, direction):
    """Insert a task with a single access; return ``(must_wait, set_conflict)``."""
    task = TaskDescriptor(task_id=task_id, function="f",
                          params=(Parameter(address=address, direction=direction),),
                          duration_us=1.0)
    (row,), _, wait_mask, conflict_mask = tracker.insert_task(task)
    assert row[1] == address
    return bool(wait_mask & 1), bool(conflict_mask & 1)


def kicked(tracker, task_id):
    """Finish a single-access task; return the ids its access kicked off."""
    _, (released,), _, _ = tracker.finish_task(task_id)
    return released


class TestInsertAndFinish:
    def test_insert_then_finish_evicts_entry(self):
        tracker = one_table(num_sets=16, ways=2)
        table = tracker.tables[0]
        assert access(tracker, 1, 0x40, WRITE) == (False, False)
        assert table.live_entries == 1
        kicked(tracker, 1)
        assert table.live_entries == 0
        assert table.stats.evictions == 1

    def test_dependent_task_waits(self):
        tracker = one_table()
        access(tracker, 1, 0x40, WRITE)
        assert access(tracker, 2, 0x40, READ)[0] is True

    def test_finish_returns_kicked_waiters(self):
        tracker = one_table()
        access(tracker, 1, 0x40, WRITE)
        access(tracker, 2, 0x40, READ)
        assert kicked(tracker, 1) == [2]

    def test_finish_untracked_task_raises(self):
        with pytest.raises(SimulationError):
            one_table().finish_task(1)

    def test_set_conflict_detected(self):
        tracker = one_table(num_sets=1, ways=2)
        # Three distinct addresses in the single set: third insert conflicts.
        assert access(tracker, 1, 0x40, WRITE)[1] is False
        assert access(tracker, 2, 0x80, WRITE)[1] is False
        assert access(tracker, 3, 0xC0, WRITE)[1] is True
        assert tracker.tables[0].stats.set_conflicts == 1

    def test_conflict_entry_is_still_tracked(self):
        tracker = one_table(num_sets=1, ways=1)
        access(tracker, 1, 0x40, WRITE)
        access(tracker, 2, 0x80, WRITE)
        # Functional behaviour unaffected: dependencies on the overflowing
        # address still resolve.
        assert access(tracker, 3, 0x80, READ)[0] is True

    def test_occupancy_released_on_eviction(self):
        tracker = one_table(num_sets=1, ways=2)
        table = tracker.tables[0]
        access(tracker, 1, 0x40, WRITE)
        set_idx = table.set_index(0x40)
        assert table.set_occupancy(set_idx) == 1
        kicked(tracker, 1)
        assert table.set_occupancy(set_idx) == 0


class TestDummyEntries:
    def test_long_kickoff_list_consumes_extra_ways(self):
        tracker = one_table(num_sets=4, ways=8, kickoff_capacity=2)
        table = tracker.tables[0]
        access(tracker, 0, 0x40, WRITE)
        for task in range(1, 6):  # 5 waiters, capacity 2 -> 2 dummy entries
            access(tracker, task, 0x40, WRITE)
        assert table.set_occupancy(table.set_index(0x40)) == 3
        assert table.stats.dummy_entries_peak >= 2

    def test_unbounded_waiters_supported(self):
        # The Gaussian-elimination property: any number of tasks may wait
        # on one address (dummy-entry chaining), the structure never fails.
        tracker = one_table(num_sets=4, ways=2, kickoff_capacity=4)
        access(tracker, 0, 0x40, WRITE)
        for task in range(1, 300):
            assert access(tracker, task, 0x40, READ)[0] is True
        assert kicked(tracker, 0) == list(range(1, 300))

    def test_reset(self):
        tracker = one_table()
        access(tracker, 1, 0x40, WRITE)
        tracker.reset()
        table = tracker.tables[0]
        assert table.live_entries == 0
        assert table.stats.insertions == 0
