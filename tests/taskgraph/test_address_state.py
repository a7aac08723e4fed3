"""Tests for the per-address reader/writer/kick-off bookkeeping."""

import pytest

from repro.common.errors import SimulationError
from repro.taskgraph.address_state import AddressCell
from repro.trace.compiled import FLAG_READS, FLAG_READWRITE, FLAG_WRITES


class TestInsert:
    def test_first_writer_proceeds(self):
        cell = AddressCell(0x1)
        assert cell.insert(1, FLAG_WRITES) is False
        assert cell.writer == 1

    def test_first_reader_proceeds(self):
        cell = AddressCell(0x1)
        assert cell.insert(1, FLAG_READS) is False
        assert 1 in cell.readers

    def test_reader_after_writer_waits(self):
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_WRITES)
        assert cell.insert(2, FLAG_READS) is True
        assert cell.kickoff_length == 1

    def test_concurrent_readers_proceed(self):
        cell = AddressCell(0x1)
        assert cell.insert(1, FLAG_READS) is False
        assert cell.insert(2, FLAG_READS) is False
        assert cell.readers == {1, 2}

    def test_writer_after_readers_waits(self):
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_READS)
        assert cell.insert(2, FLAG_WRITES) is True

    def test_writer_after_writer_waits(self):
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_WRITES)
        assert cell.insert(2, FLAG_WRITES) is True

    def test_reader_queues_behind_waiting_writer(self):
        # r1 active, w waiting, r2 must queue behind w (program order).
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_READS)
        cell.insert(2, FLAG_WRITES)
        assert cell.insert(3, FLAG_READS) is True
        assert cell.kickoff_length == 2

    def test_readwrite_behaves_as_writer(self):
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_READS)
        assert cell.insert(2, FLAG_READWRITE) is True


class TestFinish:
    def test_writer_finish_releases_readers(self):
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_WRITES)
        cell.insert(2, FLAG_READS)
        cell.insert(3, FLAG_READS)
        assert cell.finish(1) == [2, 3]
        assert cell.readers == {2, 3}

    def test_writer_finish_releases_single_writer(self):
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_WRITES)
        cell.insert(2, FLAG_WRITES)
        cell.insert(3, FLAG_WRITES)
        assert cell.finish(1) == [2]
        assert cell.writer == 2

    def test_readers_release_waiting_writer_only_when_all_done(self):
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_READS)
        cell.insert(2, FLAG_READS)
        cell.insert(3, FLAG_WRITES)
        assert cell.finish(1) == []
        assert cell.finish(2) == [3]
        assert cell.writer == 3

    def test_release_stops_at_second_writer(self):
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_WRITES)
        cell.insert(2, FLAG_READS)
        cell.insert(3, FLAG_WRITES)
        assert cell.finish(1) == [2]
        assert cell.finish(2) == [3]

    def test_finish_unknown_task_raises(self):
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_WRITES)
        with pytest.raises(SimulationError):
            cell.finish(99)

    def test_idle_after_all_finish(self):
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_WRITES)
        cell.insert(2, FLAG_READS)
        cell.finish(1)
        cell.finish(2)
        assert cell.is_idle

    def test_statistics(self):
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_WRITES)
        for task in range(2, 6):
            cell.insert(task, FLAG_READS)
        assert cell.kickoff_length == 4

    def test_recycle_resets_in_place(self):
        cell = AddressCell(0x1)
        cell.insert(1, FLAG_WRITES)
        cell.insert(2, FLAG_READS)
        cell.recycle(0x2)
        assert cell.address == 0x2
        assert cell.is_idle
        assert cell.insert(3, FLAG_READS) is False
