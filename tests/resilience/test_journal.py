"""Unit tests for the frontier journal (scheduler checkpoint)."""

from __future__ import annotations

import json

import pytest

from repro.resilience.journal import JOURNAL_VERSION, FrontierJournal


def doc(n):
    return {"makespan_us": float(n), "cell": n}


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with FrontierJournal.open(path, "sweep-a") as journal:
            journal.record(3, doc(3), key="k3")
            journal.record(1, doc(1))
        replay = FrontierJournal.open(path, "sweep-a")
        assert replay.completed == {3: doc(3), 1: doc(1)}
        replay.close()

    def test_record_is_idempotent_per_cell(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with FrontierJournal.open(path, "s") as journal:
            journal.record(5, doc(5))
            journal.record(5, {"different": True})  # a speculative loser
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + one done line
        replay = FrontierJournal.open(path, "s")
        assert replay.completed == {5: doc(5)}
        replay.close()

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with FrontierJournal.open(path, "s") as journal:
            journal.record(1, doc(1))
            journal.record(2, doc(2))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type":"done","cell":3,"doc":{"half')  # killed mid-append
        replay = FrontierJournal.open(path, "s")
        assert set(replay.completed) == {1, 2}
        # The journal stays appendable after adopting the torn file.
        replay.record(4, doc(4))
        replay.close()
        again = FrontierJournal.open(path, "s")
        assert 4 in again.completed
        again.close()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_line_ends_the_usable_prefix(self, tmp_path, token):
        path = tmp_path / "j.jsonl"
        with FrontierJournal.open(path, "s") as journal:
            journal.record(1, doc(1))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type":"done","cell":2,"doc":{"makespan_us":%s}}\n' % token)
            handle.write('{"type":"done","cell":3,"doc":{"makespan_us":3.0}}\n')
        replay = FrontierJournal.open(path, "s")
        assert replay.completed == {1: doc(1)}
        replay.record(4, doc(4))  # appends after the usable prefix
        replay.close()
        assert FrontierJournal.open(path, "s").completed == {1: doc(1), 4: doc(4)}

    def test_sweep_id_mismatch_restarts_the_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with FrontierJournal.open(path, "old-sweep") as journal:
            journal.record(1, doc(1))
        fresh = FrontierJournal.open(path, "new-sweep")
        assert fresh.completed == {}
        fresh.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["sweep_id"] == "new-sweep"
        assert header["version"] == JOURNAL_VERSION

    def test_torn_header_restarts_the_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"type":"header","ver')
        journal = FrontierJournal.open(path, "s")
        assert journal.completed == {}
        journal.record(1, doc(1))
        journal.close()
        assert FrontierJournal.open(path, "s").completed == {1: doc(1)}

    def test_discard_removes_the_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = FrontierJournal.open(path, "s")
        journal.record(1, doc(1))
        journal.discard()
        assert not path.exists()
        journal.discard()  # idempotent
