"""Tests for the content-addressed result cache."""

import threading

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.runner import SweepRunner
from repro.experiments.spec import SweepSpec

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


class TestResultCache:
    def test_miss_then_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(KEY) is None
        document = {"makespan_us": 12.5, "nested": {"a": [1, 2]}}
        cache.put(KEY, document)
        assert KEY in cache
        assert cache.get(KEY) == document

    def test_entries_are_sharded_by_key_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": 1})
        assert (tmp_path / KEY[:2] / f"{KEY}.json").exists()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": 1})
        path = tmp_path / KEY[:2] / f"{KEY}.json"
        path.write_text("{truncated", encoding="utf-8")
        assert cache.get(KEY) is None

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_is_a_healed_miss(self, tmp_path, token):
        """JSON has no NaN/±Infinity and put never writes them: such an
        entry is corrupt, so it is a miss and is removed like a torn one."""
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"makespan_us": 1.0})
        path = tmp_path / KEY[:2] / f"{KEY}.json"
        path.write_text('{"makespan_us": %s}' % token, encoding="utf-8")
        assert cache.get(KEY) is None
        assert not path.exists()

    def test_non_object_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = tmp_path / KEY[:2] / f"{KEY}.json"
        path.parent.mkdir(parents=True)
        path.write_text("[1,2,3]", encoding="utf-8")
        assert cache.get(KEY) is None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": 1})
        cache.put(OTHER, {"y": 2})
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(KEY) is None

    def test_corrupt_entry_is_deleted_on_read(self, tmp_path):
        """A torn entry must not survive to poison every later warm run."""
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": 1})
        path = tmp_path / KEY[:2] / f"{KEY}.json"
        path.write_text('{"makespan_us": 12.', encoding="utf-8")
        assert cache.get(KEY) is None
        assert not path.exists()
        # The store is usable again immediately.
        cache.put(KEY, {"x": 2})
        assert cache.get(KEY) == {"x": 2}

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": 1})
        orphan = tmp_path / KEY[:2] / "deadbeef.tmp"
        orphan.write_text("partial", encoding="utf-8")
        assert cache.clear() == 1
        assert not orphan.exists()

    def test_corruption_recovery_end_to_end(self, tmp_path):
        """A worker killed mid-write leaves a truncated entry; the next
        (warm) sweep must treat it as a miss, re-simulate exactly that
        cell, repair the store and still emit byte-identical JSONL."""
        spec = SweepSpec(workloads=["microbench"], managers=["ideal"],
                         core_counts=[1, 2], scale=0.05)
        cache = ResultCache(tmp_path / "cache")
        cold = SweepRunner(cache=cache).run(spec, jsonl_path=tmp_path / "cold.jsonl")
        assert cold.executed == 2
        # Truncate one entry in place — a torn write a crashed worker
        # could have produced without the atomic-rename discipline.
        victim = next(iter((tmp_path / "cache").glob("*/*.json")))
        victim.write_text(victim.read_text(encoding="utf-8")[:17], encoding="utf-8")
        warm = SweepRunner(cache=cache).run(spec, jsonl_path=tmp_path / "warm.jsonl")
        assert warm.executed == 1  # only the corrupted cell re-ran
        assert warm.cache_hits == 1
        assert (tmp_path / "cold.jsonl").read_bytes() == (tmp_path / "warm.jsonl").read_bytes()
        # The store healed: a third run is fully warm.
        again = SweepRunner(cache=cache).run(spec)
        assert again.executed == 0

    def test_corrupt_read_racing_fresh_put_keeps_the_fresh_entry(self, tmp_path):
        """The reader-vs-publisher race the quarantine rename exists for.

        A reader decodes a corrupt entry and goes to delete it; before
        it does, a writer atomically publishes a *fresh good* entry at
        the same path.  A bare unlink would destroy that fresh entry
        (and a later warm run would re-simulate it); the quarantine
        discipline must instead notice the race, restore the fresh
        document and return it.
        """
        fresh = {"makespan_us": 42.0, "source": "fresh-publish"}

        class RacingCache(ResultCache):
            def _heal(self, key, path):
                # Deterministically interleave the concurrent publish
                # exactly between the corrupt read and the quarantine
                # rename — the widest window of the race.
                ResultCache.put(self, key, fresh)
                return ResultCache._heal(self, key, path)

        cache = RacingCache(tmp_path)
        cache.put(KEY, {"x": 1})
        path = tmp_path / KEY[:2] / f"{KEY}.json"
        path.write_text("{torn", encoding="utf-8")
        # The racing reader must serve the freshly-published document...
        assert cache.get(KEY) == fresh
        # ...and leave it in the store (no resurrection of the corpse,
        # no deletion of the fresh entry, no stray quarantine files).
        assert ResultCache(tmp_path).get(KEY) == fresh
        assert [p for p in path.parent.iterdir() if p.suffix == ".tmp"] == []

    def test_corrupt_read_racing_concurrent_readers_never_lose_a_put(self, tmp_path):
        """Hammer get() (over a corrupt entry) against put() from
        threads: whatever interleaving happens, a reader must only ever
        observe ``None`` or a complete published document — never a
        partial entry — and the final state must hold the last put."""
        cache = ResultCache(tmp_path)
        path = tmp_path / KEY[:2] / f"{KEY}.json"
        good = {"makespan_us": 7.0}
        observed = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                document = cache.get(KEY)
                if document is not None:
                    observed.append(document)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                cache.put(KEY, good)
                path.write_text("{torn", encoding="utf-8")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert all(document == good for document in observed)
        # Heal the final torn state; afterwards a put sticks.
        cache.get(KEY)
        cache.put(KEY, good)
        assert cache.get(KEY) == good

    def test_put_overwrites_atomically(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"v": 1})
        cache.put(KEY, {"v": 2})
        assert cache.get(KEY) == {"v": 2}
        # No stray temp files left behind.
        leftovers = [p for p in (tmp_path / KEY[:2]).iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
