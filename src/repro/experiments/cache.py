"""Content-addressed on-disk result cache.

Each cached entry is one :class:`~repro.system.results.MachineResult`,
stored as canonical JSON under ``<root>/<key[:2]>/<key>.json`` where
``key`` is :meth:`RunPoint.cache_key` — a SHA-256 hash of the complete
point configuration.  Because the key is derived from content, repeated
sweeps are incremental for free: only grid cells whose configuration
actually changed (or never ran) are simulated again.

The cache doubles as the **shared result store** of the distributed
sweep fabric (:mod:`repro.distributed`): every socket worker publishes
each finished cell into it, and the scheduler consults it before
dispatching, so any worker's result is reusable by all and a warm
re-run does zero simulations.  That sharing is what makes crash safety
non-negotiable:

* writes go to a temp file in the entry's own directory and are
  published with an atomic ``os.replace`` — a worker killed (SIGKILL)
  mid-write can never leave a truncated entry that a warm run would
  trust;
* reads treat anything undecodable as a miss **and delete it**
  (:meth:`ResultCache.get` self-heals), so an entry corrupted by an
  unclean filesystem is re-simulated and repaired instead of poisoning
  every later warm run — and the deletion is race-safe: the corrupt
  entry is atomically renamed aside and re-examined before anything is
  unlinked, so a reader that raced a concurrent ``put`` can never
  destroy the freshly-published good entry (it restores and returns it
  instead);
* orphaned ``*.tmp`` files (a writer killed before its rename) are
  swept out by :meth:`ResultCache.clear` and ignored everywhere else.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.common.errors import TraceError, reject_non_finite
from repro.trace.serialization import canonical_json_line


class ResultCache:
    """Filesystem-backed map from cache key to result-JSON document."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the cached result document, or ``None`` on a miss.

        A corrupt entry (torn write, bad JSON, non-object document) is a
        miss — and is deleted, so the re-simulated result can repair the
        store instead of hitting the same carcass on every warm run.

        Deletion is race-safe against concurrent :meth:`put` publishes:
        a bare ``unlink`` after a corrupt read could destroy a *good*
        entry that a writer renamed into place between our read and our
        delete.  Instead the entry is atomically renamed into a private
        quarantine file and re-examined — if the quarantined bytes
        parse (we raced a fresh publish), the entry is restored and
        returned; only bytes this reader has actually seen to be
        corrupt are ever unlinked.
        """
        path = self._path(key)
        document = self._read_document(path)
        if document is not None:
            return document
        if not path.exists():
            return None
        return self._heal(key, path)

    @staticmethod
    def _read_document(path: Path) -> Optional[Dict[str, Any]]:
        """Read and decode one entry; ``None`` on missing or corrupt (a
        NaN/±Infinity, which :meth:`put` never writes, is corruption)."""
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            document = json.loads(text, parse_constant=reject_non_finite)
        except (json.JSONDecodeError, TraceError):
            return None
        return document if isinstance(document, dict) else None

    def _heal(self, key: str, path: Path) -> Optional[Dict[str, Any]]:
        """Quarantine a corrupt entry, re-examine it, restore if it was
        actually a fresh publish this reader raced.

        Separated out so tests can interleave a concurrent ``put``
        between the corrupt read and the quarantine rename.
        """
        fd, quarantine = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        os.close(fd)
        try:
            os.replace(path, quarantine)
        except OSError:
            # Someone else already healed (or deleted) it.
            try:
                os.unlink(quarantine)
            except OSError:
                pass
            return self._read_document(path)
        document = self._read_document(Path(quarantine))
        if document is not None:
            # The rename grabbed a *fresh* publish, not the corpse we
            # read: put it back (atomically) and serve it.
            self.put(key, document)
            try:
                os.unlink(quarantine)
            except OSError:
                pass
            return document
        try:
            os.unlink(quarantine)
        except OSError:
            pass
        return None

    def put(self, key: str, document: Dict[str, Any]) -> Path:
        """Store ``document`` under ``key`` atomically."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(canonical_json_line(document))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every cached entry; return the number removed.

        Orphaned ``*.tmp`` files (a writer killed between ``mkstemp``
        and its atomic rename) are swept out too, but do not count.
        """
        removed = 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.root.glob("*/*.tmp"):
            try:
                path.unlink()
            except OSError:
                pass
        return removed
