"""The frontier journal: an append-only completions log for sweeps.

The scheduler's checkpoint.  One JSONL file next to the shared result
store records every grid cell the scheduler has accepted a result for,
*with the result document inline* — so a scheduler SIGKILLed mid-sweep
can be restarted against the same journal and resume exactly where it
died: journalled cells are pre-completed (their documents replayed from
the log) and never re-dispatched, independent of whether the cell was
cacheable in the content-addressed store.

Format (version 1)::

    {"type":"header","version":1,"sweep_id":"<stable sweep identity>"}
    {"type":"done","cell":17,"key":"<cache key or null>","doc":{...}}
    ...

Crash-safety model: records are appended with a single buffered
``write`` + ``flush`` per completion (one line, one syscall), so a torn
final line — the scheduler killed mid-append — is expected and simply
ignored on replay.  A journal whose header names a different
``sweep_id`` (or is itself torn) is discarded and restarted: stale
checkpoints must never leak completions into an unrelated sweep.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Union

from repro.common.errors import TraceError, reject_non_finite
from repro.trace.serialization import canonical_json_line

JOURNAL_VERSION = 1


class FrontierJournal:
    """Append-only completions log of one distributed sweep.

    Use :meth:`open` — it replays any compatible existing file into
    :attr:`completed` and positions the handle for appending.
    """

    def __init__(self, path: Union[str, Path], sweep_id: str) -> None:
        self.path = Path(path)
        self.sweep_id = sweep_id
        #: cell -> result document replayed from an earlier run.
        self.completed: Dict[int, Dict[str, Any]] = {}
        #: Byte length of the valid (parseable) prefix found by replay;
        #: anything past it is a torn tail that must be truncated away
        #: before appending, or the next record would merge with it.
        self._valid_bytes = 0
        self._handle: Optional[TextIO] = None

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    def open(cls, path: Union[str, Path], sweep_id: str) -> "FrontierJournal":
        """Open (or create) the journal for ``sweep_id`` at ``path``.

        Replays a compatible existing file; truncates and restarts on a
        header mismatch (different sweep, different version, torn
        header).
        """
        journal = cls(path, sweep_id)
        journal.completed = journal._replay()
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        if journal._valid_bytes:
            # Drop the torn tail (if any) before appending: a fresh
            # record written after stray half-line bytes would merge
            # with them and be lost on the *next* replay.
            with journal.path.open("rb+") as raw:
                raw.truncate(journal._valid_bytes)
            journal._handle = journal.path.open("a", encoding="utf-8")
        else:
            journal._handle = journal.path.open("w", encoding="utf-8")
            journal._append({"type": "header", "version": JOURNAL_VERSION,
                             "sweep_id": sweep_id})
        return journal

    def _replay(self) -> Dict[int, Dict[str, Any]]:
        """Parse an existing journal file; empty on any incompatibility."""
        self._valid_bytes = 0
        try:
            data = self.path.read_bytes()
        except OSError:
            return {}
        completed: Dict[int, Dict[str, Any]] = {}
        offset = 0
        position = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline == -1:
                # An unterminated final line: the writer died inside its
                # single append (record + newline land in one write, so
                # even a parseable fragment is suspect).  Torn tail.
                break
            line = data[offset:newline]
            try:
                entry = json.loads(line.decode("utf-8"), parse_constant=reject_non_finite)
            except (json.JSONDecodeError, UnicodeDecodeError, TraceError):
                # A torn line (the writer died mid-append) or one holding
                # NaN/±Infinity, which no writer emits, ends the usable
                # prefix; a bad *header* invalidates the file.
                break
            if position == 0:
                if (not isinstance(entry, dict)
                        or entry.get("type") != "header"
                        or entry.get("version") != JOURNAL_VERSION
                        or entry.get("sweep_id") != self.sweep_id):
                    return {}
            elif (isinstance(entry, dict) and entry.get("type") == "done"
                    and isinstance(entry.get("doc"), dict)):
                completed[int(entry["cell"])] = entry["doc"]
            offset = newline + 1
            position += 1
            self._valid_bytes = offset
        return completed

    def _append(self, entry: Dict[str, Any]) -> None:
        assert self._handle is not None, "journal is not open"
        self._handle.write(canonical_json_line(entry) + "\n")
        self._handle.flush()

    # -- recording ---------------------------------------------------------
    def record(self, cell: int, doc: Dict[str, Any],
               key: Optional[str] = None) -> None:
        """Log one freshly completed cell (idempotent per cell)."""
        if cell in self.completed:
            return
        self.completed[cell] = doc
        self._append({"type": "done", "cell": cell, "key": key, "doc": doc})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def discard(self) -> None:
        """Close and delete the file (the sweep finished cleanly)."""
        self.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __enter__(self) -> "FrontierJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
