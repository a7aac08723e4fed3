"""Compiled per-trace access programs.

The dependency engine answers one question per parameter of every
submitted task: *which address, accessed how, lands in which task
graph?*  Asking it with raw 48-bit addresses means re-hashing the same
addresses and re-merging the same parameter lists on every submission of
every run — pure overhead when the trace is known up front.

:class:`CompiledAccessProgram` moves that work to compile time, once per
trace:

* every distinct parameter address is *interned* to a dense integer id
  (``0 .. num_addresses-1``, in first-appearance order), so downstream
  state can live in flat arrays indexed by id instead of hash tables
  keyed by 48-bit addresses;
* every task's parameter list is *deduplicated* into its access program —
  one ``(address_id, direction-flags)`` pair per distinct address, first
  occurrence order preserved, flags OR-merged exactly like the hardware
  merges duplicate pragma clauses — and stored in flat arrays
  (``offsets`` + per-access columns) addressed by task slot.

The program is pure integers: it knows nothing about managers, table
counts or hash functions.  The replay kernel of :mod:`repro.sim.batch`
indexes its per-address state and task-graph placements by its ids.

A program is compiled straight from a trace's columns
(:class:`~repro.trace.columns.TraceColumns`), never from event or
parameter objects, and cached on the owning
:class:`~repro.trace.trace.Trace` (see :meth:`Trace.access_program`)
under a ``_compiled*`` attribute, which ``Trace.__getstate__`` keeps out
of pickles.

The same merge (:func:`merge_flags`) also runs inside the dependency
tracker, which merges, interns and resolves every streamed or spawned
task once, at insertion.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.trace.columns import TraceColumns
from repro.trace.task import FLAG_READS, FLAG_READWRITE, FLAG_WRITES

__all__ = ["FLAG_READS", "FLAG_WRITES", "FLAG_READWRITE", "CompiledAccessProgram", "merge_flags"]


def merge_flags(addresses: Sequence[int], flags: Sequence[int]) -> Dict[int, int]:
    """Deduplicate a flat access list into ``{address: direction flags}``.

    A task may legally list the same address several times (e.g. an
    array block passed both as ``in`` and as part of an ``inout``
    region); the hardware tracks the address once, with the union of the
    access modes.  Any two distinct directions union to read-write, which
    is the OR of their flag bits.  First-occurrence order is preserved
    (dicts keep insertion order) because the Input Parser distributes
    parameters in arrival order.
    """
    merged: Dict[int, int] = {}
    for address, flag in zip(addresses, flags):
        previous = merged.get(address)
        merged[address] = flag if previous is None else previous | flag
    return merged


class CompiledAccessProgram:
    """Interned, deduplicated access lists of one trace, in flat arrays.

    Attributes
    ----------
    addresses:
        Dense id → raw 48-bit address (first-appearance order).
    id_of:
        Raw address → dense id (the interning map).
    task_ids:
        Task slot → task id, in submission order.
    offsets:
        ``offsets[slot] .. offsets[slot+1]`` delimit task ``slot``'s
        accesses in the flat columns below (``len == num_tasks + 1``).
    addr_ids / flags:
        Flat per-access columns: dense address id and direction flags
        (:data:`FLAG_READS` / :data:`FLAG_WRITES` bits).
    """

    __slots__ = ("addresses", "id_of", "task_ids", "offsets", "addr_ids", "flags")

    def __init__(self, columns: TraceColumns) -> None:
        # Runs once per trace on the static hot path: intern every raw
        # parameter address in one pass (first appearance over the raw
        # parameters is first appearance over the merged accesses, since a
        # duplicate follows its first occurrence within the task).
        first_seen = dict.fromkeys(columns.addresses)
        id_of: Dict[int, int] = dict(zip(first_seen, range(len(first_seen))))
        raw_ids = list(map(id_of.__getitem__, columns.addresses))
        offsets = list(columns.offsets)
        flags = list(columns.flags)
        num_tasks = columns.num_tasks
        if raw_ids and _has_duplicate_accesses(raw_ids, offsets, len(id_of)):
            addr_ids: List[int] = []
            merged_flags: List[int] = []
            merged_offsets = [0]
            for slot in range(num_tasks):
                start, end = offsets[slot], offsets[slot + 1]
                merged = merge_flags(raw_ids[start:end], flags[start:end])
                addr_ids.extend(merged)
                merged_flags.extend(merged.values())
                merged_offsets.append(len(addr_ids))
            raw_ids, flags, offsets = addr_ids, merged_flags, merged_offsets
        self.addresses = list(id_of)
        self.id_of = id_of
        self.task_ids = list(columns.task_ids)
        self.offsets = offsets
        self.addr_ids = raw_ids
        self.flags = flags

    # -- geometry ----------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        """Number of task access programs compiled."""
        return len(self.task_ids)

    @property
    def num_addresses(self) -> int:
        """Number of distinct interned addresses."""
        return len(self.addresses)

    @property
    def num_accesses(self) -> int:
        """Total deduplicated accesses over all tasks."""
        return len(self.addr_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledAccessProgram(tasks={self.num_tasks}, "
            f"addresses={self.num_addresses}, accesses={self.num_accesses})"
        )


def _has_duplicate_accesses(addr_ids: List[int], offsets: List[int], num_addresses: int) -> bool:
    """Whether any task lists one address twice (one vectorised pass)."""
    ids = np.asarray(addr_ids, dtype=np.int64)
    slots = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
    keys = np.sort(slots * num_addresses + ids)
    return bool((keys[1:] == keys[:-1]).any())
