"""Set-associative address table.

The hardware keeps the per-address dependence state (the kick-off list
of :mod:`repro.taskgraph.tracker`'s state machine) in a cache-like,
set-associative memory ("It uses the same set-associative data structure
to maintain a Kick-Off List for each incoming memory address",
Section IV-C).  Functionally the table behaves like a dictionary keyed by
address; structurally it has a bounded number of sets and ways, and an
insertion that maps to a full set stalls the task graph "until one task
finishes, which its parameters share the same line" (Section IV-D).

This model keeps the functional behaviour exact while accounting for the
structural hazards: entries occupy ways in their set while any unfinished
task references them, long kick-off lists spill into chained *dummy
entries* that occupy additional ways (the mechanism the
Gaussian-elimination experiment validates), and set-conflict events are
counted so the timing layer can charge stall cycles for them.

The per-address state itself lives in the flat, address-id-indexed
lists of :class:`repro.taskgraph.tracker.DependencyTracker`; the table
owns the structural accounting the tracker's hot loops update inline —
the per-set occupancy array (``set_occupancy_array``), the way and
dummy-entry arithmetic (:func:`ways_for`) and the statistics / live
counters (``stats`` / ``_dense_live``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.constants import (
    DEFAULT_KICKOFF_CAPACITY,
    DEFAULT_TABLE_SETS,
    DEFAULT_TABLE_WAYS,
)
from repro.common.validation import check_positive, check_power_of_two


def ways_for(kickoff_length: int, kickoff_capacity: int) -> int:
    """Ways an entry with ``kickoff_length`` waiters occupies.

    One way for the entry itself plus one chained dummy entry per
    overflowing chunk of the kick-off list (the paper's dummy-entry
    mechanism).  The hot paths only evaluate this when a kick-off list
    actually crosses the capacity boundary (``kickoff_length`` and its
    neighbour both ``<= capacity`` means one way on both sides).
    """
    if kickoff_length <= kickoff_capacity:
        return 1
    overflow = kickoff_length - kickoff_capacity
    return 1 + -(-overflow // kickoff_capacity)


@dataclass(slots=True)
class TableStats:
    """Cumulative statistics of an :class:`AddressTable`.

    ``slots=True``: the tracker's hot loops update these fields inline.
    """

    insertions: int = 0
    evictions: int = 0
    set_conflicts: int = 0
    dummy_entries_peak: int = 0
    max_live_entries: int = 0


class AddressTable:
    """Geometry and structural accounting of one set-associative task graph.

    Parameters
    ----------
    num_sets:
        Number of sets (lines); must be a power of two so the set index is
        a simple bit slice of the address, as in the hardware.
    ways:
        Associativity of each set.
    kickoff_capacity:
        Number of waiting-task slots one entry can hold before the kick-off
        list spills into a chained dummy entry occupying another way.
    name:
        Identifier used in statistics (e.g. ``"TG3"``).
    """

    def __init__(
        self,
        num_sets: int = DEFAULT_TABLE_SETS,
        ways: int = DEFAULT_TABLE_WAYS,
        kickoff_capacity: int = DEFAULT_KICKOFF_CAPACITY,
        name: str = "task-graph",
    ) -> None:
        check_power_of_two("num_sets", num_sets)
        check_positive("ways", ways)
        check_positive("kickoff_capacity", kickoff_capacity)
        self.num_sets = num_sets
        self.ways = ways
        self.kickoff_capacity = kickoff_capacity
        self.name = name
        #: Ways in use per set — a flat list (the tracker indexes it with
        #: preresolved set indices; a dict would re-hash per access).
        self._set_occupancy: List[int] = [0] * num_sets
        #: Live entries (their state lives in the tracker's per-address lists).
        self._dense_live = 0
        self.stats = TableStats()

    # -- geometry -----------------------------------------------------------
    def set_index(self, address: int) -> int:
        """Set (line) index the address maps to.

        Addresses are cache-line aligned in the generated traces; skip the
        low 6 offset bits so consecutive lines land in consecutive sets.
        """
        return (address >> 6) & (self.num_sets - 1)

    @property
    def capacity_entries(self) -> int:
        """Total number of entries (ways) in the table."""
        return self.num_sets * self.ways

    @property
    def live_entries(self) -> int:
        """Number of addresses currently tracked."""
        return self._dense_live

    def set_occupancy(self, set_idx: int) -> int:
        """Number of ways currently used in set ``set_idx``."""
        return self._set_occupancy[set_idx]

    @property
    def set_occupancy_array(self) -> List[int]:
        """The mutable per-set way counters (tracker hot path)."""
        return self._set_occupancy

    def reset(self) -> None:
        """Drop all entries and statistics."""
        self._set_occupancy = [0] * self.num_sets
        self._dense_live = 0
        self.stats = TableStats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AddressTable({self.name!r}, sets={self.num_sets}, ways={self.ways}, "
            f"live={self.live_entries})"
        )
