"""Per-address dependency bookkeeping.

For every memory address it tracks, the task graph must answer two
questions:

1. *insertion*: does a newly submitted task that accesses this address
   have to wait, and if so, put it on the address' kick-off list;
2. *completion*: when a task that accessed this address finishes, which
   waiting tasks can now be kicked off?

The scheme below serialises accesses per address the same way the OmpSs
runtime (and the Nexus++ hardware) does:

* readers since the last writer may run concurrently;
* a writer waits for the previous writer *and* all readers since then
  (WAW + WAR);
* a reader waits for the last writer if it has not finished (RAW);
* to preserve program order per address, any task arriving while others
  are already waiting on the address queues behind them.

The result is exactly the partial order of the reference dependency DAG
(:mod:`repro.trace.dag`), which the integration tests assert.
"""

from __future__ import annotations

from typing import List, Set

from repro.common.errors import SimulationError


class AddressCell:
    """Array-backed dependency state of one tracked address.

    The golden tracker-equivalence suite pins its semantics against the
    frozen deque-based engine; the layout serves the hot path:

    * the kick-off list is two parallel plain lists (``waiter_ids`` /
      ``waiter_flags``) consumed through a ``waiter_head`` cursor, so
      activation is index arithmetic instead of ``deque`` object churn
      (the cursor region is compacted opportunistically);
    * access modes are the integer direction flags of
      :mod:`repro.trace.compiled` (bit 0 = reads, bit 1 = writes);
    * ``recycle()`` re-initialises the cell in place, so the tracker
      keeps evicted cells on a free list instead of allocating a fresh
      reader set and waiter lists for every address insertion.
    """

    __slots__ = ("address", "writer", "readers", "waiter_ids", "waiter_flags",
                 "waiter_head", "klen")

    def __init__(self, address: int) -> None:
        self.address = address
        #: Task currently owning the address for writing, or -1.
        self.writer = -1
        self.readers: Set[int] = set()
        self.waiter_ids: List[int] = []
        self.waiter_flags: List[int] = []
        self.waiter_head = 0
        #: Pending waiter count (``len(waiter_ids) - waiter_head``), kept
        #: as a field so the hot paths read one attribute instead of
        #: recomputing list lengths.
        self.klen = 0

    def recycle(self, address: int) -> None:
        """Re-initialise the (evicted) cell for a new address, in place."""
        self.address = address
        self.writer = -1
        self.readers.clear()
        self.waiter_ids.clear()
        self.waiter_flags.clear()
        self.waiter_head = 0
        self.klen = 0

    # -- queries -------------------------------------------------------------
    @property
    def kickoff_length(self) -> int:
        """Current number of tasks waiting on this address."""
        return self.klen

    @property
    def is_idle(self) -> bool:
        """True when no unfinished task references this address."""
        return self.writer < 0 and not self.readers and self.klen == 0

    # -- insertion -------------------------------------------------------------
    def insert(self, task_id: int, flags: int) -> bool:
        """Register an access with direction ``flags``; True = must wait."""
        if self.klen == 0:
            # No queued waiters: the access may become an owner directly;
            # otherwise it queues (program order per address).
            if flags & 2:  # writes
                if self.writer < 0 and not self.readers:
                    self.writer = task_id
                    return False
            elif self.writer < 0:  # pure reader
                self.readers.add(task_id)
                return False
        self.waiter_ids.append(task_id)
        self.waiter_flags.append(flags)
        self.klen += 1
        return True

    # -- completion -------------------------------------------------------------
    def finish(self, task_id: int) -> List[int]:
        """Register that ``task_id`` finished; return the kicked-off ids.

        The returned tasks have been activated on this address (they
        became active readers / the writer); the caller must decrement
        their dependence counts, in order.
        """
        if self.writer == task_id:
            self.writer = -1
        elif task_id in self.readers:
            self.readers.discard(task_id)
        else:
            raise SimulationError(
                f"task {task_id} finished but is neither the active writer nor an active "
                f"reader of address {self.address:#x}"
            )
        released: List[int] = []
        if self.klen:
            ids = self.waiter_ids
            head = self.waiter_head
            end = len(ids)
            flags = self.waiter_flags
            readers = self.readers
            while head < end:
                flag = flags[head]
                if flag & 2:
                    if self.writer < 0 and not readers:
                        waiter = ids[head]
                        head += 1
                        self.writer = waiter
                        released.append(waiter)
                    break
                # head is a pure reader: consecutive readers start together.
                if self.writer >= 0:
                    break
                waiter = ids[head]
                head += 1
                readers.add(waiter)
                released.append(waiter)
            if released:
                self.klen = end - head
            if head >= end:
                ids.clear()
                flags.clear()
                head = 0
            elif head > 64 and head * 2 >= end:
                # Compact the consumed prefix so long-lived kick-off lists
                # stay O(pending waiters), like the deque they replace.
                del ids[:head]
                del flags[:head]
                head = 0
            self.waiter_head = head
        return released
