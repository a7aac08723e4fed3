"""The Dependence Counts Arbiter (gather step of the scatter-gather scheme).

Because a task's parameters are scattered over several task graphs, a
final gather must combine the per-task-graph results before the task's
readiness is known (Section IV-C).  The arbiter:

* collects, per new task, one result per parameter ("Rdy Tasks Buffer"
  for immediately-ready single-parameter tasks, "Dep. Counts Buffer"
  otherwise), keeping partial counts for tasks whose parameters have not
  all been processed yet in the *Sim(-ultaneous) Tasks Dep. Counts
  Buffer*;
* when the last parameter of a task reports, concludes its final
  dependence count and either forwards it to the Internal Ready Tasks
  Buffer or stores the count in the global Dep. Counts Table;
* when a finished task kicks off waiting tasks, decrements their counts
  one by one and forwards those reaching zero.

The functional part of the bookkeeping (who waits on how many addresses)
already lives in :class:`repro.taskgraph.tracker.DependencyTracker`; the
arbiter model here tracks the *gather timing*: the arbiter is a serial
unit, so its occupancy contributes to the ready-task latency, and with
many task graphs it becomes the convergence point the paper warns about
("the Dependence Count Arbiter handles a relatively large amount of
computation, which might eventually make it a bottleneck").
"""

from __future__ import annotations

from repro.common.errors import SimulationError
from repro.sim.resource import SerialResource


class DependenceCountsArbiter:
    """Serial gather unit combining per-task-graph insertion results."""

    def __init__(self, cycles_per_result: float, conclude_cycles: float, decrement_cycles: float, cycle_us: float) -> None:
        if cycle_us <= 0:
            raise SimulationError(f"cycle time must be positive, got {cycle_us}")
        self._resource = SerialResource("dependence-counts-arbiter")
        # Precomputed per-operation occupancies (µs): the batch paths run
        # pure float arithmetic instead of one reserve() call per result.
        self._result_us = cycles_per_result * cycle_us
        self._conclude_us = conclude_cycles * cycle_us
        self._decrement_us = decrement_cycles * cycle_us

    def gather(self, result_times_sorted) -> float:
        """Gather a whole task's per-task-graph results in one call.

        ``result_times_sorted`` are the per-parameter result-ready times
        in non-decreasing order.  Each result occupies the arbiter for
        ``cycles_per_result`` cycles, in order; the final dependence count
        is concluded right after the last one.  Returns the conclude time.
        """
        resource = self._resource
        stats = resource.stats
        next_free = resource._next_free
        result_us = self._result_us
        count = 0
        for ready in result_times_sorted:
            start = ready if ready > next_free else next_free
            next_free = start + result_us
            stats.busy_time += result_us
            stats.total_wait += start - ready
            count += 1
        # Conclude the final dependence count: the reservation starts the
        # moment the last result was collected, so it never waits.
        next_free += self._conclude_us
        stats.busy_time += self._conclude_us
        stats.reservations += count + 1
        resource._next_free = next_free
        return next_free

    def decrement_many(self, ready_us: float, count: int) -> list:
        """Process ``count`` back-to-back decrements available at ``ready_us``.

        Returns the per-decrement completion times, in order.
        """
        resource = self._resource
        stats = resource.stats
        next_free = resource._next_free
        decrement_us = self._decrement_us
        ends = []
        append = ends.append
        for _ in range(count):
            start = ready_us if ready_us > next_free else next_free
            next_free = start + decrement_us
            stats.busy_time += decrement_us
            stats.total_wait += start - ready_us
            append(next_free)
        stats.reservations += count
        resource._next_free = next_free
        return ends

    @property
    def busy_time_us(self) -> float:
        return self._resource.stats.busy_time

    def reset(self) -> None:
        self._resource.reset()
