"""Task-graph storage structures.

Nexus++ and Nexus# track dependencies with cache-like hardware tables
(Section III / IV of the paper): a set-associative table keyed by
parameter address whose entries hold a *Kick-Off List* of tasks waiting
for that address, and a *Dependence Counts* table holding, per in-flight
task, the number of addresses it still waits on.

This package implements those structures functionally (the dependency
bookkeeping) and structurally (capacities, set conflicts, overflow into
chained "dummy" entries) so the manager models can layer timing on top.
The hardware's Task Pool and Function Pointers table take no part in
dependence resolution; the Nexus timing models charge their cycles.

Modules
-------
* :mod:`repro.taskgraph.table` — the set-associative container with
  way-conflict accounting.
* :mod:`repro.taskgraph.tracker` — :class:`DependencyTracker`, the
  complete functional dependency engine shared by every hardware model,
  and the one description of the per-address state machine (active
  count, writer flag and a kick-off queue consumed through a cursor)
  that the replay kernel of :mod:`repro.sim.batch` keeps too.
"""

from repro.taskgraph.table import AddressTable, TableStats
from repro.taskgraph.tracker import DependencyTracker

__all__ = [
    "AddressTable",
    "TableStats",
    "DependencyTracker",
]
