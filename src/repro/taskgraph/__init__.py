"""Task-graph storage structures.

Nexus++ and Nexus# track dependencies with cache-like hardware tables
(Section III / IV of the paper): a set-associative table keyed by
parameter address whose entries hold a *Kick-Off List* of tasks waiting
for that address, a *Dependence Counts* table holding, per in-flight
task, the number of addresses it still waits on, a *Task Pool* storing
the descriptors of in-flight tasks (needed again when the task finishes),
and a *Function Pointers* table translating task ids back to the function
the worker core must run.

This package implements those structures functionally (the dependency
bookkeeping) and structurally (capacities, set conflicts, overflow into
chained "dummy" entries) so the manager models can layer timing on top.

Modules
-------
* :mod:`repro.taskgraph.address_state` — per-address reader/writer and
  kick-off-list bookkeeping (the functional heart of dependency
  resolution).
* :mod:`repro.taskgraph.table` — the set-associative container with
  way-conflict accounting.
* :mod:`repro.taskgraph.task_pool` — in-flight task descriptor storage.
* :mod:`repro.taskgraph.function_table` — function-pointer table.
* :mod:`repro.taskgraph.tracker` — :class:`DependencyTracker`, the
  complete functional dependency engine shared by every hardware model.
"""

from repro.taskgraph.address_state import AccessMode, AddressCell, Waiter
from repro.taskgraph.function_table import FunctionTable
from repro.taskgraph.table import AddressTable, TableStats
from repro.taskgraph.task_pool import TaskPool
from repro.taskgraph.tracker import DependencyTracker

__all__ = [
    "AccessMode",
    "AddressCell",
    "Waiter",
    "FunctionTable",
    "AddressTable",
    "TableStats",
    "TaskPool",
    "DependencyTracker",
]
