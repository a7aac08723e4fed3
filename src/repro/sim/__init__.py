"""Discrete-event simulation substrate.

The Nexus# evaluation in the paper is a ModelSim testbench driving a VHDL
model cycle by cycle.  Re-running a cycle-accurate RTL simulation of up to
650 000 tasks in Python would be prohibitively slow, so this package
provides a *cycle-approximate*, event-driven substrate instead:

* :class:`repro.sim.engine.EventQueue` / :class:`repro.sim.engine.Simulator`
  — a classic heapq-based discrete-event core with deterministic
  tie-breaking.
* :class:`repro.sim.resource.SerialResource` — a unit that can only work
  on one item at a time (the Input Parser, each task graph's insertion
  port, the Dependence Counts Arbiter, the Write-Back port, a software
  lock).  Reserving a resource returns the start/end times of the
  occupancy, which is exactly the information the manager models need to
  compute when a task becomes ready.
* :mod:`repro.sim.batch` — the fast replay kernel that
  :meth:`repro.system.machine.Machine.run` picks for constant-foldable
  managers, byte-identical to the general engine (exposed lazily below to
  keep the engine import light; the kernel module pulls in the system
  layer and numpy).
"""

from repro.sim.engine import Event, EventQueue, Simulator
from repro.sim.resource import MultiResource, ResourceStats, SerialResource

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "SerialResource",
    "MultiResource",
    "ResourceStats",
    "LaneProgram",
    "LaneSpec",
    "lane_fallback_reason",
    "run_lanes",
]

#: Kernel-module symbols resolved lazily from :mod:`repro.sim.batch`
#: (it imports the system layer, which itself imports the event engine
#: above — a lazy hook keeps the package import acyclic and light).
_BATCH_EXPORTS = frozenset(
    {"LaneProgram", "LaneSpec", "lane_fallback_reason", "run_lanes"}
)


def __getattr__(name):
    if name in _BATCH_EXPORTS:
        from repro.sim import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
