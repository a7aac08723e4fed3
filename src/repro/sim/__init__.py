"""Simulation substrate.

The Nexus# evaluation in the paper is a ModelSim testbench driving a VHDL
model cycle by cycle.  Re-running a cycle-accurate RTL simulation of up to
650 000 tasks in Python would be prohibitively slow, so this package
provides a *cycle-approximate* substrate instead:

* :class:`repro.sim.resource.SerialResource` — a unit that can only work
  on one item at a time (the Input Parser, each task graph's insertion
  port, the Dependence Counts Arbiter, the Write-Back port, a software
  lock).  Reserving a resource returns the start/end times of the
  occupancy, which is exactly the information the manager models need to
  compute when a task becomes ready.
* :mod:`repro.sim.batch` — the fast replay kernel that
  :meth:`repro.system.machine.Machine.run` picks for constant-foldable
  managers, byte-identical to the general engine of
  :mod:`repro.system.dynamic` (exposed lazily below: the kernel module
  pulls in the system layer and numpy).
"""

from repro.sim.resource import ResourceStats, SerialResource

__all__ = [
    "SerialResource",
    "ResourceStats",
    "LaneProgram",
    "LaneSpec",
    "lane_fallback_reason",
    "run_lanes",
]

#: Kernel-module symbols resolved lazily from :mod:`repro.sim.batch`
#: (it imports the system layer, whose managers import the resources
#: above — a lazy hook keeps the package import acyclic and light).
_BATCH_EXPORTS = frozenset(
    {"LaneProgram", "LaneSpec", "lane_fallback_reason", "run_lanes"}
)


def __getattr__(name):
    if name in _BATCH_EXPORTS:
        from repro.sim import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
