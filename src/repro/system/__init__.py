"""Multicore machine simulator (the paper's RTS testbench).

The machine replays a trace against a task-manager model on a
configurable number of worker cores: the master thread submits tasks (and
executes ``taskwait`` / ``taskwait on`` barriers), the manager reports
ready tasks, free cores execute them for their traced duration, and
completions are fed back to the manager — exactly the loop described in
Section V-B of the paper.

The runtime is layered (see ``README.md``, "Architecture"):

* :class:`repro.system.machine.Machine` — the event-driven simulator;
  its general engine (:mod:`repro.system.dynamic`) and fast kernel
  (:mod:`repro.sim.batch`) each pop their own heap of event tuples.
* :class:`repro.system.machine.MachineConfig` — core count, scheduler
  policy, topology and options.
* :class:`repro.system.scheduling.SchedulerPolicy` — pluggable ready-task
  dispatch (``fifo`` / ``sjf`` / ``ljf`` / ``locality``).
* :class:`repro.system.topology.CoreTopology` /
  :class:`repro.system.topology.CorePool` — heterogeneous worker cores
  (per-core speed factors, big.LITTLE splits).
* :class:`repro.system.timeline.TaskTimeline` — struct-of-arrays per-task
  schedule record.
* :class:`repro.system.results.MachineResult` — schedule, makespan and
  per-component statistics of one run (incl. per-core utilisation).
"""

from repro.system.machine import Machine, MachineConfig, simulate, simulate_dynamic, simulate_stream
from repro.system.results import MachineResult
from repro.system.scheduling import (
    DurationPriorityPolicy,
    FifoPolicy,
    LocalityPolicy,
    SchedulerPolicy,
    list_policies,
    make_policy,
)
from repro.system.timeline import TaskTimeline
from repro.system.topology import CorePool, CoreTopology, TopologySpec, resolve_topology

__all__ = [
    "Machine",
    "MachineConfig",
    "MachineResult",
    "simulate",
    "simulate_dynamic",
    "simulate_stream",
    "SchedulerPolicy",
    "FifoPolicy",
    "DurationPriorityPolicy",
    "LocalityPolicy",
    "make_policy",
    "list_policies",
    "CoreTopology",
    "CorePool",
    "TopologySpec",
    "resolve_topology",
    "TaskTimeline",
]
