"""Task-manager models.

Every scheme the paper compares implements the common
:class:`repro.managers.base.TaskManagerModel` interface so that the
multicore machine simulator (:mod:`repro.system`) can drive any of them
interchangeably:

* :class:`repro.managers.ideal.IdealManager` — the paper's "No Overhead"
  simulation (zero-cost dependency resolution).
* :class:`repro.managers.nanos.NanosManager` — an analytical model of the
  Nanos software runtime (master-side task creation plus a lock-protected
  dependency-resolution critical section).
* :class:`repro.managers.software.VandierendonckManager` — an optimistic
  software task-graph manager modelled after the 400-cycles-per-task
  figure the paper quotes from Vandierendonck et al. [17].
* :class:`repro.nexus.nexuspp.NexusPlusPlusManager` — the centralised
  hardware baseline (imported from :mod:`repro.nexus`).
* :class:`repro.nexus.nexussharp.NexusSharpManager` — the paper's
  contribution (imported from :mod:`repro.nexus`).
"""

from repro.managers.base import TaskManagerModel
from repro.managers.ideal import IdealManager
from repro.managers.nanos import NanosConfig, NanosManager
from repro.managers.software import VandierendonckConfig, VandierendonckManager

__all__ = [
    "TaskManagerModel",
    "IdealManager",
    "NanosManager",
    "NanosConfig",
    "VandierendonckManager",
    "VandierendonckConfig",
]
