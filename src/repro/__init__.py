"""repro — a Python reproduction of *Nexus#: A Distributed Hardware Task
Manager for Task-Based Programming Models* (Dallou, Engelhardt, Elhossini,
Juurlink — IPDPS 2015).

The package provides:

* cycle-approximate models of the **Nexus#** distributed hardware task
  manager and its centralised predecessor **Nexus++** (:mod:`repro.nexus`);
* software baselines: the **Nanos** OmpSs runtime model, an optimistic
  400-cycle software manager, and the zero-overhead **Ideal** manager
  (:mod:`repro.managers`);
* a trace-driven **multicore machine simulator** replaying OmpSs-style
  task programs, including ``taskwait`` / ``taskwait on`` semantics
  (:mod:`repro.system`, :mod:`repro.trace`);
* **workload generators** reproducing the structure of the paper's
  Starbench traces, the Gaussian-elimination micro-benchmark and the
  5-task insertion micro-benchmark (:mod:`repro.workloads`);
* an **OmpSs-like Python API** for writing new task programs
  (:mod:`repro.runtime`);
* a declarative, cached, parallel **experiment layer** — ``SweepSpec`` /
  ``SweepRunner`` grids over workloads × managers × cores × seeds
  (:mod:`repro.experiments`);
* the **FPGA resource model** of Table I (:mod:`repro.fpga`) and the
  **analysis layer** regenerating every table and figure of the paper
  (:mod:`repro.analysis`).

Quickstart::

    from repro import (NexusSharpConfig, NexusSharpManager, generate_h264dec,
                       simulate)

    trace = generate_h264dec(grouping=1, num_frames=10, scale=0.05)
    manager = NexusSharpManager(NexusSharpConfig(num_task_graphs=6))
    result = simulate(trace, manager, num_cores=16)
    print(result.speedup_vs_serial)
"""

from repro.common.errors import (
    AnalysisError,
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.managers import (
    IdealManager,
    NanosConfig,
    NanosManager,
    TaskManagerModel,
    VandierendonckConfig,
    VandierendonckManager,
)
from repro.nexus import (
    NexusPlusPlusConfig,
    NexusPlusPlusManager,
    NexusSharpConfig,
    NexusSharpManager,
    nexus_hash,
)
from repro.experiments import ResultCache, SweepRunner, SweepSpec, run_sweep
from repro.runtime import DataHandle, DataMatrix, TaskProgram
from repro.system import Machine, MachineConfig, MachineResult, simulate
from repro.trace import (
    Direction,
    Parameter,
    Trace,
    TraceBuilder,
    TaskDescriptor,
    build_dependency_graph,
    compute_statistics,
    load_trace,
    save_trace,
)
from repro.workloads import (
    generate_cray,
    generate_gaussian_elimination,
    generate_h264dec,
    generate_microbenchmark,
    generate_rotcc,
    generate_sparselu,
    generate_streamcluster,
    get_workload,
    list_workloads,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ConfigurationError",
    "TraceError",
    "SimulationError",
    "AnalysisError",
    # managers
    "TaskManagerModel",
    "IdealManager",
    "NanosManager",
    "NanosConfig",
    "VandierendonckManager",
    "VandierendonckConfig",
    "NexusPlusPlusManager",
    "NexusPlusPlusConfig",
    "NexusSharpManager",
    "NexusSharpConfig",
    "nexus_hash",
    # experiments
    "SweepSpec",
    "SweepRunner",
    "ResultCache",
    "run_sweep",
    # runtime API
    "TaskProgram",
    "DataHandle",
    "DataMatrix",
    # machine
    "Machine",
    "MachineConfig",
    "MachineResult",
    "simulate",
    # trace model
    "Direction",
    "Parameter",
    "TaskDescriptor",
    "Trace",
    "TraceBuilder",
    "build_dependency_graph",
    "compute_statistics",
    "save_trace",
    "load_trace",
    # workloads
    "generate_cray",
    "generate_rotcc",
    "generate_sparselu",
    "generate_streamcluster",
    "generate_h264dec",
    "generate_gaussian_elimination",
    "generate_microbenchmark",
    "get_workload",
    "list_workloads",
    "__version__",
]
