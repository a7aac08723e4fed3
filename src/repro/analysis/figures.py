"""Regeneration of the paper's figures (as numeric series + text tables).

Figures are reproduced as data series (speedup vs. number of cores)
rendered to plain text; no plotting backend is required.  Each
``figureN_report`` returns a dictionary containing the raw series plus a
``text`` rendering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.factories import (
    ManagerFactory,
    ideal_factory,
    nexus_pp_factory,
    nexus_sharp_factory,
    paper_manager_set,
)
from repro.analysis.formatting import render_table
from repro.analysis.speedup import ScalabilityStudy, run_scalability
from repro.common.constants import NANOS_MAX_CORES, PAPER_CORE_COUNTS
from repro.nexus.distribution import (
    best_case_round_robin,
    distribution_histogram,
    fairness_index,
    nexus_hash_array,
    worst_case_blocked,
)
from repro.nexus.nexussharp import NexusSharpConfig, NexusSharpManager
from repro.workloads.gaussian import generate_gaussian_elimination
from repro.workloads.h264dec import generate_h264dec
from repro.workloads.microbench import (
    PAPER_NEXUS_SHARP_CYCLES,
    PAPER_TASK_SUPERSCALAR_CYCLES,
    generate_microbenchmark,
)
from repro.workloads.registry import get_workload, paper_table2_workloads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import SweepRunner

#: Default Nexus# task-graph counts swept in Figure 7 (same as the paper).
FIGURE7_TASK_GRAPHS = (1, 2, 4, 6, 8)


def figure7_report(
    groupings: Sequence[int] = (1, 2, 4, 8),
    task_graph_counts: Sequence[int] = FIGURE7_TASK_GRAPHS,
    core_counts: Sequence[int] = PAPER_CORE_COUNTS,
    *,
    scale: float = 0.05,
    num_frames: int = 10,
    seed: Optional[int] = None,
    include_ideal: bool = True,
    runner: Optional["SweepRunner"] = None,
) -> Dict[str, object]:
    """Figure 7: Nexus# scalability on h264dec vs. number of task graphs.

    Panel (a) runs every configuration at a flat 100 MHz, panel (b) at the
    synthesis (test) frequency of Table I — both are produced.
    """
    panels: Dict[str, Dict[str, ScalabilityStudy]] = {"100MHz": {}, "synthesis": {}}
    texts = []
    for grouping in groupings:
        trace = generate_h264dec(grouping=grouping, num_frames=num_frames, scale=scale, seed=seed)
        for panel, frequency in (("100MHz", 100.0), ("synthesis", None)):
            managers: Dict[str, ManagerFactory] = {}
            if include_ideal:
                managers["Ideal"] = ideal_factory()
            for num_tg in task_graph_counts:
                managers[f"Nexus# {num_tg}TG"] = nexus_sharp_factory(num_tg, frequency)
            study = run_scalability(trace, managers, core_counts, runner=runner)
            panels[panel][trace.name] = study
            texts.append(study.render(f"Figure 7({'a' if panel == '100MHz' else 'b'}) {trace.name} @ {panel}"))
    return {"panels": panels, "scale": scale, "text": "\n\n".join(texts)}


def figure8_report(
    workloads: Optional[Sequence[str]] = None,
    core_counts: Sequence[int] = PAPER_CORE_COUNTS,
    *,
    scale: float = 0.05,
    seed: Optional[int] = None,
    nexus_sharp_task_graphs: int = 6,
    runner: Optional["SweepRunner"] = None,
) -> Dict[str, object]:
    """Figure 8: speedups of Nanos / Nexus++ / Nexus# vs. the ideal curve.

    Nexus# uses 6 task graphs at the 55.56 MHz synthesis frequency,
    Nexus++ runs at 100 MHz and Nanos is limited to 32 cores, exactly as
    in the paper's setup.
    """
    workloads = tuple(workloads or paper_table2_workloads())
    managers = paper_manager_set(nexus_sharp_task_graphs=nexus_sharp_task_graphs)
    max_cores = {"Nanos": NANOS_MAX_CORES}
    studies: Dict[str, ScalabilityStudy] = {}
    texts = []
    for name in workloads:
        trace = get_workload(name, scale=scale, seed=seed)
        study = run_scalability(trace, managers, core_counts, max_cores=max_cores, runner=runner)
        studies[name] = study
        texts.append(study.render(f"Figure 8: {name} [scale={scale}]"))
    return {"studies": studies, "scale": scale, "text": "\n\n".join(texts)}


def figure9_report(
    matrix_sizes: Sequence[int] = (250, 500, 1000, 3000),
    core_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    *,
    frequency_mhz: float = 100.0,
    tightly_coupled: bool = True,
    include_ideal: bool = True,
    runner: Optional["SweepRunner"] = None,
) -> Dict[str, object]:
    """Figure 9: Gaussian elimination on Nexus++, Nexus# 1 TG and 2 TG.

    All managers run at 100 MHz as in the paper.  The benchmark is not
    trace-based in the paper; the ``tightly_coupled`` timing preset drops
    the PCIe-transfer cycles accordingly (see EXPERIMENTS.md).
    """
    managers: Dict[str, ManagerFactory] = {}
    if include_ideal:
        managers["Ideal"] = ideal_factory()
    managers["Nexus++"] = nexus_pp_factory(frequency_mhz, tightly_coupled=tightly_coupled)
    managers["Nexus# 1TG"] = nexus_sharp_factory(1, frequency_mhz, tightly_coupled=tightly_coupled)
    managers["Nexus# 2TG"] = nexus_sharp_factory(2, frequency_mhz, tightly_coupled=tightly_coupled)
    studies: Dict[int, ScalabilityStudy] = {}
    texts = []
    for n in matrix_sizes:
        trace = generate_gaussian_elimination(matrix_size=n)
        study = run_scalability(trace, managers, core_counts, runner=runner)
        studies[n] = study
        texts.append(study.render(f"Figure 9: Gaussian elimination, matrix {n}x{n}"))
    return {"studies": studies, "text": "\n\n".join(texts)}


def microbenchmark_report(num_task_graphs: int = 1, frequency_mhz: float = 100.0) -> Dict[str, object]:
    """Section IV-E micro-benchmark: cycles to insert 5 independent tasks.

    The paper reports 78 cycles for Nexus# with one task graph, against
    172 cycles for the task-superscalar prototype of [19].
    """
    trace = generate_microbenchmark()
    manager = NexusSharpManager(
        NexusSharpConfig(num_task_graphs=num_task_graphs, frequency_mhz=frequency_mhz)
    )
    manager.reset()
    last_ready_us = 0.0
    accept_us = 0.0
    for task in trace.tasks():
        accept_us, ready = manager.submit(task, accept_us)
        for _, ready_us in ready:
            last_ready_us = max(last_ready_us, ready_us)
    measured_cycles = last_ready_us * frequency_mhz
    rows = [
        ["Nexus# (this model)", round(measured_cycles, 1)],
        ["Nexus# (paper)", PAPER_NEXUS_SHARP_CYCLES],
        ["Task Superscalar [19] (paper)", PAPER_TASK_SUPERSCALAR_CYCLES],
    ]
    text = render_table(
        ["design", "cycles to report 5 independent 2-parameter tasks ready"],
        rows,
        title="Micro-benchmark (Section IV-E)",
    )
    return {
        "measured_cycles": measured_cycles,
        "paper_cycles": PAPER_NEXUS_SHARP_CYCLES,
        "task_superscalar_cycles": PAPER_TASK_SUPERSCALAR_CYCLES,
        "text": text,
    }


def distribution_quality_report(
    num_addresses: int = 20000,
    task_graph_counts: Sequence[int] = (2, 4, 6, 8, 16, 32),
    *,
    seed: Optional[int] = None,
    stride: int = 64,
) -> Dict[str, object]:
    """Figure 3 design study: fairness of the XOR-fold distribution hash.

    Compares the hash against the best case (round robin) and the worst
    case (blocked assignment) on a synthetic heap-like address stream.
    """
    rng = np.random.default_rng(0 if seed is None else seed)
    base = 0x7F3A_0000_0000
    offsets = np.cumsum(rng.integers(1, 8, size=num_addresses)) * stride
    addresses = (base + offsets).astype(np.uint64)
    rows = []
    data = {}
    for num_tg in task_graph_counts:
        histogram = distribution_histogram(addresses, num_tg)
        hash_fair = fairness_index(histogram)
        rr_fair = fairness_index(np.bincount(best_case_round_robin(num_addresses, num_tg), minlength=num_tg))
        blocked = np.bincount(worst_case_blocked(num_addresses, num_tg), minlength=num_tg)
        blocked_fair = fairness_index(blocked)
        data[num_tg] = {"histogram": histogram, "fairness": hash_fair}
        rows.append([num_tg, round(hash_fair, 4), round(rr_fair, 4), round(blocked_fair, 4),
                     int(histogram.max()), int(histogram.min())])
    text = render_table(
        ["task graphs", "XOR-hash fairness", "round-robin fairness", "blocked fairness",
         "max per TG", "min per TG"],
        rows,
        title="Distribution quality (Figure 3 design point)",
    )
    return {"data": data, "text": text}
