#!/usr/bin/env python3
"""Large-scale streaming benchmark: a million-task trace, bounded RSS.

The paper's claim is that distributed hardware dependency resolution
keeps overhead flat as task counts grow; this benchmark exercises the
reproduction's *streaming* pipeline at a scale no materialised trace
could reach comfortably — a ~1M-task synthetic fork-join workload
(streamcluster-shaped: rounds of ~400 independent tasks joined by
barriers, the structure of the paper's largest workload) replayed
through all four golden managers via ``Machine.run_stream``.

Two measurement passes per manager:

* **throughput** — wall time, simulation events/sec and tasks/sec for
  the full stream, with process peak RSS (``ru_maxrss``) recorded before
  and after; the report asserts the final peak stays under
  ``--rss-bound-mb`` (the documented bound: streaming keeps live state
  O(in-flight tasks + live addresses), so RSS is flat in task count);
* **heap** — a ``tracemalloc``-instrumented run at reduced length
  (tracemalloc distorts wall time, and the streaming heap profile is
  scale-invariant — pinned by the bounded-memory property test in
  ``tests/properties/test_stream_memory.py``) documenting the traced
  Python-heap peak.

Run with::

    PYTHONPATH=src python benchmarks/bench_large_scale.py [--quick]

Writes ``BENCH_large_scale.json`` (repo root by default).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.factories import (  # noqa: E402
    ideal_factory,
    nanos_factory,
    nexus_pp_factory,
    nexus_sharp_factory,
)
from repro.system.machine import Machine, MachineConfig  # noqa: E402
from repro.workloads.synthetic import stream_fork_join  # noqa: E402

BENCH_SEED = 2015
#: Tasks per fork-join round (the paper's streamcluster runs "groups of
#: about 400 tasks followed by a taskwait").
ROUND_WIDTH = 400

MANAGERS = {
    "ideal": ideal_factory(),
    "nanos": nanos_factory(),
    "nexus++": nexus_pp_factory(),
    "nexus#6": nexus_sharp_factory(6),
}


def _peak_rss_mb() -> float:
    """Process-lifetime peak RSS in MiB (ru_maxrss is KiB on Linux,
    bytes on macOS)."""
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / divisor


def _phases_for(num_tasks: int) -> int:
    """Fork-join rounds needed for at least ``num_tasks`` tasks."""
    return max(1, math.ceil(num_tasks / (ROUND_WIDTH + 1)))


def _make_stream(phases: int):
    return stream_fork_join(
        phases, ROUND_WIDTH, duration_us=80.0, seed=BENCH_SEED,
        name="large-scale-fork-join",
    )


def _run_stream(factory, phases: int, cores: int, max_in_flight: int):
    machine = Machine(factory(), MachineConfig(num_cores=cores, keep_schedule=False))
    result = machine.run_stream(_make_stream(phases), max_in_flight=max_in_flight)
    return result, machine.last_events_processed


def run_benchmark(
    num_tasks: int,
    heap_tasks: int,
    cores: int,
    max_in_flight: int,
    rss_bound_mb: float,
) -> Dict[str, object]:
    phases = _phases_for(num_tasks)
    heap_phases = _phases_for(heap_tasks)
    per_manager: Dict[str, object] = {}
    for name, factory in MANAGERS.items():
        rss_before_mb = _peak_rss_mb()
        start = time.perf_counter()
        result, events = _run_stream(factory, phases, cores, max_in_flight)
        wall_s = time.perf_counter() - start
        rss_after_mb = _peak_rss_mb()

        tracemalloc.start()
        _run_stream(factory, heap_phases, cores, max_in_flight)
        _, heap_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        per_manager[name] = {
            "num_tasks": result.num_tasks,
            "makespan_us": result.makespan_us,
            "wall_seconds": round(wall_s, 3),
            "events_processed": events,
            "events_per_sec": round(events / wall_s) if wall_s > 0 else None,
            "tasks_per_sec": round(result.num_tasks / wall_s) if wall_s > 0 else None,
            "peak_rss_before_mb": round(rss_before_mb, 1),
            "peak_rss_after_mb": round(rss_after_mb, 1),
            "heap_pass_tasks": heap_phases * (ROUND_WIDTH + 1),
            "heap_peak_mb": round(heap_peak / (1024 * 1024), 2),
        }
        print(f"{name:8s} {result.num_tasks:>9,} tasks  {wall_s:7.1f}s  "
              f"{per_manager[name]['events_per_sec']:>9,} ev/s  "
              f"peak RSS {rss_after_mb:6.1f} MB  "
              f"heap peak {per_manager[name]['heap_peak_mb']:6.2f} MB")

    final_peak_mb = _peak_rss_mb()
    return {
        "benchmark": "large_scale_streaming",
        "schema": 1,
        "config": {
            "workload": f"fork-join stream: {phases} rounds x {ROUND_WIDTH} tasks "
                        "+ 1 reduce, taskwait-joined (streamcluster-shaped)",
            "num_tasks": phases * (ROUND_WIDTH + 1),
            "cores": cores,
            "seed": BENCH_SEED,
            "max_in_flight": max_in_flight,
            "machine_config": "run_stream, fifo scheduler, homogeneous topology, "
                              "keep_schedule=False",
            "note": "RSS bound holds because run_stream keeps live state "
                    "O(in-flight tasks + live addresses), never O(total tasks); "
                    "the heap pass runs shorter under tracemalloc (which "
                    "distorts wall time) — the streaming heap profile is "
                    "scale-invariant, see tests/properties/test_stream_memory.py",
        },
        "managers": per_manager,
        "peak_rss_mb": round(final_peak_mb, 1),
        "rss_bound_mb": rss_bound_mb,
        "meets_rss_bound": final_peak_mb <= rss_bound_mb,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="~50k tasks instead of 1M (CI smoke mode)")
    parser.add_argument("--num-tasks", type=int, default=None,
                        help="target task count (default 1_000_000, quick 50_000)")
    parser.add_argument("--cores", type=int, default=32)
    parser.add_argument("--max-in-flight", type=int, default=4096,
                        help="back-pressure window for run_stream")
    parser.add_argument("--rss-bound-mb", type=float, default=256.0,
                        help="documented peak-RSS ceiling the run must stay under")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_large_scale.json"))
    args = parser.parse_args()

    num_tasks = args.num_tasks if args.num_tasks is not None else (
        50_000 if args.quick else 1_000_000)
    heap_tasks = min(num_tasks, 20_000 if args.quick else 100_000)
    report = run_benchmark(
        num_tasks=num_tasks,
        heap_tasks=heap_tasks,
        cores=args.cores,
        max_in_flight=args.max_in_flight,
        rss_bound_mb=args.rss_bound_mb,
    )

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    print(f"peak RSS {report['peak_rss_mb']} MB (bound {report['rss_bound_mb']} MB) "
          f"-> {'OK' if report['meets_rss_bound'] else 'EXCEEDED'}")
    return 0 if report["meets_rss_bound"] else 1


if __name__ == "__main__":
    sys.exit(main())
