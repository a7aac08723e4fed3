"""Command-line entry point for experiment sweeps.

Examples::

    python -m repro.experiments.cli sweep \\
        --workloads c-ray sparselu --managers ideal nanos "nexus#6" \\
        --cores 1 4 16 64 --scale 0.05 --seeds 2015 \\
        --n-jobs 4 --cache-dir .sweep-cache --output results.jsonl

    python -m repro.experiments.cli sweep \\
        --workloads sparselu --managers ideal nanos --cores 1 4 16 \\
        --workers 4 --cache-dir .sweep-cache --output results.jsonl

    python -m repro.experiments.cli spec-hash --workloads microbench \\
        --managers ideal --cores 1 2

    python -m repro.experiments.cli report results.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.profiling import maybe_profile
from repro.experiments.runner import SweepRunner, rows_to_studies
from repro.experiments.spec import SweepSpec
from repro.trace.serialization import iter_jsonl
from repro.workloads.registry import list_workloads


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workloads", nargs="+", required=True,
                        help="registry workload names (see `workloads` subcommand)")
    parser.add_argument("--managers", nargs="+", required=True,
                        help="manager specs: ideal, nanos, sw400, nexus++, nexus#<n>[@MHz]")
    parser.add_argument("--cores", type=int, nargs="+", required=True,
                        help="worker-core counts to sweep")
    parser.add_argument("--seeds", type=int, nargs="*", default=None,
                        help="workload seeds (default: generator defaults)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--nanos-max-cores", type=int, default=None,
                        help="cap the Nanos manager at this many cores")
    parser.add_argument("--schedulers", nargs="+", default=None,
                        help="ready-task dispatch policies to sweep: "
                             "fifo (default), sjf, ljf, locality")
    parser.add_argument("--topologies", nargs="+", default=None,
                        help="core topologies to sweep: homogeneous (default), "
                             "biglittle[:little_speed | :big_fraction:little_speed], "
                             "speeds:<s0>,<s1>,...")
    parser.add_argument("--stream", action="store_true",
                        help="replay grid cells through the streaming machine "
                             "path (bounded memory; identical schedules, no "
                             "per-task times in the results)")
    parser.add_argument("--max-tasks", type=int, default=None,
                        help="bound every workload to its first N task "
                             "submissions (trace-size scaling axis)")
    parser.add_argument("--dynamic", action="store_true",
                        help="replay grid cells through the dynamic engine "
                             "(tasks spawn tasks at runtime; requires dynamic "
                             "workloads: fib, nqueens, recursive-sort, strassen)")
    parser.add_argument("--depths", type=int, nargs="+", default=None,
                        help="recursion depths to sweep for dynamic workloads "
                             "(fib's n, nqueens' board size, ...)")


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    seeds: Sequence[Optional[int]] = tuple(args.seeds) if args.seeds else (None,)
    max_cores = {"Nanos": args.nanos_max_cores} if args.nanos_max_cores else None
    return SweepSpec(
        workloads=args.workloads,
        managers=args.managers,
        core_counts=args.cores,
        seeds=seeds,
        scale=args.scale,
        max_cores=max_cores,
        schedulers=tuple(args.schedulers) if args.schedulers else ("fifo",),
        topologies=tuple(args.topologies) if args.topologies else ("homogeneous",),
        stream=args.stream,
        max_tasks=args.max_tasks,
        dynamic=args.dynamic,
        depths=tuple(args.depths) if args.depths else (None,),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Declarative (workload x manager x cores x seed) experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep grid")
    _add_grid_arguments(p_sweep)
    p_sweep.add_argument("--n-jobs", default="1", metavar="N|auto",
                         help="multiprocessing worker processes (default 1 = "
                              "serial; 'auto' = os.cpu_count())")
    p_sweep.add_argument("--workers", default=None, metavar="N|auto",
                         help="run the distributed sweep fabric instead: spawn "
                              "this many local socket workers pulling "
                              "locality-aware chunks from a central scheduler "
                              "('auto' = os.cpu_count(); see "
                              "python -m repro.distributed.worker for remote "
                              "workers)")
    p_sweep.add_argument("--worker-hosts", nargs="+", default=None,
                         metavar="HOST",
                         help="remote hosts expected to contribute one worker "
                              "each (start them by hand with: python -m "
                              "repro.distributed.worker --connect HOST:PORT); "
                              "implies the sockets transport")
    p_sweep.add_argument("--scheduler-bind", default="127.0.0.1:0",
                         metavar="HOST:PORT",
                         help="address the fabric scheduler listens on "
                              "(default 127.0.0.1:0 = loopback, ephemeral "
                              "port; bind a routable address for remote "
                              "workers)")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="content-addressed result cache directory")
    p_sweep.add_argument("--chaos-seed", type=int, default=None, metavar="SEED",
                         help="arm deterministic fault injection on the "
                              "distributed fabric with this seed (same seed = "
                              "same fault sequence; results must stay "
                              "byte-identical; implies --chaos-profile soak "
                              "unless given)")
    p_sweep.add_argument("--chaos-profile", default=None, metavar="NAME",
                         help="fault profile for --chaos-seed (one of: none, "
                              "soak, wire, store, workers; default soak); the "
                              "REPRO_CHAOS env var (profile:seed) is an "
                              "equivalent knob for CI")
    p_sweep.add_argument("--output", default=None,
                         help="stream result rows to this JSONL file")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress the rendered speedup tables")
    p_sweep.add_argument("--profile", action="store_true",
                         help="wrap the sweep in cProfile and print the top 25 "
                              "cumulative entries to stderr (profile serially: "
                              "--n-jobs > 1 runs cells in worker processes the "
                              "profiler cannot see)")

    p_hash = sub.add_parser("spec-hash", help="print the content hash of a sweep grid")
    _add_grid_arguments(p_hash)

    p_report = sub.add_parser("report", help="render speedup tables from a sweep JSONL file")
    p_report.add_argument("jsonl", help="path to a file written by `sweep --output`")

    sub.add_parser("workloads", help="list available workload names")
    return parser


def _render_report(jsonl_path: str) -> str:
    """Rebuild per-workload speedup tables from a sweep JSONL stream."""
    studies = rows_to_studies(list(iter_jsonl(jsonl_path)))
    return "\n\n".join(study.render() for study in studies.values())


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "workloads":
        print("\n".join(list_workloads()))
        return 0
    if args.command == "report":
        print(_render_report(args.jsonl))
        return 0
    spec = _spec_from_args(args)
    if args.command == "spec-hash":
        print(spec.spec_hash())
        return 0
    # command == "sweep"
    worker_hosts = tuple(args.worker_hosts) if args.worker_hosts else ()
    distributed = args.workers is not None or worker_hosts
    chaos = None
    if args.chaos_seed is not None or args.chaos_profile is not None:
        if not distributed:
            print("error: --chaos-seed/--chaos-profile need the distributed "
                  "fabric (--workers or --worker-hosts)", file=sys.stderr)
            return 2
        chaos = f"{args.chaos_profile or 'soak'}:{args.chaos_seed or 0}"
    runner = SweepRunner(
        n_jobs=args.n_jobs,
        cache_dir=args.cache_dir,
        transport="sockets" if distributed else "local",
        workers=args.workers,
        worker_hosts=worker_hosts,
        scheduler_bind=args.scheduler_bind,
        chaos=chaos,
    )
    with maybe_profile(args.profile):
        outcome = runner.run(spec, jsonl_path=args.output)
    if not args.quiet:
        for study in outcome.studies().values():
            print(study.render())
            print()
    print(
        f"sweep {spec.spec_hash()[:12]}: {len(outcome.points)} points, "
        f"{outcome.executed} executed, {outcome.cache_hits} cached"
        + (f", rows -> {outcome.jsonl_path}" if outcome.jsonl_path else "")
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except ConfigurationError as exc:  # a bad flag: one line, no traceback
        sys.exit(f"ConfigurationError: {exc}")
