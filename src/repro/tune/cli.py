"""``python -m repro.tune`` — search the design space from the shell.

Two subcommands mirroring the experiments CLI:

``search``
    Build a :class:`~repro.tune.space.SearchSpace` from flags, run
    :class:`~repro.tune.search.SuccessiveHalving`, print per-rung
    progress and the final frontier, and (with ``--report``) write the
    :class:`~repro.tune.report.TuneReport` JSONL artifact.
``report``
    Re-render a previously written report file.

Execution flags (``--n-jobs``, ``--workers``, ``--cache-dir``,
``--chaos-seed``/``--chaos-profile``) pass straight
through to the :class:`~repro.experiments.runner.SweepRunner`, so the
tuner parallelises — and injects faults — exactly like a plain sweep.

Example::

    python -m repro.tune search \\
        --workloads h264dec-1x1-10f h264dec-2x2-10f \\
        --tg 1 2 4 6 8 --geometries 256x8 64x4 --frequency 100 \\
        --cores 24 --scale 0.15 --objective makespan \\
        --cache-dir .tune-cache --report tune.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.frontier import frontier_table, render_tune_report
from repro.common.errors import ReproError
from repro.experiments.runner import SweepRunner
from repro.tune.objectives import OBJECTIVES
from repro.tune.report import TuneReport
from repro.tune.search import SuccessiveHalving
from repro.tune.space import SearchSpace, nexus_sharp_axis


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="successive-halving config search over the sweep fabric",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    search = commands.add_parser("search", help="run a search")
    space = search.add_argument_group("search space")
    space.add_argument("--workloads", nargs="+", required=True,
                       help="registry workload names (the fidelity ladder)")
    space.add_argument("--managers", nargs="+", default=[],
                       help="manager candidates (nexus#6, nexus#4@100/64x4, "
                            "nexus++, ...)")
    space.add_argument("--tg", type=int, nargs="+", default=None,
                       metavar="N",
                       help="Nexus# task-graph counts to cross with "
                            "--geometries (adds to --managers)")
    space.add_argument("--geometries", nargs="+", default=["256x8"],
                       metavar="SxW",
                       help="dependence-table set geometries for --tg "
                            "(default: the paper's 256x8)")
    space.add_argument("--frequency", type=float, default=None, metavar="MHZ",
                       help="flat frequency for --tg candidates (default: "
                            "per-configuration synthesis frequency)")
    space.add_argument("--schedulers", nargs="+", default=["fifo"],
                       help="dispatch policies to search (default: fifo)")
    space.add_argument("--topologies", nargs="+", default=["homogeneous"],
                       help="core topologies to search (default: homogeneous)")
    space.add_argument("--cores", type=int, nargs="+", default=[16],
                       help="core counts of the evaluation setting")
    space.add_argument("--seeds", type=int, nargs="+", default=[2015],
                       help="workload seeds (each multiplies the ladder)")
    space.add_argument("--scale", type=float, default=0.1,
                       help="workload scale factor (default 0.1)")
    space.add_argument("--name", default="cli", help="search name (reports)")

    how = search.add_argument_group("search strategy")
    how.add_argument("--objective", default="makespan",
                     choices=sorted(OBJECTIVES),
                     help="what to maximise (default makespan)")
    how.add_argument("--budget", type=int, default=None, metavar="CELLS",
                     help="bound on scheduled grid cells (cache hits count)")
    how.add_argument("--eta", type=int, default=2,
                     help="halving rate per rung (default 2)")
    how.add_argument("--min-units", type=int, default=1,
                     help="fidelity units of the first rung (default 1)")

    execution = search.add_argument_group("execution")
    execution.add_argument("--n-jobs", default="1", metavar="N|auto",
                           help="worker processes per rung sweep")
    execution.add_argument("--workers", default=None, metavar="N|auto",
                           help="run rungs on the distributed sweep fabric "
                                "with this many socket workers")
    execution.add_argument("--cache-dir", default=None,
                           help="content-addressed result cache directory "
                                "(strongly recommended: makes re-promotion "
                                "and warm re-runs free)")
    execution.add_argument("--chaos-seed", type=int, default=None,
                           metavar="SEED",
                           help="deterministic fault injection for the "
                                "fabric (needs --workers)")
    execution.add_argument("--chaos-profile", default=None, metavar="NAME",
                           help="fault profile for --chaos-seed "
                                "(default soak)")
    search.add_argument("--report", default=None, metavar="PATH",
                        help="write the TuneReport JSONL artifact here")
    search.add_argument("--quiet", action="store_true",
                        help="suppress per-rung progress lines")

    report = commands.add_parser("report", help="render a report file")
    report.add_argument("jsonl", help="path written by `search --report`")
    return parser


def _build_space(args: argparse.Namespace) -> SearchSpace:
    managers: List[str] = list(args.managers)
    if args.tg:
        managers.extend(nexus_sharp_axis(
            args.tg, args.geometries, frequency_mhz=args.frequency))
    return SearchSpace(
        managers=tuple(managers),
        workloads=tuple(args.workloads),
        schedulers=tuple(args.schedulers),
        topologies=tuple(args.topologies),
        core_counts=tuple(args.cores),
        seeds=tuple(args.seeds),
        scale=args.scale,
        name=args.name,
    )


def _build_runner(args: argparse.Namespace) -> Optional[SweepRunner]:
    distributed = args.workers is not None
    chaos = None
    if args.chaos_seed is not None or args.chaos_profile is not None:
        if not distributed:
            print("error: --chaos-seed/--chaos-profile need the distributed "
                  "fabric (--workers)", file=sys.stderr)
            return None
        chaos = f"{args.chaos_profile or 'soak'}:{args.chaos_seed or 0}"
    return SweepRunner(
        args.n_jobs,
        cache_dir=args.cache_dir,
        transport="sockets" if distributed else "local",
        workers=args.workers,
        chaos=chaos,
    )


def _run_search(args: argparse.Namespace) -> int:
    runner = _build_runner(args)
    if runner is None:
        return 2
    space = _build_space(args)
    driver = SuccessiveHalving(
        space,
        args.objective,
        eta=args.eta,
        min_units=args.min_units,
        budget=args.budget,
        runner=runner,
    )
    log = None if args.quiet else (lambda message: print(message, flush=True))
    result = driver.run(log=log)
    tune_report = TuneReport(result)
    if args.report is not None:
        path = tune_report.write(args.report)
        print(f"report: {path}")
    final = result.rungs[-1]
    print()
    print(frontier_table(
        [entry.describe() for entry in final.frontier],
        title=f"final frontier (rung {final.index}, "
              f"{len(final.units)} units)"))
    assert result.best is not None
    best = result.best
    print(f"\nbest: {best.candidate.key} score {best.score:.4g} — "
          f"{result.total_cells} cells, {result.total_executed} simulated, "
          f"{result.total_cache_hits} cached")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "search":
            return _run_search(args)
        print(render_tune_report(TuneReport.load(args.jsonl)))
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
