"""The sweep execution engine.

:class:`SweepRunner` takes a declarative :class:`~repro.experiments.spec.
SweepSpec`, consults the content-addressed :class:`~repro.experiments.
cache.ResultCache`, fans the remaining grid cells out across
``multiprocessing`` workers (``n_jobs``; the default of 1 runs serially
in-process), and streams the finished rows to JSONL.

Determinism contract
--------------------
The output is a pure function of the spec:

* grid cells are enumerated in the deterministic order of
  :meth:`SweepSpec.points` and results are re-ordered to it after the
  (unordered) parallel execution,
* every result crosses process/cache/socket boundaries as its JSON
  document, so a cold serial run, a cold parallel run, a distributed
  run (``transport="sockets"``, via the :mod:`repro.distributed`
  fabric) and a warm cached run all emit byte-identical JSONL rows.
"""

from __future__ import annotations

import dataclasses
import gzip
import multiprocessing
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigurationError, SimulationError
from repro.experiments.cache import ResultCache
from repro.experiments.spec import RunPoint, SweepSpec, WorkloadSpec
from repro.system.results import MachineResult
from repro.trace.serialization import canonical_json_line, result_from_json, result_to_json

#: Per-worker table of inline workloads, installed by the pool initializer
#: (or the socket worker's setup frame) so a large trace crosses the
#: process boundary once per worker rather than once per grid cell.
_WORKER_WORKLOADS: List[WorkloadSpec] = []


def install_workload_table(workloads: List[WorkloadSpec]) -> None:
    """Install this process's interned workload table (see :func:`intern_jobs`)."""
    global _WORKER_WORKLOADS
    _WORKER_WORKLOADS = workloads


def resolve_job(job: Tuple[int, RunPoint, Optional[int]]) -> Tuple[int, RunPoint]:
    """Rehydrate an interned job into its ``(index, point)`` pair.

    ``job`` is ``(index, point, workload_ref)``; a non-``None`` ref points
    into the process's interned workload table (see
    :func:`install_workload_table`).
    """
    index, point, workload_ref = job
    if workload_ref is not None:
        point = dataclasses.replace(point, workload=_WORKER_WORKLOADS[workload_ref])
    return index, point


def run_job(job: Tuple[int, RunPoint, Optional[int]]) -> Tuple[int, Dict[str, Any]]:
    """Worker entry point: run one grid cell, return its result document.

    Module-level (not a closure) so it pickles under every start method.
    """
    index, point = resolve_job(job)
    return index, result_to_json(point.run())


def intern_jobs(
    pending: List[Tuple[int, RunPoint]],
) -> Tuple[List[Tuple[int, RunPoint, Optional[int]]], List[WorkloadSpec]]:
    """Intern inline-trace workloads out of ``pending`` grid cells.

    Returns ``(jobs, table)``: each job is ``(index, point, ref)`` where
    a non-``None`` ref replaces the point's (stripped) workload with
    ``table[ref]`` on the executing side — so each unique inline trace
    crosses a process/socket boundary once, not once per grid cell.
    Named workloads pass through untouched (they regenerate in place).
    """
    table: List[WorkloadSpec] = []
    refs: Dict[int, int] = {}
    jobs: List[Tuple[int, RunPoint, Optional[int]]] = []
    for index, point in pending:
        if point.workload.trace is None:
            jobs.append((index, point, None))
            continue
        ref = refs.get(id(point.workload))
        if ref is None:
            ref = len(table)
            refs[id(point.workload)] = ref
            table.append(point.workload)
        stripped = dataclasses.replace(point, workload=WorkloadSpec(name=point.workload.name))
        jobs.append((index, stripped, ref))
    return jobs, table


def execute_lane_block(
    block: List[Tuple[int, RunPoint]],
) -> List[Tuple[int, Dict[str, Any]]]:
    """Run a block of grid cells in this process; results in block order.

    Static cells go through :func:`repro.sim.batch.run_lanes` (a loop
    over :meth:`Machine.run <repro.system.machine.Machine.run>`, which
    picks the fast kernel itself), stream and dynamic cells through
    :meth:`RunPoint.run`.  The socket worker and the serving batcher both
    call this; it and ``run_lanes`` keep their names because layer probes
    (the repository benchmark's tracer) bind to them.
    """
    from repro.sim.batch import LaneSpec, run_lanes
    from repro.system.machine import MachineConfig

    static = [point for _, point in block if not (point.stream or point.dynamic)]
    lanes = [
        LaneSpec(
            trace=point.workload.resolve(),
            manager=point.factory(),
            config=MachineConfig(
                num_cores=point.cores,
                validate=point.validate,
                keep_schedule=point.keep_schedule,
                scheduler=point.scheduler,
                topology=point.topology,
            ),
        )
        for point in static
    ]
    results = iter(run_lanes(lanes))
    return [
        (index, result_to_json(
            point.run() if point.stream or point.dynamic else next(results)))
        for index, point in block
    ]


def resolve_worker_count(
    value: Union[int, str], *, flag: str = "n_jobs", minimum: int = 1
) -> int:
    """Resolve a job/worker-count setting to a concrete integer.

    Accepts an ``int``, a decimal string, or ``"auto"`` (=
    ``os.cpu_count()``); anything else — including values below
    ``minimum`` — raises :class:`~repro.common.errors.
    ConfigurationError`, so both the CLI flags and the
    :class:`SweepRunner` constructor reject bad counts the same way.
    """
    if isinstance(value, str):
        if value.strip().lower() == "auto":
            value = os.cpu_count() or 1
        else:
            try:
                value = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"{flag} must be a positive integer or 'auto', got {value!r}"
                ) from None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(
            f"{flag} must be a positive integer or 'auto', got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{flag} must be >= {minimum}, got {value}")
    return value


def _pick_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, shares generated traces); fall back cleanly."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


@dataclass
class SweepOutcome:
    """Everything a finished sweep produced."""

    spec: SweepSpec
    points: List[RunPoint]
    rows: List[Dict[str, Any]]
    cache_hits: int = 0
    executed: int = 0
    jsonl_path: Optional[Path] = None
    _results: Optional[List[MachineResult]] = field(default=None, repr=False)

    @property
    def results(self) -> List[MachineResult]:
        """The per-point :class:`MachineResult`s, in grid order."""
        if self._results is None:
            self._results = [result_from_json(row["result"]) for row in self.rows]
        return self._results

    def jsonl_lines(self) -> List[str]:
        """Canonical JSONL rows (no trailing newlines), in grid order."""
        return [canonical_json_line(row) for row in self.rows]

    def study(self, workload_name: str) -> "ScalabilityStudy":  # noqa: F821
        """Bridge one workload's results into the analysis layer."""
        return self.studies()[workload_name]

    def studies(self) -> Dict[str, "ScalabilityStudy"]:  # noqa: F821
        """Group results into per-workload :class:`ScalabilityStudy` objects.

        Every effective workload and every spec manager gets a study/curve
        — empty when ``max_cores`` filtered all of its points out —
        matching what a hand-rolled sweep over the same grid would report.
        """
        from repro.analysis.speedup import ScalabilityCurve, ScalabilityStudy

        spec = self.spec
        # Mixed scheduler/topology axes expand every manager into one
        # curve per (manager, scheduler, topology) combination — exactly
        # mirroring curve_display_key(), which labels the rows.
        multi_sched = len(spec.schedulers) > 1
        multi_topo = len(spec.topologies) > 1
        manager_names = [
            curve_display_key(name, scheduler, topology, multi_sched, multi_topo)
            for name, _ in spec.managers
            for scheduler in spec.schedulers
            for topology in spec.topologies
        ]
        # One key map over the full grid, so fully-filtered workloads get
        # the same keys as the ones that produced rows.
        effective_docs = [workload.describe() for workload in spec.effective_workloads()]
        key_map = workload_key_map(effective_docs)
        studies = rows_to_studies(
            self.rows,
            manager_names=manager_names,
            core_order=spec.core_counts,
            key_map=key_map,
        )
        for doc in effective_docs:
            key = key_map[canonical_json_line(doc)]
            if key in studies:
                continue
            study = ScalabilityStudy(trace_name=key, core_counts=spec.core_counts)
            for manager_name in manager_names:
                study.curves[manager_name] = ScalabilityCurve(
                    manager_name=manager_name, trace_name=key,
                    core_counts=(), speedups=(), makespans_us=(),
                )
            studies[key] = study
        return studies


class SweepRunner:
    """Run sweep grids, incrementally and (optionally) in parallel.

    Parameters
    ----------
    n_jobs:
        Number of worker processes.  1 (the default) runs serially in the
        calling process — fully deterministic and easiest to debug; higher
        values fan grid cells out with ``multiprocessing`` (the output is
        byte-identical either way, see the module docstring).
    cache:
        A :class:`ResultCache`, or ``None`` to always simulate.
    cache_dir:
        Convenience: directory to open a :class:`ResultCache` in (ignored
        when ``cache`` is given).
    transport:
        ``"local"`` (the default) executes in-process / via
        ``multiprocessing``; ``"sockets"`` runs the distributed sweep
        fabric instead — a :class:`~repro.distributed.scheduler.
        SweepScheduler` owning the frontier and TCP worker processes
        pulling locality-aware chunks, with work stealing, heartbeats
        and bounded requeue (see :mod:`repro.distributed`).  Output is
        byte-identical to every other execution mode.
    workers:
        Local socket-worker processes to spawn (``transport="sockets"``
        only).  ``"auto"`` uses ``os.cpu_count()``.
    worker_hosts:
        Names of remote hosts expected to contribute workers (started
        by hand with ``python -m repro.distributed.worker --connect
        HOST:PORT``); the scheduler accepts one connection per listed
        host on top of the local ``workers``.
    scheduler_bind:
        ``host:port`` the fabric scheduler listens on (default
        ``127.0.0.1:0`` — loopback, ephemeral port; bind a routable
        address when ``worker_hosts`` are involved).
    heartbeat_interval / heartbeat_timeout:
        Worker life-sign cadence and the silence threshold after which
        the scheduler requeues a worker's cells.
    chaos:
        Deterministic fault injection for the fabric
        (``transport="sockets"`` only): a
        :class:`~repro.chaos.plan.FaultPlan`, or the compact string
        form ``"profile:seed"`` (e.g. ``"soak:2015"``).  When unset,
        the ``REPRO_CHAOS`` environment knob is consulted — that is how
        the CI soak job arms an ordinary sweep invocation.  Results
        must be byte-identical with or without chaos; only timing,
        retries and the fault timeline differ.
    """

    def __init__(
        self,
        n_jobs: Union[int, str] = 1,
        *,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        transport: str = "local",
        workers: Union[int, str, None] = None,
        worker_hosts: Sequence[str] = (),
        scheduler_bind: str = "127.0.0.1:0",
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 5.0,
        chaos: Union[str, Any, None] = None,
    ) -> None:
        self.n_jobs = resolve_worker_count(n_jobs, flag="n_jobs")
        if transport not in ("local", "sockets"):
            raise ConfigurationError(
                f"transport must be 'local' or 'sockets', got {transport!r}")
        self.transport = transport
        self.worker_hosts = tuple(worker_hosts)
        if workers is None:
            self.workers = 0
        else:
            self.workers = resolve_worker_count(workers, flag="workers", minimum=0)
        if transport == "sockets" and self.workers + len(self.worker_hosts) < 1:
            raise ConfigurationError(
                "transport='sockets' needs workers >= 1 or at least one worker host")
        self.scheduler_bind = scheduler_bind
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        if cache is None and cache_dir is not None:
            cache = ResultCache(cache_dir)
        self.cache = cache
        from repro.chaos.plan import parse_chaos, plan_from_env

        self.chaos = parse_chaos(chaos) if chaos is not None else plan_from_env()
        #: The most recent fabric scheduler (``transport="sockets"``
        #: only) — introspection surface for tests and progress tooling.
        self.last_scheduler = None
        self._current_spec: Optional[SweepSpec] = None

    # -- execution ---------------------------------------------------------
    def run(
        self,
        spec: SweepSpec,
        *,
        jsonl_path: Optional[Union[str, Path]] = None,
    ) -> SweepOutcome:
        """Execute ``spec`` and return the collected results.

        When ``jsonl_path`` is given, one canonical-JSON row per grid cell
        is streamed to it (a ``.gz`` suffix selects gzip compression).
        """
        # An empty grid (everything filtered by max_cores) is legitimate:
        # the outcome simply reports zero points and empty curves.
        points = list(spec.points())
        # The journal (crash-resumable sockets transport) is keyed on
        # the spec's content hash, so _execute_sockets needs the spec.
        self._current_spec = spec
        documents: List[Optional[Dict[str, Any]]] = [None] * len(points)
        pending: List[Tuple[int, RunPoint]] = []

        cache_hits = 0
        if self.cache is not None:
            # Points with opaque (non-describable) factories bypass the
            # cache entirely: their keys cannot tell two configurations
            # apart, and a collision would silently serve stale science.
            keys = [point.cache_key() if point.cacheable else None for point in points]
            for index, (point, key) in enumerate(zip(points, keys)):
                hit = self.cache.get(key) if key is not None else None
                if hit is not None:
                    documents[index] = hit
                    cache_hits += 1
                else:
                    pending.append((index, point))
        else:
            keys = []
            pending = list(enumerate(points))

        executed = len(pending)
        for index, document in self._execute(pending):
            documents[index] = document
            if self.cache is not None and keys[index] is not None:
                self.cache.put(keys[index], document)

        missing = [i for i, document in enumerate(documents) if document is None]
        if missing:  # pragma: no cover - defensive
            raise SimulationError(f"sweep lost results for {len(missing)} grid cells")

        rows = [
            {"point": point.describe(), "result": document}
            for point, document in zip(points, documents)
        ]
        outcome = SweepOutcome(
            spec=spec,
            points=points,
            rows=rows,
            cache_hits=cache_hits,
            executed=executed,
        )
        if jsonl_path is not None:
            outcome.jsonl_path = write_jsonl(rows, jsonl_path)
        return outcome

    def _execute(
        self, pending: List[Tuple[int, RunPoint]]
    ) -> List[Tuple[int, Dict[str, Any]]]:
        if not pending:
            return []
        if self.transport == "sockets":
            return self._execute_sockets(pending)
        if self.n_jobs == 1 or len(pending) == 1:
            return [run_job((index, point, None)) for index, point in pending]
        self._check_factories_picklable(pending)
        # Intern inline-trace workloads: ship each unique trace to workers
        # once via the pool initializer instead of once per grid cell.
        jobs, table = intern_jobs(pending)
        context = _pick_context()
        processes = min(self.n_jobs, len(pending))
        with context.Pool(processes=processes, initializer=install_workload_table, initargs=(table,)) as pool:
            return list(pool.imap_unordered(run_job, jobs, chunksize=1))

    def _execute_sockets(
        self, pending: List[Tuple[int, RunPoint]]
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Fan the pending cells out over the distributed sweep fabric.

        Builds the same interned job table as the ``multiprocessing``
        path, then hands it to a :class:`~repro.distributed.scheduler.
        SweepScheduler` that spawns/serves socket workers.  Cells are
        grouped for locality by workload identity, so one worker replays
        many cells of one trace back-to-back.
        """
        from repro.distributed.scheduler import SweepScheduler

        self._check_factories_picklable(pending)
        jobs, table = intern_jobs(pending)
        # Locality keys from the *original* points (stripped inline
        # workloads all describe identically, which would merge distinct
        # traces into one locality run).
        groups = [
            canonical_json_line(point.workload.describe())
            for _, point in pending
        ]
        host, _, port = self.scheduler_bind.rpartition(":")
        if not host:
            raise ConfigurationError(
                f"scheduler_bind must be host:port, got {self.scheduler_bind!r}")
        try:
            port_number = int(port)
        except ValueError as exc:
            raise ConfigurationError(
                f"scheduler_bind must be host:port, got {self.scheduler_bind!r}"
            ) from exc
        cache_dir = str(self.cache.root) if self.cache is not None else None
        # Crash-resumable checkpoint: an append-only completions journal
        # next to the shared store, keyed by the spec's content hash —
        # a SIGKILLed scheduler restarted with the same spec replays it
        # and re-executes zero completed cells.
        journal = None
        if self.cache is not None and self._current_spec is not None:
            from repro.resilience.journal import FrontierJournal

            sweep_id = self._current_spec.spec_hash()
            journal = FrontierJournal.open(
                self.cache.root / "_journal" / f"{sweep_id}.jsonl", sweep_id)
        scheduler = SweepScheduler(
            jobs,
            table,
            groups=groups,
            workers=self.workers,
            external_workers=len(self.worker_hosts),
            host=host,
            port=port_number,
            cache_dir=cache_dir,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            chaos=self.chaos,
            journal=journal,
        )
        self.last_scheduler = scheduler
        try:
            results = scheduler.run()
        except BaseException:
            # Keep the journal: it is exactly what a rerun resumes from.
            if journal is not None:
                journal.close()
            raise
        if journal is not None:
            journal.discard()  # clean finish: the checkpoint has served
        return results

    @staticmethod
    def _check_factories_picklable(pending: List[Tuple[int, RunPoint]]) -> None:
        """Fail with a clear message before the pool chokes on a closure.

        ``ManagerFactory`` is any zero-argument callable, but parallel
        execution ships points to worker processes — a lambda/closure
        factory would otherwise surface as an inscrutable PicklingError
        from deep inside ``multiprocessing``.
        """
        checked = set()
        for _, point in pending:
            if id(point.factory) in checked:
                continue
            checked.add(id(point.factory))
            try:
                pickle.dumps(point.factory)
            except Exception as exc:
                raise ConfigurationError(
                    f"manager factory for {point.manager_name!r} is not picklable "
                    f"({exc}); parallel sweeps need module-level factories — use the "
                    "dataclass factories in repro.analysis.factories (or implement "
                    "__reduce__), or run with n_jobs=1"
                ) from exc


def curve_display_key(
    manager: str,
    scheduler: str,
    topology: str,
    multi_sched: bool,
    multi_topo: bool,
) -> str:
    """Display key of one speedup curve.

    THE labelling rule for sweep results with scheduler/topology axes,
    shared by :meth:`SweepOutcome.studies` and :func:`rows_to_studies`:
    the manager name is suffixed with exactly the axes that are actually
    swept (``Ideal [sjf]``, ``Ideal @biglittle:0.5``), so single-axis
    sweeps keep the familiar manager-only labels while mixed-axis sweeps
    never merge distinct configurations into one curve.
    """
    key = manager
    if multi_sched:
        key += f" [{scheduler}]"
    if multi_topo:
        key += f" @{topology}"
    return key


def workload_key_map(workload_docs: List[Dict[str, Any]]) -> Dict[str, str]:
    """Map each workload-describe document to a unique display key.

    This is THE grouping rule for sweep results — shared by
    :meth:`SweepOutcome.studies` and the CLI ``report`` command.  A
    workload is keyed by its name; when several distinct identities share
    a name, the key is suffixed with exactly the fields that differ
    (``#seed=…``, ``#scale=…``, a truncated inline digest), so distinct
    workloads never merge into one curve.
    """
    by_name: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for doc in workload_docs:
        identity = canonical_json_line(doc)
        by_name.setdefault(doc["name"], {})[identity] = doc
    key_map: Dict[str, str] = {}
    for name, unique in by_name.items():
        if len(unique) == 1:
            key_map[next(iter(unique))] = name
            continue
        fields = [
            field_name
            for field_name in ("seed", "scale", "depth", "max_tasks", "inline_digest")
            if len({canonical_json_line(doc.get(field_name)) for doc in unique.values()}) > 1
        ]
        for identity, doc in unique.items():
            parts = []
            for field_name in fields:
                value = doc.get(field_name)
                if field_name == "inline_digest" and isinstance(value, str):
                    value = value[:10]
                parts.append(f"{field_name}={value}")
            key_map[identity] = f"{name}#{','.join(parts)}"
    return key_map


def rows_to_studies(
    rows: List[Dict[str, Any]],
    *,
    manager_names: Optional[List[str]] = None,
    core_order: Optional[Tuple[int, ...]] = None,
    key_map: Optional[Dict[str, str]] = None,
) -> Dict[str, "ScalabilityStudy"]:  # noqa: F821
    """Group sweep result rows into per-workload scalability studies.

    * workloads are grouped by :func:`workload_key_map` (pass ``key_map``
      to reuse one computed from a superset, e.g. the full spec grid);
    * curves are keyed by :func:`curve_display_key` — the manager name,
      suffixed with the scheduler and/or topology when the rows actually
      sweep those axes;
    * curve columns follow ``core_order`` (the spec's axis) when given,
      ascending core counts otherwise — headers and values always align;
    * when ``manager_names`` is given, every listed curve key gets a curve
      (empty if all of its points were filtered), in that order.
    """
    from repro.analysis.speedup import ScalabilityCurve, ScalabilityStudy

    if key_map is None:
        key_map = workload_key_map([row["point"]["workload"] for row in rows])

    def key_for(workload: Dict[str, Any]) -> str:
        return key_map[canonical_json_line(workload)]

    if core_order is None:
        axis = tuple(sorted({int(row["point"]["cores"]) for row in rows}))
    else:
        axis = tuple(core_order)
    order = {cores: position for position, cores in enumerate(axis)}

    # Old JSONL rows (pre-axis result format) default to the paper's
    # fifo + homogeneous configuration.
    schedulers_seen = {row["point"].get("scheduler", "fifo") for row in rows}
    topologies_seen = {row["point"].get("topology", "homogeneous") for row in rows}
    multi_sched = len(schedulers_seen) > 1
    multi_topo = len(topologies_seen) > 1

    collected: Dict[Tuple[str, str], List[Tuple[int, MachineResult]]] = {}
    group_keys: List[str] = []
    managers_seen: Dict[str, List[str]] = {}
    for row in rows:
        point = row["point"]
        key = key_for(point["workload"])
        manager = curve_display_key(
            point["manager"],
            point.get("scheduler", "fifo"),
            point.get("topology", "homogeneous"),
            multi_sched,
            multi_topo,
        )
        if key not in managers_seen:
            managers_seen[key] = []
            group_keys.append(key)
        if manager not in managers_seen[key]:
            managers_seen[key].append(manager)
        collected.setdefault((key, manager), []).append(
            (int(point["cores"]), result_from_json(row["result"]))
        )

    studies: Dict[str, ScalabilityStudy] = {}
    for key in group_keys:
        study = ScalabilityStudy(trace_name=key, core_counts=axis)
        names = manager_names if manager_names is not None else managers_seen[key]
        for manager in names:
            runs = collected.get((key, manager), [])
            runs.sort(key=lambda item: (order.get(item[0], len(order)), item[0]))
            study.curves[manager] = ScalabilityCurve(
                manager_name=manager,
                trace_name=key,
                core_counts=tuple(cores for cores, _ in runs),
                speedups=tuple(result.speedup_vs_serial for _, result in runs),
                makespans_us=tuple(result.makespan_us for _, result in runs),
            )
        studies[key] = study
    return studies


def write_jsonl(rows: List[Dict[str, Any]], path: Union[str, Path]) -> Path:
    """Write canonical-JSON ``rows`` to ``path``, one line each.

    A ``.gz`` suffix selects gzip compression, mirroring
    :func:`repro.trace.serialization.iter_jsonl` (and ``save_trace``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8") as handle:
        for row in rows:
            handle.write(canonical_json_line(row))
            handle.write("\n")
    return path


def run_sweep(
    spec: SweepSpec,
    *,
    n_jobs: Union[int, str] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    jsonl_path: Optional[Union[str, Path]] = None,
    transport: str = "local",
    workers: Union[int, str, None] = None,
    worker_hosts: Sequence[str] = (),
) -> SweepOutcome:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    runner = SweepRunner(
        n_jobs=n_jobs, cache_dir=cache_dir, transport=transport,
        workers=workers, worker_hosts=worker_hosts)
    return runner.run(spec, jsonl_path=jsonl_path)
