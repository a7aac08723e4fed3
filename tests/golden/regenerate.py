"""Regenerate (or verify) the golden traces and their expected makespans.

Run from the repository root after an *intentional* behaviour change::

    PYTHONPATH=src python tests/golden/regenerate.py

The script writes one small, seeded trace per workload generator to
``tests/golden/data/`` and records the exact makespan of each trace
under every golden manager in ``expected_makespans.json``.  Dynamic
(insert-while-running) programs get the same treatment: their serial
elaboration is committed as ``dyn_<key>.json.gz`` and their
*dynamic-run* makespans are pinned per manager.  The paired tests
(``test_golden_traces.py`` / ``test_dynamic_goldens.py``) replay the
committed artefacts and compare *exactly* — any diff in a regeneration
is a change to the simulated science and must be explained in the PR
that commits it.

The same replays also pin every manager's ``statistics()`` (the
``manager_stats`` of each JSONL row) in ``expected_manager_stats.json``,
floats stored by ``repr`` so a last-bit drift shows as a string diff
(``test_manager_stats.py`` compares them exactly).

``expected_config_digests.json`` pins whole results beyond the default
configuration: the ``result_to_json`` digest and processed-event count
of each golden under every manager × scheduler × topology, with
``keep_schedule`` off and ``validate`` on, plus a sparse-id trace and
the Nexus++ ``taskwait on`` degradation (``test_config_digests.py``).

``expected_trace_digests.json`` pins the serialized bytes of traces: the
sha256 of the ``save_trace`` and ``write_trace_stream`` output and the
``trace_digest`` of every registered workload and of the sparse-id,
``taskwait on`` and sized traces (``test_trace_digests.py``).

A regeneration rewrites a committed ``.json.gz`` trace only when its
decompressed bytes change, so an unchanged trace keeps its committed
bytes.

``--check`` recomputes everything in memory and compares against the
committed files without writing, exiting non-zero on any drift — the CI
guard that the committed goldens and the generators cannot diverge
silently::

    PYTHONPATH=src python tests/golden/regenerate.py --check
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
import tempfile
from pathlib import Path

from repro.system.machine import Machine, MachineConfig, simulate
from repro.trace.serialization import save_trace, trace_digest

from golden_config import (
    GOLDEN_CORES,
    GOLDEN_MANAGERS,
    GOLDEN_SEED,
    config_digest,
    config_digest_cases,
    golden_dynamic_programs,
    golden_traces,
    trace_byte_cases,
    trace_byte_digests,
)

DATA_DIR = Path(__file__).parent / "data"
EXPECTED_PATH = Path(__file__).parent / "expected_makespans.json"
STATS_PATH = Path(__file__).parent / "expected_manager_stats.json"
CONFIG_DIGESTS_PATH = Path(__file__).parent / "expected_config_digests.json"
TRACE_DIGESTS_PATH = Path(__file__).parent / "expected_trace_digests.json"


def pin_stats(value):
    """``value`` with every float replaced by its ``repr`` string."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: pin_stats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [pin_stats(item) for item in value]
    return value


def compute_expected() -> tuple[dict, dict]:
    """Build the expected-makespans and expected-manager-stats documents
    (traces + dynamic) from one replay per golden and manager."""
    traces: dict[str, dict[str, object]] = {}
    stats: dict[str, dict[str, dict]] = {"traces": {}, "dynamic": {}}
    for key, trace in golden_traces().items():
        makespans = {}
        stats["traces"][key] = {}
        for manager_key, factory in GOLDEN_MANAGERS.items():
            result = simulate(trace, factory(), num_cores=GOLDEN_CORES, validate=True)
            makespans[manager_key] = result.makespan_us
            stats["traces"][key][manager_key] = pin_stats(dict(result.manager_stats))
        traces[key] = {
            "trace_digest": trace_digest(trace),
            "num_tasks": trace.num_tasks,
            "total_work_us": trace.total_work_us,
            "makespans_us": makespans,
        }
    dynamic: dict[str, dict[str, object]] = {}
    for key, program in golden_dynamic_programs().items():
        elaboration = program.elaborate()
        makespans = {}
        stats["dynamic"][key] = {}
        for manager_key, factory in GOLDEN_MANAGERS.items():
            machine = Machine(factory(), MachineConfig(num_cores=GOLDEN_CORES, validate=True))
            result = machine.run(program)
            makespans[manager_key] = result.makespan_us
            stats["dynamic"][key][manager_key] = pin_stats(dict(result.manager_stats))
        dynamic[key] = {
            "elaboration_digest": trace_digest(elaboration),
            "num_tasks": elaboration.num_tasks,
            "total_work_us": elaboration.total_work_us,
            "makespans_us": makespans,
        }
    header = {"seed": GOLDEN_SEED, "cores": GOLDEN_CORES}
    return {**header, "traces": traces, "dynamic": dynamic}, {**header, **stats}


def compute_config_digests() -> dict:
    """The expected-config-digests document (see the module docstring)."""
    cases = config_digest_cases(golden_traces())
    return {"seed": GOLDEN_SEED, "cores": GOLDEN_CORES,
            "configs": {key: config_digest(case) for key, case in cases.items()}}


def compute_trace_digests() -> dict:
    """The expected-trace-digests document (see the module docstring)."""
    return {"seed": GOLDEN_SEED, "cores": GOLDEN_CORES,
            "traces": {key: trace_byte_digests(trace)
                       for key, trace in trace_byte_cases().items()}}


def write_json(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def save_golden_trace(trace, path: Path) -> str:
    """Save ``trace`` to ``path`` unless the file already decompresses to
    the same bytes; return ``"unchanged"`` or ``"written"``."""
    with tempfile.TemporaryDirectory(dir=path.parent) as scratch:
        # Same file name: the gzip header records it.
        fresh = save_trace(trace, Path(scratch) / path.name)
        if path.exists() and (gzip.decompress(path.read_bytes())
                              == gzip.decompress(fresh.read_bytes())):
            return "unchanged"
        os.replace(fresh, path)
    return "written"


def regenerate() -> int:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for key, trace in golden_traces().items():
        path = DATA_DIR / f"{key}.json.gz"
        state = save_golden_trace(trace, path)
        print(f"{key:24s} {trace.num_tasks:5d} tasks -> {path.name} ({state})")
    for key, program in golden_dynamic_programs().items():
        elaboration = program.elaborate()
        path = DATA_DIR / f"dyn_{key}.json.gz"
        state = save_golden_trace(elaboration, path)
        print(f"{key:24s} {elaboration.num_tasks:5d} tasks -> {path.name} "
              f"(dynamic, {state})")
    makespans, stats = compute_expected()
    write_json(EXPECTED_PATH, makespans)
    write_json(STATS_PATH, stats)
    write_json(CONFIG_DIGESTS_PATH, compute_config_digests())
    write_json(TRACE_DIGESTS_PATH, compute_trace_digests())
    print(f"wrote {EXPECTED_PATH}, {STATS_PATH}, {CONFIG_DIGESTS_PATH} and {TRACE_DIGESTS_PATH}")
    return 0


def check_scalar_equivalence(computed: dict) -> list[str]:
    """Replay every golden trace through the scalar reference loop
    (``Machine.run_scalar``) for each manager that publishes a lane
    kernel, and compare against the regenerated makespans, which
    ``simulate`` computed on the kernel.  Keeps both replay paths pinned
    to the committed goldens at the same choke point."""
    failures: list[str] = []
    config = MachineConfig(num_cores=GOLDEN_CORES, validate=True)
    for key, trace in golden_traces().items():
        for manager_key, factory in GOLDEN_MANAGERS.items():
            if factory().lane_kernel() is None:
                continue  # simulate already replayed it on the scalar loop
            makespan = Machine(factory(), config).run_scalar(trace).makespan_us
            expected = computed["traces"][key]["makespans_us"][manager_key]
            if makespan != expected:
                failures.append(
                    f"scalar reference [{manager_key}/{key}]: makespan "
                    f"{makespan!r} != kernel {expected!r}")
    return failures


def diff_document(name: str, expected: dict, computed: dict) -> list[str]:
    """One failure line per golden entry of ``computed`` that drifted."""
    failures: list[str] = []
    for section in ("traces", "dynamic", "configs"):
        want, got = expected.get(section, {}), computed.get(section, {})
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                failures.append(
                    f"{name} [{section}/{key}]: committed "
                    f"{want.get(key)} != regenerated {got.get(key)}")
    for scalar in ("seed", "cores"):
        if expected.get(scalar) != computed.get(scalar):
            failures.append(f"{name} [{scalar}] drifted")
    return failures


def check() -> int:
    """Fail (non-zero) when committed goldens drift from the generators."""
    from repro.trace.serialization import load_trace

    failures: list[str] = []
    computed, computed_stats = compute_expected()
    for path, fresh in ((EXPECTED_PATH, computed), (STATS_PATH, computed_stats),
                        (CONFIG_DIGESTS_PATH, compute_config_digests()),
                        (TRACE_DIGESTS_PATH, compute_trace_digests())):
        if not path.exists():
            failures.append(f"missing committed {path.name}")
            continue
        failures.extend(diff_document(
            path.name, json.loads(path.read_text(encoding="utf-8")), fresh))
    committed_files = {
        **{f"{key}.json.gz": trace for key, trace in golden_traces().items()},
        **{f"dyn_{key}.json.gz": program.elaborate()
           for key, program in golden_dynamic_programs().items()},
    }
    for filename, fresh in committed_files.items():
        path = DATA_DIR / filename
        if not path.exists():
            failures.append(f"missing committed trace {filename}")
            continue
        if trace_digest(load_trace(path)) != trace_digest(fresh):
            failures.append(f"committed trace {filename} drifted from its generator")
    failures.extend(check_scalar_equivalence(computed))
    if failures:
        print("golden drift detected:")
        for failure in failures:
            print(f"  - {failure}")
        print("intentional change? regenerate with: "
              "PYTHONPATH=src python tests/golden/regenerate.py")
        return 1
    print(f"goldens clean: {len(committed_files)} traces, "
          f"{len(computed['traces'])} static + {len(computed['dynamic'])} dynamic "
          "makespan and manager-stats sets, the config and trace-byte digests match; kernel and "
          f"scalar replay identical under {len(GOLDEN_MANAGERS)} managers")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify committed goldens instead of rewriting them")
    args = parser.parse_args()
    return check() if args.check else regenerate()


if __name__ == "__main__":
    sys.exit(main())
