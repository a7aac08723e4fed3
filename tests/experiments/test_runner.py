"""Tests for SweepRunner: execution, caching, JSONL and study bridging."""

import os
from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.cache import ResultCache
from repro.experiments.runner import (
    SweepRunner,
    execute_lane_block,
    resolve_worker_count,
    run_sweep,
)
from repro.experiments.spec import SweepSpec, WorkloadSpec
from repro.system import machine as machine_module
from repro.system.machine import simulate
from repro.trace.serialization import iter_jsonl, result_to_json
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import generate_independent


def small_spec(**overrides):
    defaults = dict(
        workloads=["microbench", "c-ray"],
        managers=["ideal", "nexus#2"],
        core_counts=[1, 4],
        scale=0.05,
        seeds=(2015,),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSerialExecution:
    def test_results_match_direct_simulation(self):
        spec = small_spec()
        outcome = SweepRunner().run(spec)
        assert outcome.executed == len(outcome.points) == 8
        assert outcome.cache_hits == 0
        for point, result in zip(outcome.points, outcome.results):
            trace = get_workload(point.workload.name, scale=0.05, seed=2015)
            direct = simulate(trace, point.factory(), point.cores, keep_schedule=False)
            assert result.makespan_us == direct.makespan_us
            assert result.num_cores == point.cores

    def test_study_bridging_matches_grid(self):
        spec = small_spec()
        studies = SweepRunner().run(spec).studies()
        assert set(studies) == {"microbench", "c-ray"}
        study = studies["c-ray"]
        assert set(study.curves) == {"Ideal", "Nexus# 2TG"}
        assert study.curves["Ideal"].core_counts == (1, 4)
        assert study.curves["Ideal"].speedup_at(1) == pytest.approx(1.0)

    def test_fully_filtered_grid_yields_empty_curves(self):
        spec = small_spec(core_counts=[64], max_cores={"Ideal": 1, "Nexus# 2TG": 1})
        outcome = SweepRunner().run(spec)
        assert outcome.points == [] and outcome.executed == 0
        studies = outcome.studies()
        assert set(studies) == {"microbench", "c-ray"}
        for study in studies.values():
            assert set(study.curves) == {"Ideal", "Nexus# 2TG"}
            for curve in study.curves.values():
                assert curve.core_counts == ()
                assert curve.max_speedup == 0.0

    def test_partially_capped_manager_still_gets_a_curve(self):
        # All of Nanos' core counts are above its cap; the other manager runs.
        spec = small_spec(
            workloads=["microbench"],
            managers=["ideal", "nanos"],
            core_counts=[16, 64],
            max_cores={"Nanos": 8},
        )
        study = SweepRunner().run(spec).study("microbench")
        assert study.curves["Nanos"].core_counts == ()
        assert study.curves["Nanos"].max_speedup == 0.0
        assert study.curves["Ideal"].core_counts == (16, 64)

    def test_non_ascending_core_counts_keep_spec_order(self):
        spec = small_spec(workloads=["microbench"], managers=["ideal"], core_counts=[4, 1])
        study = SweepRunner().run(spec).study("microbench")
        curve = study.curves["Ideal"]
        assert study.core_counts == (4, 1)
        assert curve.core_counts == (4, 1)
        # The 1-core cell must carry the 1-core speedup, wherever it sits.
        assert curve.speedup_at(1) == pytest.approx(1.0)
        assert curve.speedup_at(4) > 1.0

    def test_invalid_n_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(n_jobs=0)

    def test_mixed_block_runs_in_block_order(self):
        """A block mixing static (kernel and scalar), stream and dynamic
        cells returns each cell's own result, keyed and ordered as given."""
        static = list(small_spec().points())
        dynamic = next(SweepSpec(workloads=["fib"], managers=["ideal"], core_counts=[2],
                                 depths=(5,), dynamic=True).points())
        block = [
            (7, static[0]),
            (3, replace(static[1], stream=True)),
            (0, dynamic),
            (5, static[-1]),
            (1, replace(static[2], stream=True)),
        ]
        rows = execute_lane_block(block)
        assert [index for index, _ in rows] == [7, 3, 0, 5, 1]
        assert [row for _, row in rows] == [result_to_json(point.run()) for _, point in block]


class TestJsonl:
    def test_jsonl_rows_are_self_describing(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        outcome = run_sweep(small_spec(), jsonl_path=path)
        rows = list(iter_jsonl(path))
        assert len(rows) == len(outcome.points)
        first = rows[0]
        assert first["point"]["workload"]["name"] == "microbench"
        assert first["point"]["manager"] == "Ideal"
        assert first["result"]["makespan_us"] > 0
        # File bytes match the in-memory canonical rendering.
        text = path.read_text(encoding="utf-8")
        assert text == "".join(line + "\n" for line in outcome.jsonl_lines())

    def test_gz_output_round_trips(self, tmp_path):
        path = tmp_path / "rows.jsonl.gz"
        outcome = run_sweep(small_spec(workloads=["microbench"]), jsonl_path=path)
        rows = list(iter_jsonl(path))
        assert len(rows) == len(outcome.points)
        assert rows[0]["result"]["makespan_us"] > 0


class TestCaching:
    def test_warm_cache_rerun_performs_zero_machine_runs(self, tmp_path, monkeypatch):
        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        cold = SweepRunner(cache=cache).run(spec)
        assert cold.executed == len(cold.points)
        assert cold.cache_hits == 0

        def forbidden(self, trace):  # pragma: no cover - failure path
            raise AssertionError("Machine.run called on a warm cache")

        monkeypatch.setattr(machine_module.Machine, "run", forbidden)
        warm = SweepRunner(cache=cache).run(spec)
        assert warm.executed == 0
        assert warm.cache_hits == len(warm.points)
        assert warm.jsonl_lines() == cold.jsonl_lines()

    def test_partial_cache_runs_only_missing_points(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        narrow = small_spec(workloads=["microbench"])
        SweepRunner(cache=cache).run(narrow)
        wide = small_spec()  # superset grid
        outcome = SweepRunner(cache=cache).run(wide)
        assert outcome.cache_hits == 4  # the microbench half
        assert outcome.executed == 4  # only the c-ray half ran

    def test_config_change_invalidates_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache).run(small_spec())
        retuned = small_spec(managers=["ideal", "nexus#2@100"])
        outcome = SweepRunner(cache=cache).run(retuned)
        assert outcome.cache_hits == 4  # ideal half unchanged
        assert outcome.executed == 4  # retuned Nexus# half re-ran

    def test_opaque_factories_bypass_the_cache(self, tmp_path):
        from repro.managers.nanos import NanosConfig, NanosManager

        cache = ResultCache(tmp_path / "cache")
        cheap = NanosConfig(task_creation_us=0.1)
        spec_a = small_spec(workloads=["microbench"], managers={"custom": lambda: NanosManager()})
        spec_b = small_spec(workloads=["microbench"], managers={"custom": lambda: NanosManager(cheap)})
        first = SweepRunner(cache=cache).run(spec_a)
        second = SweepRunner(cache=cache).run(spec_b)
        # Same label, same opaque description — but never served stale.
        assert second.cache_hits == 0
        assert second.executed == len(second.points)
        assert len(cache) == 0
        makespans_a = [r.makespan_us for r in first.results]
        makespans_b = [r.makespan_us for r in second.results]
        assert makespans_a != makespans_b

    def test_cache_dir_convenience(self, tmp_path):
        run_sweep(small_spec(), cache_dir=tmp_path / "cache")
        warm = run_sweep(small_spec(), cache_dir=tmp_path / "cache")
        assert warm.executed == 0


class TestParallelExecution:
    def test_parallel_results_identical_to_serial(self):
        spec = small_spec()
        serial = SweepRunner(n_jobs=1).run(spec)
        parallel = SweepRunner(n_jobs=4).run(spec)
        assert parallel.jsonl_lines() == serial.jsonl_lines()
        assert parallel.executed == len(parallel.points)

    def test_distinct_workloads_sharing_a_name_are_not_merged(self):
        # Two inline traces with the same name but different content.
        a = generate_independent(8, duration_us=10.0, seed=1)
        b = generate_independent(8, duration_us=20.0, seed=2)
        assert a.name == b.name
        spec = SweepSpec(workloads=(a, b), managers=["ideal"], core_counts=[1, 2])
        studies = SweepRunner().run(spec).studies()
        assert len(studies) == 2
        for study in studies.values():
            assert study.curves["Ideal"].core_counts == (1, 2)
        # Same name at two scales via named workloads, too.
        spec2 = SweepSpec(
            workloads=(
                WorkloadSpec.of("c-ray", scale=0.02),
                WorkloadSpec.of("c-ray", scale=0.05),
            ),
            managers=["ideal"],
            core_counts=[1],
        )
        studies2 = SweepRunner().run(spec2).studies()
        assert set(studies2) == {"c-ray#scale=0.02", "c-ray#scale=0.05"}

    def test_stale_result_format_becomes_a_cache_miss(self, tmp_path):
        from repro.experiments import spec as spec_module
        from repro.trace import serialization

        cache = ResultCache(tmp_path / "cache")
        grid = small_spec(workloads=["microbench"])
        SweepRunner(cache=cache).run(grid)
        original = serialization.RESULT_FORMAT_VERSION
        try:
            serialization.RESULT_FORMAT_VERSION = original + 1
            spec_module.RESULT_FORMAT_VERSION = original + 1
            outcome = SweepRunner(cache=cache).run(grid)
            # Old-format entries must not be served: everything re-runs.
            assert outcome.cache_hits == 0
            assert outcome.executed == len(outcome.points)
        finally:
            serialization.RESULT_FORMAT_VERSION = original
            spec_module.RESULT_FORMAT_VERSION = original

    def test_parallel_with_unpicklable_factory_fails_clearly(self):
        from repro.managers.ideal import IdealManager

        spec = SweepSpec(
            workloads=["microbench"],
            managers={"closure": lambda: IdealManager()},
            core_counts=[1, 2, 3],
        )
        with pytest.raises(ConfigurationError, match="not picklable"):
            SweepRunner(n_jobs=2).run(spec)
        # The same grid still runs serially.
        assert SweepRunner(n_jobs=1).run(spec).executed == 3

    def test_parallel_with_inline_trace(self):
        trace = generate_independent(12, duration_us=10.0, seed=5)
        spec = SweepSpec(workloads=(trace,), managers=["ideal"], core_counts=[1, 2, 3, 4])
        serial = SweepRunner(n_jobs=1).run(spec)
        parallel = SweepRunner(n_jobs=2).run(spec)
        assert parallel.jsonl_lines() == serial.jsonl_lines()
        speedups = [r.speedup_vs_serial for r in parallel.results]
        assert speedups == pytest.approx([1.0, 2.0, 3.0, 4.0])


class TestWorkerCountResolution:
    def test_integers_pass_through(self):
        assert resolve_worker_count(1) == 1
        assert resolve_worker_count(8) == 8
        assert resolve_worker_count("4") == 4

    def test_auto_uses_cpu_count(self):
        assert resolve_worker_count("auto") == (os.cpu_count() or 1)
        assert resolve_worker_count(" AUTO ") == (os.cpu_count() or 1)

    def test_minimum_is_enforced(self):
        assert resolve_worker_count(0, minimum=0) == 0
        with pytest.raises(ConfigurationError, match="n_jobs must be >= 1"):
            resolve_worker_count(0)
        with pytest.raises(ConfigurationError, match="workers must be >= 0"):
            resolve_worker_count(-1, flag="workers", minimum=0)

    def test_garbage_is_rejected(self):
        for bad in ("many", "1.5", "", 2.0, None, True):
            with pytest.raises(ConfigurationError):
                resolve_worker_count(bad)

    def test_inline_trace_sweeps_distribute(self):
        # Inline traces are interned and shipped once per socket worker.
        trace = generate_independent(12, duration_us=10.0, seed=5)
        spec = SweepSpec(workloads=(trace,), managers=["ideal"],
                         core_counts=[1, 2, 3, 4])
        serial = SweepRunner(n_jobs=1).run(spec)
        distributed = SweepRunner(transport="sockets", workers=2).run(spec)
        assert distributed.jsonl_lines() == serial.jsonl_lines()
