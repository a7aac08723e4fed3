"""The --dynamic / depths axes through the experiment layer."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.cli import main as cli_main
from repro.experiments.runner import SweepRunner
from repro.experiments.spec import SweepSpec, WorkloadSpec
from repro.trace.serialization import iter_jsonl


def _spec(**kwargs):
    defaults = dict(
        workloads=["fib"],
        managers=["ideal"],
        core_counts=[2],
        depths=(5,),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestSpecAxis:
    def test_dynamic_flag_reaches_every_point(self):
        spec = _spec(dynamic=True, managers=["ideal", "nexus#2"], core_counts=[1, 2])
        points = list(spec.points())
        assert len(points) == 4
        assert all(point.dynamic for point in points)

    def test_axes_recorded_only_when_set(self):
        plain = SweepSpec(workloads=["microbench"], managers=["ideal"], core_counts=[2])
        assert "dynamic" not in plain.describe()
        assert "depths" not in plain.describe()
        assert "dynamic" not in next(plain.points()).describe()
        assert "depth" not in next(plain.points()).describe()["workload"]
        dynamic = _spec(dynamic=True)
        assert dynamic.describe()["dynamic"] is True
        assert dynamic.describe()["depths"] == [5]
        point = next(dynamic.points())
        assert point.describe()["dynamic"] is True
        assert point.describe()["workload"]["depth"] == 5

    def test_spec_hash_stable_for_pre_axis_grids(self):
        # Adding the axes must not move hashes of pre-axis specs.
        plain = SweepSpec(workloads=["microbench"], managers=["ideal"], core_counts=[2])
        explicit = SweepSpec(workloads=["microbench"], managers=["ideal"],
                             core_counts=[2], dynamic=False, depths=(None,))
        assert plain.spec_hash() == explicit.spec_hash()

    def test_cache_keys_distinguish_dynamic_from_elaborated(self):
        elaborated = next(_spec().points())
        dynamic = next(_spec(dynamic=True).points())
        assert elaborated.cache_key() != dynamic.cache_key()

    def test_depth_axis_multiplies_dynamic_workloads_only(self):
        spec = SweepSpec(workloads=["fib"], managers=["ideal"], core_counts=[2],
                         depths=(5, 7))
        assert [w.depth for w in spec.effective_workloads()] == [5, 7]

    def test_depth_axis_rejected_when_it_affects_nothing(self):
        with pytest.raises(ConfigurationError, match="dynamic workloads only"):
            SweepSpec(workloads=["microbench"], managers=["ideal"],
                      core_counts=[2], depths=(5,))

    def test_depth_axis_in_mixed_sweeps_multiplies_dynamic_only(self):
        # Like seeds: the axis only multiplies workloads it affects.
        spec = SweepSpec(workloads=["fib", "microbench"], managers=["ideal"],
                         core_counts=[2], depths=(5, 7))
        effective = spec.effective_workloads()
        assert [(w.name, w.depth) for w in effective] == [
            ("fib", 5), ("fib", 7), ("microbench", None)]

    def test_dynamic_rejected_for_static_workloads(self):
        with pytest.raises(ConfigurationError, match="dynamic workloads"):
            SweepSpec(workloads=["microbench"], managers=["ideal"],
                      core_counts=[2], dynamic=True)

    def test_dynamic_rejects_max_tasks(self):
        with pytest.raises(ConfigurationError, match="max_tasks"):
            _spec(dynamic=True, max_tasks=10)

    def test_invalid_depths_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(depths=(0,))
        with pytest.raises(ConfigurationError):
            _spec(depths=())


class TestDynamicRuns:
    def test_dynamic_point_runs_and_differs_from_elaborated_replay(self):
        elaborated = next(_spec(managers=["nanos"]).points()).run()
        dynamic = next(_spec(managers=["nanos"], dynamic=True).points()).run()
        assert elaborated.num_tasks == dynamic.num_tasks
        # Same tasks, different regime: the spawning cores pay the
        # submission costs in the dynamic run, so timings diverge.
        assert elaborated.makespan_us != dynamic.makespan_us

    def test_dynamic_stream_runs_the_same_engine_with_same_result(self):
        direct = next(_spec(dynamic=True).points()).run()
        streamed = next(_spec(dynamic=True, stream=True).points()).run()
        assert direct.makespan_us == streamed.makespan_us
        assert direct.manager_stats == streamed.manager_stats

    def test_stream_without_dynamic_replays_the_elaboration(self):
        """stream=True must never silently switch a cell onto the dynamic
        engine: it streams the serial elaboration, so its makespan equals
        the materialised replay's exactly (the stream-equivalence
        guarantee), regardless of unrelated knobs like max_tasks."""
        materialised = next(_spec(managers=["nanos"]).points()).run()
        streamed = next(_spec(managers=["nanos"], stream=True).points()).run()
        assert streamed.makespan_us == materialised.makespan_us
        dynamic = next(_spec(managers=["nanos"], dynamic=True).points()).run()
        assert streamed.makespan_us != dynamic.makespan_us
        # And a max_tasks cut behaves identically in both replay modes.
        cut = next(_spec(managers=["nanos"], max_tasks=20).points()).run()
        cut_streamed = next(
            _spec(managers=["nanos"], max_tasks=20, stream=True).points()).run()
        assert cut.num_tasks == cut_streamed.num_tasks == 20
        assert cut.makespan_us == cut_streamed.makespan_us

    def test_dynamic_points_cache_and_parallelise(self, tmp_path):
        spec = _spec(dynamic=True, managers=["ideal", "nexus#2"], core_counts=[1, 2])
        cold = SweepRunner(cache_dir=tmp_path / "cache").run(spec)
        warm = SweepRunner(cache_dir=tmp_path / "cache").run(spec)
        parallel = SweepRunner(n_jobs=2, cache_dir=tmp_path / "cache2").run(spec)
        assert cold.executed == 4 and warm.executed == 0 and warm.cache_hits == 4
        assert cold.jsonl_lines() == warm.jsonl_lines() == parallel.jsonl_lines()

    def test_workload_spec_resolve_dynamic(self):
        spec = WorkloadSpec(name="fib", seed=1, depth=5)
        assert spec.is_dynamic
        assert spec.resolve_dynamic().metadata["n"] == 5
        assert spec.resolve().num_tasks == spec.resolve_dynamic().elaborate().num_tasks
        static = WorkloadSpec(name="microbench")
        with pytest.raises(ConfigurationError):
            static.resolve_dynamic()


class TestCli:
    def test_dynamic_and_depths_flags(self, capsys, tmp_path):
        out = tmp_path / "rows.jsonl"
        code = cli_main([
            "sweep", "--workloads", "fib", "--managers", "ideal",
            "--cores", "2", "--dynamic", "--depths", "5", "6",
            "--seeds", "2015", "--output", str(out), "--quiet",
        ])
        assert code == 0
        assert "2 points" in capsys.readouterr().out
        rows = list(iter_jsonl(out))
        assert [row["point"]["workload"]["depth"] for row in rows] == [5, 6]
        assert all(row["point"]["dynamic"] is True for row in rows)
