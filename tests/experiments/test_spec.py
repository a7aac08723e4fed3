"""Tests for SweepSpec / RunPoint / WorkloadSpec."""

import pickle

import pytest

from repro.analysis.factories import NexusSharpFactory, nexus_sharp_factory, paper_manager_set
from repro.common.errors import ConfigurationError
from repro.experiments.spec import RunPoint, SweepSpec, WorkloadSpec
from repro.workloads.synthetic import generate_independent


class TestWorkloadSpec:
    @pytest.mark.parametrize("scale", [0.0, -0.5, float("nan"), float("inf")])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ConfigurationError, match="scale"):
            WorkloadSpec(name="microbench", scale=scale)
        with pytest.raises(ConfigurationError, match="scale"):
            SweepSpec(workloads=["microbench"], managers=["ideal"], core_counts=[1],
                      scale=scale)

    def test_named_workload_resolves_through_registry(self):
        spec = WorkloadSpec.of("microbench")
        trace = spec.resolve()
        assert trace.num_tasks == 5
        assert spec.describe() == {"name": "microbench", "scale": 1.0, "seed": None}

    def test_inline_trace_is_content_addressed(self):
        trace = generate_independent(6, duration_us=10.0, seed=3)
        spec = WorkloadSpec.of(trace)
        assert spec.resolve() is trace
        description = spec.describe()
        assert description["name"] == trace.name
        assert len(description["inline_digest"]) == 64
        # Same content, same digest; different content, different digest.
        same = WorkloadSpec.of(generate_independent(6, duration_us=10.0, seed=3))
        other = WorkloadSpec.of(generate_independent(7, duration_us=10.0, seed=3))
        assert same.describe() == description
        assert other.describe() != description

    def test_with_seed_only_touches_named_workloads(self):
        named = WorkloadSpec.of("c-ray", scale=0.05)
        assert named.with_seed(7).seed == 7
        assert named.with_seed(None).seed is None
        inline = WorkloadSpec.of(generate_independent(4, seed=1))
        assert inline.with_seed(7) is inline

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.of(42)


class TestManagerParsing:
    def test_malformed_nexus_specs_raise_configuration_error(self):
        from repro.analysis.factories import parse_manager

        for bad in ("nexus#six", "nexus#6@fast", "nexus#@", "nexus#1.5"):
            with pytest.raises(ConfigurationError, match="malformed manager name"):
                parse_manager(bad)


class TestSweepSpec:
    def test_grid_enumeration_order_is_deterministic(self):
        spec = SweepSpec(
            workloads=["microbench", "c-ray"],
            managers=["ideal", "nexus#2"],
            core_counts=[1, 4],
            scale=0.05,
        )
        points = list(spec.points())
        assert len(points) == 8 == spec.num_points()
        labels = [(p.workload.name, p.manager_name, p.cores) for p in points]
        assert labels[:4] == [
            ("microbench", "Ideal", 1),
            ("microbench", "Ideal", 4),
            ("microbench", "Nexus# 2TG", 1),
            ("microbench", "Nexus# 2TG", 4),
        ]
        assert labels == [(p.workload.name, p.manager_name, p.cores) for p in spec.points()]

    def test_manager_mapping_input_preserves_display_names(self):
        spec = SweepSpec(
            workloads=["microbench"], managers=paper_manager_set(), core_counts=[1]
        )
        assert [name for name, _ in spec.managers] == ["Ideal", "Nanos", "Nexus++", "Nexus# 6TG"]

    def test_max_cores_caps_filter_points(self):
        spec = SweepSpec(
            workloads=["microbench"],
            managers=["ideal", "nanos"],
            core_counts=[1, 8, 32],
            max_cores={"Nanos": 8},
        )
        nanos_cores = [p.cores for p in spec.points() if p.manager_name == "Nanos"]
        assert nanos_cores == [1, 8]

    def test_seed_axis_multiplies_named_workloads(self):
        spec = SweepSpec(
            workloads=["microbench"], managers=["ideal"], core_counts=[1], seeds=(1, 2)
        )
        seeds = [p.workload.seed for p in spec.points()]
        assert seeds == [1, 2]

    def test_seed_axis_does_not_duplicate_inline_traces(self):
        trace = generate_independent(6, duration_us=10.0, seed=3)
        spec = SweepSpec(
            workloads=(trace,), managers=["ideal"], core_counts=[1, 2], seeds=(1, 2, 3)
        )
        # The seed axis cannot affect an inline trace: one copy of the grid.
        assert spec.num_points() == 2
        mixed = SweepSpec(
            workloads=(trace, "microbench"), managers=["ideal"], core_counts=[1], seeds=(1, 2)
        )
        labels = [(p.workload.name, p.workload.seed) for p in mixed.points()]
        assert labels == [(trace.name, None), ("microbench", 1), ("microbench", 2)]

    def test_repeated_seed_values_are_deduplicated(self):
        spec = SweepSpec(
            workloads=["microbench"], managers=["ideal"], core_counts=[1], seeds=(7, 7)
        )
        assert spec.num_points() == 1

    def test_dataclasses_replace_round_trips(self):
        import dataclasses

        spec = SweepSpec(
            workloads=["microbench"],
            managers=["ideal", "nexus#2"],
            core_counts=[1, 2],
            max_cores={"Ideal": 1},
        )
        renamed = dataclasses.replace(spec, name="renamed")
        assert renamed.name == "renamed"
        assert renamed.managers == spec.managers
        assert renamed.max_cores == spec.max_cores
        assert renamed.spec_hash() == spec.spec_hash()
        assert [p.cache_key() for p in renamed.points()] == [p.cache_key() for p in spec.points()]

    def test_spec_hash_is_stable_and_sensitive(self):
        def build(cores):
            return SweepSpec(
                workloads=["microbench"], managers=["ideal"], core_counts=cores
            )

        assert build([1, 2]).spec_hash() == build([1, 2]).spec_hash()
        assert build([1, 2]).spec_hash() != build([1, 4]).spec_hash()

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(workloads=[], managers=["ideal"], core_counts=[1])
        with pytest.raises(ConfigurationError):
            SweepSpec(workloads=["microbench"], managers=[], core_counts=[1])
        with pytest.raises(ConfigurationError):
            SweepSpec(workloads=["microbench"], managers=["ideal"], core_counts=[])
        with pytest.raises(ConfigurationError):
            SweepSpec(workloads=["microbench"], managers=["ideal"], core_counts=[0])
        with pytest.raises(ConfigurationError):
            SweepSpec(workloads=["microbench"], managers=["ideal"], core_counts=[1], seeds=())
        with pytest.raises(ConfigurationError):
            SweepSpec(
                workloads=["microbench"], managers=["ideal", "ideal"], core_counts=[1]
            )


class TestRunPoint:
    def _point(self, **overrides):
        defaults = dict(
            workload=WorkloadSpec.of("microbench"),
            manager_name="Nexus# 2TG",
            factory=NexusSharpFactory(num_task_graphs=2),
            cores=4,
        )
        defaults.update(overrides)
        return RunPoint(**defaults)

    def test_cache_key_changes_with_manager_configuration(self):
        base = self._point()
        same = self._point()
        retuned = self._point(factory=NexusSharpFactory(num_task_graphs=2, frequency_mhz=100.0))
        assert base.cache_key() == same.cache_key()
        assert base.cache_key() != retuned.cache_key()
        assert base.cache_key() != self._point(cores=8).cache_key()

    def test_run_executes_the_simulation(self):
        result = self._point(cores=2).run()
        assert result.trace_name == "microbench-independent"
        assert result.num_cores == 2
        assert result.makespan_us > 0

    def test_points_pickle(self):
        point = self._point()
        clone = pickle.loads(pickle.dumps(point))
        assert clone.cache_key() == point.cache_key()
        assert clone.run().makespan_us == point.run().makespan_us

    def test_factory_sweep_helper_equivalence(self):
        # The convenience wrappers build the same picklable factories.
        assert nexus_sharp_factory(2) == NexusSharpFactory(num_task_graphs=2)
