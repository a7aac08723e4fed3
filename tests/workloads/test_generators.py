"""Tests for the workload (trace) generators."""

import pytest

from repro.common.errors import ConfigurationError
from repro.trace.dag import build_dependency_graph
from repro.trace.stats import compute_statistics
from repro.workloads.addressing import AddressSpace
from repro.workloads.cray import generate_cray
from repro.workloads.recursive import (
    fib_program,
    nqueens_program,
    recursive_sort_program,
    strassen_program,
)
from repro.workloads.gaussian import gaussian_avg_flops, gaussian_task_count, generate_gaussian_elimination
from repro.workloads.h264dec import H264Geometry, generate_h264dec
from repro.workloads.microbench import generate_microbenchmark
from repro.workloads.rotcc import generate_rotcc
from repro.workloads.sparselu import generate_sparselu
from repro.workloads.streamcluster import generate_streamcluster


#: Every generator with a ``scale`` argument, called with only that.
SCALED_GENERATORS = {
    "cray": generate_cray,
    "rotcc": generate_rotcc,
    "sparselu": generate_sparselu,
    "streamcluster": generate_streamcluster,
    "h264dec": generate_h264dec,
    "fib": lambda scale: fib_program(5, scale=scale),
    "nqueens": lambda scale: nqueens_program(4, scale=scale),
    "recursive-sort": lambda scale: recursive_sort_program(8, scale=scale),
    "strassen": lambda scale: strassen_program(1, scale=scale),
}


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("generator", sorted(SCALED_GENERATORS))
def test_scale_must_be_finite_and_positive(generator, scale):
    with pytest.raises(ConfigurationError, match="scale must be finite and > 0"):
        SCALED_GENERATORS[generator](scale=scale)


class TestAddressSpace:
    def test_allocations_are_unique_and_aligned(self):
        space = AddressSpace()
        addresses = space.alloc(1000)
        assert len(set(addresses)) == 1000
        assert all(a % 64 == 0 for a in addresses)

    def test_grid_shape(self):
        grid = AddressSpace().alloc_grid(4, 6)
        assert grid.shape == (4, 6)
        assert len(set(grid.flatten().tolist())) == 24

    def test_invalid_stride(self):
        with pytest.raises(ConfigurationError):
            AddressSpace(stride=50)

    def test_deterministic_with_seed(self):
        a = AddressSpace(seed=3, randomize_offsets=True).alloc(50)
        b = AddressSpace(seed=3, randomize_offsets=True).alloc(50)
        assert a == b


class TestCray:
    def test_paper_scale_statistics(self):
        trace = generate_cray(seed=1)
        stats = compute_statistics(trace)
        assert stats.num_tasks == 1200
        assert stats.avg_task_us == pytest.approx(6151.0, rel=0.05)
        assert stats.max_params == 1
        # All tasks independent.
        assert build_dependency_graph(trace).num_edges == 0

    def test_scaling(self):
        assert generate_cray(scale=0.1, seed=1).num_tasks == 120

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            generate_cray(scale=0.0)


class TestRotcc:
    def test_paper_scale_statistics(self):
        trace = generate_rotcc(seed=1)
        stats = compute_statistics(trace)
        assert stats.num_tasks == 16262
        assert stats.avg_task_us == pytest.approx(501.0, rel=0.08)

    def test_pairwise_dependency_structure(self):
        trace = generate_rotcc(num_lines=10, seed=1)
        graph = build_dependency_graph(trace)
        # one edge per line: rotate -> color-convert
        assert graph.num_edges == 10
        assert graph.dependency_count_range() == (0, 1)


class TestSparselu:
    def test_task_types_and_parameter_range(self):
        trace = generate_sparselu(num_blocks=8, seed=1)
        functions = trace.functions()
        assert set(functions) == {"lu0", "fwd", "bdiv", "bmod"}
        assert trace.param_count_range() == (1, 3)

    def test_task_count_close_to_paper_at_default_size(self):
        trace = generate_sparselu(seed=1)
        assert trace.num_tasks == pytest.approx(54814, rel=0.25)

    def test_dependencies_exist(self):
        trace = generate_sparselu(num_blocks=5, seed=1)
        assert build_dependency_graph(trace).num_edges > 0

    def test_invalid_density(self):
        with pytest.raises(ConfigurationError):
            generate_sparselu(density=0.0)


class TestStreamcluster:
    def test_structure(self):
        trace = generate_streamcluster(num_rounds=3, group_size=10, seed=1)
        # 3 rounds x (10 gain tasks + 1 recluster)
        assert trace.num_tasks == 33
        assert trace.num_barriers == 3 + 1  # one taskwait per round + final
        stats = compute_statistics(trace)
        assert stats.max_params <= 3

    def test_avg_task_size_near_paper(self):
        trace = generate_streamcluster(num_rounds=5, seed=1)
        assert compute_statistics(trace).avg_task_us == pytest.approx(364.0, rel=0.15)

    def test_invalid_group_size(self):
        with pytest.raises(ConfigurationError):
            generate_streamcluster(group_size=0)


class TestH264Dec:
    def test_geometry(self):
        geometry = H264Geometry()
        assert geometry.mb_cols == 120
        assert geometry.mb_rows == 68
        assert geometry.task_grid(8) == (9, 15)

    def test_grouping_reduces_task_count(self):
        fine = generate_h264dec(grouping=1, num_frames=1, scale=0.1, seed=1)
        coarse = generate_h264dec(grouping=4, num_frames=1, scale=0.1, seed=1)
        assert fine.num_tasks > coarse.num_tasks

    def test_avg_task_duration_follows_table2(self):
        for grouping, expected in ((1, 4.6), (8, 189.9)):
            trace = generate_h264dec(grouping=grouping, num_frames=1, scale=0.1, seed=1)
            assert compute_statistics(trace).avg_task_us == pytest.approx(expected, rel=0.15)

    def test_wavefront_dependencies(self):
        trace = generate_h264dec(grouping=8, num_frames=1, scale=1.0, seed=1,
                                 inter_frame_dependency=False)
        graph = build_dependency_graph(trace)
        rows, cols = 9, 15
        # interior block depends on left and upper-right neighbours
        min_deps, max_deps = graph.dependency_count_range()
        assert min_deps == 0
        assert max_deps == 2

    def test_taskwait_on_barriers_present(self):
        trace = generate_h264dec(grouping=8, num_frames=6, scale=0.1, seed=1, frame_buffers=2)
        kinds = [e.kind for e in trace.events]
        assert "taskwait_on" in kinds

    def test_param_range_matches_paper_spirit(self):
        trace = generate_h264dec(grouping=4, num_frames=2, scale=0.1, seed=1)
        low, high = trace.param_count_range()
        assert low >= 1 and high <= 6

    def test_name_encodes_configuration(self):
        assert generate_h264dec(grouping=2, num_frames=10, scale=0.05).name == "h264dec-2x2-10f"

    def test_invalid_grouping(self):
        with pytest.raises(ConfigurationError):
            generate_h264dec(grouping=0)


class TestGaussian:
    def test_task_count_formula_matches_table3(self):
        assert gaussian_task_count(250) == 31374
        assert gaussian_task_count(500) == 125249
        assert gaussian_task_count(1000) == 500499
        assert gaussian_task_count(3000) == 4501499

    def test_avg_flops_matches_table3(self):
        assert gaussian_avg_flops(250) == pytest.approx(167, rel=0.01)
        assert gaussian_avg_flops(500) == pytest.approx(334, rel=0.01)
        assert gaussian_avg_flops(1000) == pytest.approx(667, rel=0.01)
        assert gaussian_avg_flops(3000) == pytest.approx(2000, rel=0.01)

    def test_generated_trace_matches_formulas(self):
        trace = generate_gaussian_elimination(matrix_size=40)
        assert trace.num_tasks == gaussian_task_count(40)
        stats = compute_statistics(trace)
        assert stats.avg_task_us == pytest.approx(gaussian_avg_flops(40) / 2000.0, rel=0.01)

    def test_first_wave_structure(self):
        """One ready task, n-1 direct dependents sharing the pivot address
        (the paper's description of the 250x250 start)."""
        n = 30
        trace = generate_gaussian_elimination(matrix_size=n)
        graph = build_dependency_graph(trace)
        roots = graph.roots()
        assert len(roots) == 1
        assert len(graph.successors[roots[0]]) == n - 1

    def test_invalid_matrix(self):
        with pytest.raises(ConfigurationError):
            generate_gaussian_elimination(matrix_size=1)


class TestMicrobench:
    def test_five_independent_two_parameter_tasks(self):
        trace = generate_microbenchmark()
        assert trace.num_tasks == 5
        assert trace.param_count_range() == (2, 2)
        assert build_dependency_graph(trace).num_edges == 0

    def test_custom_sizes(self):
        trace = generate_microbenchmark(num_tasks=3, params_per_task=4)
        assert trace.num_tasks == 3
        assert trace.param_count_range() == (4, 4)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            generate_microbenchmark(num_tasks=0)
