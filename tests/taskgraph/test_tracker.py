"""Tests for the DependencyTracker (functional dependency engine)."""

import tracemalloc

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.taskgraph.tracker import DependencyTracker
from repro.trace.compiled import FLAG_READS, FLAG_READWRITE, FLAG_WRITES
from repro.trace.dag import build_dependency_graph
from repro.trace.task import DIRECTION_OF_FLAGS, Direction, Parameter, TaskDescriptor
from repro.workloads.synthetic import generate_random_dag

from task_params import make_params


def make_task(task_id, inputs=(), outputs=(), inouts=()):
    return TaskDescriptor(
        task_id=task_id,
        function="f",
        params=make_params(inputs=inputs, outputs=outputs, inouts=inouts),
        duration_us=1.0,
    )


def merged_modes(task):
    """``(address, flags)`` per deduplicated access, as insert reports it."""
    rows = DependencyTracker().insert_task(task)[0]
    return [(row[1], row[2]) for row in rows]


class TestMergeAccessModes:
    def test_distinct_addresses_preserved_in_order(self):
        task = make_task(0, inputs=[0x1, 0x2], outputs=[0x3])
        assert [a for a, _ in merged_modes(task)] == [0x1, 0x2, 0x3]

    def test_duplicate_address_merges_to_readwrite(self):
        task = TaskDescriptor(
            task_id=0,
            function="f",
            params=(
                Parameter(address=0x1, direction=Direction.IN),
                Parameter(address=0x1, direction=Direction.OUT),
            ),
            duration_us=1.0,
        )
        assert merged_modes(task) == [(0x1, FLAG_READWRITE)]

    def test_duplicate_reads_stay_read(self):
        task = TaskDescriptor(
            task_id=0,
            function="f",
            params=(
                Parameter(address=0x1, direction=Direction.IN),
                Parameter(address=0x1, direction=Direction.IN),
            ),
            duration_us=1.0,
        )
        assert merged_modes(task) == [(0x1, FLAG_READS)]


class TestInsertFinish:
    def test_independent_task_ready(self):
        tracker = DependencyTracker()
        rows, dependence_count, wait_mask, conflict_mask = tracker.insert_task(
            make_task(0, outputs=[0x1]))
        assert len(rows) == 1
        assert (dependence_count, wait_mask, conflict_mask) == (0, 0, 0)

    def test_dependent_task_not_ready_until_producer_finishes(self):
        tracker = DependencyTracker()
        tracker.insert_task(make_task(0, outputs=[0x1]))
        _, dependence_count, wait_mask, _ = tracker.insert_task(make_task(1, inputs=[0x1]))
        assert (dependence_count, wait_mask) == (1, 0b1)
        rows, released, newly_ready, kickoff_count = tracker.finish_task(0)
        assert (len(rows), released, newly_ready, kickoff_count) == (1, [[1]], [1], 1)

    def test_multi_dependency_requires_all_producers(self):
        tracker = DependencyTracker()
        tracker.insert_task(make_task(0, outputs=[0x1]))
        tracker.insert_task(make_task(1, outputs=[0x2]))
        _, dependence_count, wait_mask, _ = tracker.insert_task(make_task(2, inputs=[0x1, 0x2]))
        assert (dependence_count, wait_mask) == (2, 0b11)
        assert tracker.finish_task(0)[1:] == ([[2]], [], 1)
        assert tracker.finish_task(1)[1:] == ([[2]], [2], 1)

    def test_masks_index_rows(self):
        """Bit *i* of each mask and ``released[i]`` refer to ``rows[i]``."""
        tracker = DependencyTracker()
        tracker.insert_task(make_task(0, outputs=[0x2]))
        rows, dependence_count, wait_mask, _ = tracker.insert_task(
            make_task(1, inputs=[0x1, 0x2, 0x3]))
        assert [row[1] for row in rows] == [0x1, 0x2, 0x3]
        assert (dependence_count, wait_mask) == (1, 0b010)
        assert tracker.finish_task(0)[1:] == ([[1]], [1], 1)
        rows, released, newly_ready, kickoff_count = tracker.finish_task(1)
        assert [row[1] for row in rows] == [0x1, 0x2, 0x3]
        assert (released, newly_ready, kickoff_count) == ([[], [], []], [], 0)

    def test_finish_before_ready_raises(self):
        tracker = DependencyTracker()
        tracker.insert_task(make_task(0, outputs=[0x1]))
        tracker.insert_task(make_task(1, inputs=[0x1]))
        with pytest.raises(SimulationError):
            tracker.finish_task(1)

    def test_double_insert_raises(self):
        tracker = DependencyTracker()
        tracker.insert_task(make_task(0, outputs=[0x1]))
        with pytest.raises(SimulationError):
            tracker.insert_task(make_task(0, outputs=[0x2]))

    def test_finish_unknown_raises(self):
        with pytest.raises(SimulationError):
            DependencyTracker().finish_task(3)

    def test_in_flight_count(self):
        tracker = DependencyTracker()
        tracker.insert_task(make_task(0, outputs=[0x1]))
        tracker.insert_task(make_task(1, outputs=[0x2]))
        assert tracker.in_flight_tasks == 2
        tracker.finish_task(0)
        assert tracker.in_flight_tasks == 1

    def test_reset(self):
        tracker = DependencyTracker()
        tracker.insert_task(make_task(0, outputs=[0x1]))
        tracker.reset()
        assert tracker.in_flight_tasks == 0
        assert tracker.total_inserted == 0

    def test_reset_forgets_dependence_counts(self):
        tracker = DependencyTracker()
        tracker.insert_task(make_task(0, outputs=[0x1]))
        assert tracker.insert_task(make_task(1, inputs=[0x1]))[1] == 1
        tracker.reset()
        # Task 1 re-enters with no producer, so its count starts at zero.
        assert tracker.insert_task(make_task(1, inputs=[0x1]))[1] == 0
        assert tracker.finish_task(1)[2] == []


def one_address_task(task_id, flag, address=0x40):
    return TaskDescriptor(
        task_id=task_id,
        function="f",
        params=(Parameter(address=address, direction=DIRECTION_OF_FLAGS[flag]),),
        duration_us=1.0,
    )


def kickoff_length(tracker, address=0x40):
    """Waiting accesses on ``address``: the queue past its cursor."""
    aid = tracker._live[address][0]
    return len(tracker._queue[aid]) - tracker._cursor[aid]


R, W, RW = FLAG_READS, FLAG_WRITES, FLAG_READWRITE

#: One address, step by step: ``(task, flags, waits)`` inserts a task
#: and checks whether it had to wait; ``(task, None, released)`` finishes
#: a task and checks whom it kicked off.  ``kickoff`` is the waiting
#: count after the last step, ``None`` when the address must be idle.
ADDRESS_CASES = {
    "first-writer-proceeds": ([(1, W, False)], 0),
    "first-reader-proceeds": ([(1, R, False)], 0),
    "concurrent-readers-proceed": ([(1, R, False), (2, R, False)], 0),
    "raw-waits": ([(1, W, False), (2, R, True)], 1),
    "war-waits": ([(1, R, False), (2, W, True)], 1),
    "waw-waits": ([(1, W, False), (2, W, True)], 1),
    "readwrite-is-a-writer": ([(1, R, False), (2, RW, True)], 1),
    "reader-queues-behind-waiting-writer": (
        [(1, R, False), (2, W, True), (3, R, True)], 2),
    "writer-releases-consecutive-readers": (
        [(1, W, False), (2, R, True), (3, R, True), (1, None, [2, 3])], 0),
    "writer-releases-one-writer": (
        [(1, W, False), (2, W, True), (3, W, True), (1, None, [2])], 1),
    "readers-release-writer-when-all-done": (
        [(1, R, False), (2, R, False), (3, W, True), (1, None, []), (2, None, [3])], 0),
    "release-stops-at-next-writer": (
        [(1, W, False), (2, R, True), (3, W, True), (1, None, [2]), (2, None, [3])], 0),
    "kickoff-length": ([(1, W, False)] + [(task, R, True) for task in range(2, 6)], 4),
    "idle-after-all-finish": (
        [(1, W, False), (2, R, True), (1, None, [2]), (2, None, [])], None),
}


class TestAddressStateMachine:
    @pytest.mark.parametrize("steps, kickoff", ADDRESS_CASES.values(), ids=ADDRESS_CASES)
    def test_one_address(self, steps, kickoff):
        tracker = DependencyTracker()
        for task_id, flag, expected in steps:
            if flag is None:
                assert tracker.finish_task(task_id)[1] == [expected]
            else:
                waits = tracker.insert_task(one_address_task(task_id, flag))[1] == 1
                assert waits is expected
        if kickoff is None:
            assert tracker._live == {} and tracker.tables[0].live_entries == 0
        else:
            assert kickoff_length(tracker) == kickoff

    def test_finish_on_an_untracked_address_raises(self):
        tracker = DependencyTracker()
        tracker.insert_task(one_address_task(1, W))
        tracker._act_rem[tracker._live[0x40][0]] = 0  # the address lost its owner
        with pytest.raises(SimulationError, match="untracked address"):
            tracker.finish_task(1)

    def test_hot_address_memory_stays_bounded(self):
        """One INOUT address, at most 64 tasks in flight: the consumed
        queue prefix is dropped, so memory does not grow with the stream."""
        # Task i reuses id i % 128, free again since task i - 128 finished;
        # the descriptors are built before tracing starts.
        tasks = [one_address_task(task_id, RW) for task_id in range(128)]

        def peak(num_tasks):
            tracker = DependencyTracker()
            tracemalloc.start()
            try:
                for index in range(num_tasks):
                    tracker.insert_task(tasks[index % 128])
                    if index >= 64:
                        tracker.finish_task((index - 64) % 128)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1_000)  # warm up one-time allocations
        assert peak(200_000) <= peak(20_000)


class TestDistribution:
    def test_accesses_routed_by_distribution_function(self):
        tracker = DependencyTracker(num_tables=4, distribute=lambda a: a % 4)
        rows = tracker.insert_task(make_task(0, outputs=[0, 1, 2, 3]))[0]
        assert sorted(row[3] for row in rows) == [0, 1, 2, 3]

    def test_out_of_range_distribution_rejected(self):
        tracker = DependencyTracker(num_tables=2, distribute=lambda a: 5)
        with pytest.raises(SimulationError):
            tracker.insert_task(make_task(0, outputs=[0x1]))

    def test_invalid_table_count(self):
        with pytest.raises(ConfigurationError):
            DependencyTracker(num_tables=0)

    @pytest.mark.parametrize("keyword", ["task_pool", "function_table"])
    def test_tracks_only_dependences(self, keyword):
        """The tracker holds no task pool or function table to pass in."""
        with pytest.raises(TypeError):
            DependencyTracker(**{keyword: None})

    def test_rows_carry_table_index(self):
        tracker = DependencyTracker(num_tables=2, distribute=lambda a: a % 2)
        rows = tracker.insert_task(make_task(0, outputs=[0, 2, 1]))[0]
        assert [row[3] for row in rows] == [0, 0, 1]


class TestAgainstReferenceDag:
    @pytest.mark.parametrize("num_tables", [1, 3, 6])
    def test_release_order_matches_dag(self, num_tables):
        """Replaying a random DAG in topological order through the tracker
        must release exactly the successors the reference DAG predicts."""
        trace = generate_random_dag(80, max_predecessors=3, seed=5)
        graph = build_dependency_graph(trace)
        tracker = DependencyTracker(num_tables=num_tables, distribute=lambda a: a % num_tables)
        ready = set()
        for task in trace.tasks():
            dependence_count = tracker.insert_task(task)[1]
            # Nothing has finished yet, so a task is ready exactly when the
            # reference DAG gives it no predecessors.
            assert (dependence_count == 0) == (len(graph.predecessors[task.task_id]) == 0)
            if dependence_count == 0:
                ready.add(task.task_id)
        # Finish tasks in submission order (a valid topological order);
        # every task must eventually be released exactly once.
        finished = set()
        for task_id in graph.submission_order:
            assert task_id in ready, f"task {task_id} was never released"
            newly_ready = tracker.finish_task(task_id)[2]
            finished.add(task_id)
            for released in newly_ready:
                assert released not in ready
                ready.add(released)
                # All DAG predecessors must have finished by now.
                assert graph.predecessors[released] <= finished
        assert ready == set(graph.submission_order)


class TestResolutionAtInsert:
    """Without a bound program, ids come from the live-address map."""

    def test_evicted_ids_are_reused_and_rows_dropped(self):
        tracker = DependencyTracker()
        for task_id in range(100):
            tracker.insert_task(make_task(task_id, outputs=[0x1000 + 64 * task_id]))
            tracker.finish_task(task_id)
        # Memory is O(live addresses + in-flight tasks), not O(tasks).
        assert tracker._live == {} and tracker._rows_of == {}
        assert len(tracker._act_rem) == 1

    def test_freed_id_never_aliases_a_live_address(self):
        tracker = DependencyTracker()
        tracker.insert_task(make_task(0, outputs=[0x40]))
        tracker.insert_task(make_task(1, outputs=[0x80]))
        tracker.finish_task(0)  # 0x40 is evicted and gives its id back
        rows, _, wait_mask, _ = tracker.insert_task(
            make_task(2, inputs=[0x80], outputs=[0x40]))
        # 0x40 takes the freed id; 0x80 keeps its own and its writer.
        assert [row[1] for row in rows] == [0x80, 0x40]
        assert wait_mask == 0b01
        assert len(tracker._act_rem) == 2
        assert tracker.finish_task(1)[2] == [2]
