"""Unit tests for the pluggable scheduler policies."""

import pytest

from repro.common.errors import ConfigurationError
from repro.system.scheduling import (
    DurationPriorityPolicy,
    FifoPolicy,
    LocalityPolicy,
    SchedulerPolicy,
    canonical_policy_name,
    describe_policy,
    list_policies,
    make_policy,
)


def keys(duration: float = 10.0, function: str = "f") -> tuple:
    """The keys a policy sees of a task besides its id: duration, function."""
    return duration, function


class TestRegistry:
    def test_list_policies(self):
        assert list_policies() == ["fifo", "ljf", "locality", "sjf"]

    @pytest.mark.parametrize("alias, canonical", [
        ("fifo", "fifo"), ("default", "fifo"),
        ("sjf", "sjf"), ("shortest", "sjf"), ("SHORTEST-FIRST", "sjf"),
        ("ljf", "ljf"), ("longest", "ljf"),
        ("locality", "locality"), ("affinity", "locality"),
    ])
    def test_aliases_canonicalise(self, alias, canonical):
        assert canonical_policy_name(alias) == canonical

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_policy_name("round-robin")

    def test_make_policy_passthrough(self):
        policy = FifoPolicy()
        assert make_policy(policy) is policy

    def test_describe_is_canonical_across_aliases(self):
        assert describe_policy("shortest") == describe_policy("sjf")
        assert describe_policy("sjf") != describe_policy("ljf")

    def test_every_policy_is_a_scheduler_policy(self):
        for name in list_policies():
            assert isinstance(make_policy(name), SchedulerPolicy)


class TestFifoPolicy:
    def test_dispatches_in_ready_order(self):
        policy = FifoPolicy()
        for i in (3, 1, 2):
            policy.enqueue(i, *keys(), 0.0)
        assert [policy.select(0, 1.0) for _ in range(3)] == [3, 1, 2]
        assert len(policy) == 0

    def test_select_on_empty_returns_none(self):
        assert FifoPolicy().select(0, 0.0) is None

    def test_reset_clears_queue(self):
        policy = FifoPolicy()
        policy.enqueue(1, *keys(), 0.0)
        policy.reset()
        assert len(policy) == 0


class TestDurationPriorityPolicy:
    def test_shortest_first(self):
        policy = DurationPriorityPolicy()
        policy.enqueue(1, *keys(duration=30.0), 0.0)
        policy.enqueue(2, *keys(duration=10.0), 0.0)
        policy.enqueue(3, *keys(duration=20.0), 0.0)
        assert [policy.select(0, 1.0) for _ in range(3)] == [2, 3, 1]

    def test_longest_first(self):
        policy = DurationPriorityPolicy(longest=True)
        policy.enqueue(1, *keys(duration=30.0), 0.0)
        policy.enqueue(2, *keys(duration=10.0), 0.0)
        policy.enqueue(3, *keys(duration=20.0), 0.0)
        assert [policy.select(0, 1.0) for _ in range(3)] == [1, 3, 2]

    def test_equal_durations_fall_back_to_fifo_order(self):
        policy = DurationPriorityPolicy()
        for i in (5, 4, 6):
            policy.enqueue(i, *keys(duration=10.0), 0.0)
        assert [policy.select(0, 1.0) for _ in range(3)] == [5, 4, 6]

    def test_names(self):
        assert DurationPriorityPolicy().name == "sjf"
        assert DurationPriorityPolicy(longest=True).name == "ljf"


class TestLocalityPolicy:
    def test_prefers_last_function_of_core(self):
        policy = LocalityPolicy()
        policy.on_start(0, "decode", core=0, now=0.0)
        policy.enqueue(1, *keys(function="filter"), 1.0)
        policy.enqueue(2, *keys(function="decode"), 1.0)
        # Core 0 last ran "decode": it should skip the older "filter" task.
        assert policy.select(0, 2.0) == 2
        # The remaining task drains in FIFO order.
        assert policy.select(0, 2.0) == 1
        assert len(policy) == 0

    def test_falls_back_to_fifo_without_affinity(self):
        policy = LocalityPolicy()
        policy.enqueue(1, *keys(function="a"), 0.0)
        policy.enqueue(2, *keys(function="b"), 0.0)
        assert policy.select(7, 1.0) == 1
        assert policy.select(7, 1.0) == 2

    def test_tombstones_do_not_resurrect_tasks(self):
        policy = LocalityPolicy()
        policy.on_start(0, "a", core=0, now=0.0)
        policy.enqueue(1, *keys(function="a"), 1.0)
        policy.enqueue(2, *keys(function="b"), 1.0)
        # Taken from the affinity bucket; still sits in the global queue.
        assert policy.select(0, 2.0) == 1
        # The global pop must skip the consumed task 1.
        assert policy.select(5, 2.0) == 2
        assert policy.select(5, 2.0) is None
        assert len(policy) == 0

    def test_wants_start_events(self):
        assert LocalityPolicy.wants_start_events is True
        assert FifoPolicy.wants_start_events is False

    def test_reset_clears_affinity(self):
        policy = LocalityPolicy()
        policy.on_start(0, "a", core=0, now=0.0)
        policy.enqueue(1, *keys(function="b"), 0.0)
        policy.enqueue(2, *keys(function="a"), 0.0)
        policy.reset()
        assert len(policy) == 0
        policy.enqueue(3, *keys(function="b"), 1.0)
        policy.enqueue(4, *keys(function="a"), 1.0)
        # Affinity forgotten: plain FIFO again.
        assert policy.select(0, 2.0) == 3
