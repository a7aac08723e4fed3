"""Tests for the Dependence Counts Arbiter gather model."""

import pytest

from repro.common.errors import SimulationError
from repro.nexus.arbiter import DependenceCountsArbiter
from repro.sim.resource import SerialResource


def make_arbiter(cycle_us=0.01):
    return DependenceCountsArbiter(
        cycles_per_result=1, conclude_cycles=1, decrement_cycles=1, cycle_us=cycle_us
    )


class TestGather:
    def test_single_result_concludes_immediately(self):
        arbiter = make_arbiter()
        concluded = arbiter.gather([0.0])
        assert concluded == pytest.approx(0.02)  # 1 collect + 1 conclude cycle

    def test_multi_result_concludes_on_last(self):
        arbiter = make_arbiter()
        # Three results back to back from t=0, then the conclude cycle.
        assert arbiter.gather([0.0, 0.0, 0.0]) == pytest.approx(0.04)
        # A late last result delays the conclude step, not the early ones.
        arbiter.reset()
        assert arbiter.gather([0.0, 5.0]) == pytest.approx(5.02)

    def test_results_serialise_on_the_arbiter(self):
        arbiter = make_arbiter()
        first = arbiter.gather([0.0])
        second = arbiter.gather([0.0])
        assert second == pytest.approx(first + 0.02)


class TestDecrement:
    def test_decrement_advances_time(self):
        arbiter = make_arbiter()
        assert arbiter.decrement_many(5.0, 1) == [pytest.approx(5.01)]

    def test_decrements_serialise(self):
        arbiter = make_arbiter()
        first, second = arbiter.decrement_many(0.0, 2)
        assert second == pytest.approx(first + 0.01)
        # The arbiter is one serial unit: later decrements queue behind
        # earlier ones and behind gathers.
        [third] = arbiter.decrement_many(0.0, 1)
        assert third == pytest.approx(second + 0.01)
        assert arbiter.gather([0.0]) == pytest.approx(third + 0.02)

    def test_zero_decrements_is_a_no_op(self):
        arbiter = make_arbiter()
        assert arbiter.decrement_many(1.0, 0) == []
        assert arbiter.busy_time_us == 0.0


class TestAgainstSerialReservations:
    """The inlined batch arithmetic equals the serial-resource reservations
    it models, bit for bit (same operations in the same order)."""

    CYCLE_US = 0.004

    @pytest.mark.parametrize("times", [
        [0.0], [0.0, 0.0, 0.0], [0.5, 1.0, 1.001], [3.0, 3.0, 7.25],
    ])
    def test_gather_is_one_reservation_per_result_then_conclude(self, times):
        arbiter = make_arbiter(self.CYCLE_US)
        reference = SerialResource("reference")
        for _ in range(2):  # the second gather queues behind the first
            for ready in times:
                _, end = reference.reserve(ready, self.CYCLE_US)
            _, concluded = reference.reserve(end, self.CYCLE_US)
            assert arbiter.gather(times) == concluded
        assert arbiter._resource.stats == reference.stats

    @pytest.mark.parametrize("ready, count", [(0.0, 1), (0.0, 5), (2.5, 3)])
    def test_decrement_many_is_one_reservation_per_decrement(self, ready, count):
        arbiter = make_arbiter(self.CYCLE_US)
        arbiter.gather([1.0, 1.0])
        reference = SerialResource("reference")
        for _ in range(2):
            _, end = reference.reserve(1.0, self.CYCLE_US)
        reference.reserve(end, self.CYCLE_US)
        expected = [reference.reserve(ready, self.CYCLE_US)[1] for _ in range(count)]
        assert arbiter.decrement_many(ready, count) == expected
        assert arbiter._resource.stats == reference.stats


class TestMisc:
    def test_invalid_cycle_time(self):
        with pytest.raises(SimulationError):
            DependenceCountsArbiter(1, 1, 1, cycle_us=0.0)

    def test_busy_time_accumulates(self):
        arbiter = make_arbiter()
        arbiter.decrement_many(0.0, 2)
        assert arbiter.busy_time_us == pytest.approx(0.02)
        arbiter.gather([0.0, 0.0])
        assert arbiter.busy_time_us == pytest.approx(0.05)

    def test_reset(self):
        arbiter = make_arbiter()
        arbiter.gather([0.0, 0.0])
        arbiter.decrement_many(0.0, 3)
        arbiter.reset()
        assert arbiter.busy_time_us == 0.0
        assert arbiter.gather([0.0]) == pytest.approx(0.02)
