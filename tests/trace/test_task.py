"""Tests for task descriptors and parameters."""

import pytest

from repro.common.constants import ADDRESS_MASK
from repro.common.errors import TraceError
from repro.trace.dynamic import Compute, TaskRequest
from repro.trace.task import (
    DIRECTION_OF_FLAGS,
    FLAG_READS,
    FLAG_READWRITE,
    FLAG_WRITES,
    Direction,
    Parameter,
    TaskDescriptor,
    make_task,
    task_accesses,
)

from task_params import make_params

#: Durations a simulated time must never take.
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestDirection:
    def test_reads_writes_flags(self):
        assert Direction.IN.reads and not Direction.IN.writes
        assert Direction.OUT.writes and not Direction.OUT.reads
        assert Direction.INOUT.reads and Direction.INOUT.writes

    def test_parse_from_string(self):
        assert Direction.parse("in") is Direction.IN
        assert Direction.parse("INOUT") is Direction.INOUT

    def test_parse_passthrough(self):
        assert Direction.parse(Direction.OUT) is Direction.OUT

    def test_parse_invalid(self):
        with pytest.raises(TraceError):
            Direction.parse("sideways")


class TestParameter:
    def test_valid_parameter(self):
        p = Parameter(address=0x1000, direction=Direction.IN, size=64)
        assert p.direction.reads and not p.direction.writes

    def test_string_direction_normalised(self):
        p = Parameter(address=0x1000, direction="out")
        assert p.direction is Direction.OUT

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            Parameter(address=-1, direction=Direction.IN)

    def test_address_wider_than_48_bits_rejected(self):
        with pytest.raises(TraceError):
            Parameter(address=ADDRESS_MASK + 1, direction=Direction.IN)

    def test_negative_size_rejected(self):
        with pytest.raises(TraceError):
            Parameter(address=0, direction=Direction.IN, size=-4)


class TestTaskDescriptor:
    def _task(self, **kwargs):
        defaults = dict(
            task_id=0,
            function="work",
            params=make_params(inputs=[0x100], outputs=[0x200]),
            duration_us=5.0,
        )
        defaults.update(kwargs)
        return TaskDescriptor(**defaults)

    def test_basic_properties(self):
        task = self._task()
        assert task.num_params == 2
        assert task.flags == (FLAG_READS, FLAG_WRITES)
        assert task.output_addresses == (0x200,)
        assert task.addresses == (0x100, 0x200)

    def test_inout_counted_in_both_views(self):
        task = self._task(params=make_params(inouts=[0x300]))
        assert task.flags == (FLAG_READWRITE,)
        assert task.output_addresses == (0x300,)

    def test_negative_id_rejected(self):
        with pytest.raises(TraceError):
            self._task(task_id=-1)

    def test_empty_function_rejected(self):
        with pytest.raises(TraceError):
            self._task(function="")

    def test_negative_duration_rejected(self):
        with pytest.raises(TraceError):
            self._task(duration_us=-1.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_duration_rejected(self, value):
        with pytest.raises(TraceError, match="finite"):
            self._task(duration_us=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_creation_overhead_rejected(self, value):
        with pytest.raises(TraceError, match="finite"):
            self._task(creation_overhead_us=value)

    def test_non_parameter_entries_rejected(self):
        with pytest.raises(TraceError):
            self._task(params=(0x100,))

    def test_with_id(self):
        task = self._task().with_id(7)
        assert task.task_id == 7

    def test_params_list_converted_to_tuple(self):
        task = TaskDescriptor(
            task_id=1,
            function="f",
            params=list(make_params(inputs=[1])),
            duration_us=1.0,
        )
        assert isinstance(task.params, tuple)


class TestTaskAccesses:
    def test_order_inputs_inouts_outputs(self):
        addresses, flags, sizes, given = task_accesses(inputs=[1], outputs=[3], inouts=[2])
        assert [DIRECTION_OF_FLAGS[f] for f in flags] == [Direction.IN, Direction.INOUT, Direction.OUT]
        assert addresses == (1, 2, 3)
        assert sizes is None and given is None

    def test_empty(self):
        assert task_accesses() == ((), (), None, None)

    def test_params_form_keeps_the_parameters(self):
        params = (Parameter(0x40, Direction.OUT, size=8), Parameter(0x80, Direction.IN))
        assert task_accesses(params=params) == ((0x40, 0x80), (2, 1), (8, 0), params)

    def test_params_and_address_lists_exclusive(self):
        with pytest.raises(TraceError, match="not both"):
            task_accesses(inputs=[1], params=(Parameter(1, Direction.IN),))

    def test_descriptor_builds_parameters_lazily(self):
        task = TaskDescriptor(0, "f", make_params(inputs=[1], outputs=[2]), 1.0)
        flat = make_task(0, "f", (1, 2), (1, 2), None, 1.0, 0.0)
        assert flat._params is None
        assert flat == task and hash(flat) == hash(task)
        assert flat.params == task.params
        assert flat.num_params == 2 and flat._params is not None

    def test_bool_address_rejected(self):
        with pytest.raises(TraceError):
            Parameter(address=True, direction=Direction.IN)


class TestDynamicDurations:
    """The dynamic program's task requests and compute ops feed the same
    engine as descriptors, so they reject the same non-finite values."""

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_task_request_non_finite_duration_rejected(self, value):
        with pytest.raises(TraceError, match="finite"):
            TaskRequest("work", duration_us=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_task_request_non_finite_creation_overhead_rejected(self, value):
        with pytest.raises(TraceError, match="finite"):
            TaskRequest("work", duration_us=1.0, creation_overhead_us=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_compute_non_finite_duration_rejected(self, value):
        with pytest.raises(TraceError, match="finite"):
            Compute(value)

    def test_finite_values_accepted(self):
        assert TaskRequest("work", duration_us=0.0, creation_overhead_us=2.5).duration_us == 0.0
        assert Compute(3).duration_us == 3.0
