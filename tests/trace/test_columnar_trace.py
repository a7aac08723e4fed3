"""Columnar traces: the column-built trace equals the event-built one.

Every registered workload is generated twice: through its generator body
into :class:`~repro.trace.trace.TraceBuilder` (the columns the simulator
runs on) and through the same body into
:class:`~repro.trace.stream.EventEmitter` (the events ``run_stream``
consumes), rebuilt with ``Trace(name, events=...)``.  The two must agree
on the event sequence, the trace digest and every compiled column — the
compiled forms are checked against event-walking reference compilers.
"""

from __future__ import annotations

import math
import pickle
from typing import Dict, List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.constants import ADDRESS_MASK
from repro.common.errors import TraceError
from repro.sim.batch import OP_SUBMIT, OP_WAIT, OP_WAIT_ON, lane_program
from repro.trace.events import SpawnEvent, TaskSubmitEvent, TaskwaitEvent, TaskwaitOnEvent
from repro.trace.serialization import (
    _event_to_json,
    trace_digest,
    trace_from_json,
    trace_to_json,
)
from repro.trace.columns import FULL_TASKWAIT, TraceColumns
from repro.trace.task import Direction, Parameter, TaskDescriptor
from repro.trace.trace import Trace, TraceBuilder
from repro.workloads.registry import (
    DYNAMIC_PROGRAMS,
    get_workload,
    get_workload_stream,
    list_workloads,
)

STATIC_WORKLOADS = [name for name in list_workloads() if name not in DYNAMIC_PROGRAMS]
SEEDS = (1, 7, 2015)
SCALES = (0.001, 0.004)


def _event_built(name: str, scale: float, seed: int) -> Trace:
    stream = get_workload_stream(name, scale=scale, seed=seed)
    return Trace(stream.name, events=tuple(stream.iter_events()), metadata=dict(stream.metadata))


# -- reference compilers: the pre-columnar algorithms, walking events ----------

_FLAG = {Direction.IN: 1, Direction.OUT: 2, Direction.INOUT: 3}


def _reference_access_program(trace: Trace) -> Dict[str, list]:
    addresses: List[int] = []
    id_of: Dict[int, int] = {}
    task_ids, offsets, addr_ids, flags = [], [0], [], []
    for event in trace.events:
        if not isinstance(event, TaskSubmitEvent):
            continue
        task_ids.append(event.task.task_id)
        merged: Dict[int, int] = {}
        for param in event.task.params:
            flag = _FLAG[param.direction]
            previous = merged.get(param.address)
            merged[param.address] = flag if previous is None or previous == flag else 3
        for address, flag in merged.items():
            if address not in id_of:
                id_of[address] = len(addresses)
                addresses.append(address)
            addr_ids.append(id_of[address])
            flags.append(flag)
        offsets.append(len(addr_ids))
    return {"addresses": addresses, "id_of": id_of, "task_ids": task_ids,
            "offsets": offsets, "addr_ids": addr_ids, "flags": flags}


def _reference_lane_columns(trace: Trace) -> Dict[str, object]:
    ops, op_slot, op_wait, tasks = [], [], [], []
    last_writer: Dict[int, int] = {}
    for event in trace.events:
        if isinstance(event, TaskSubmitEvent):
            ops.append(OP_SUBMIT)
            op_slot.append(len(tasks))
            op_wait.append(-1)
            for param in event.task.params:
                if param.direction.writes:
                    last_writer[param.address] = len(tasks)
            tasks.append(event.task)
        elif isinstance(event, TaskwaitEvent):
            ops.append(OP_WAIT)
            op_slot.append(-1)
            op_wait.append(-1)
        else:
            ops.append(OP_WAIT_ON)
            op_slot.append(-1)
            op_wait.append(last_writer.get(event.address, -1))
    return {
        "ops": ops, "op_slot": op_slot, "op_wait": op_wait,
        "task_ids": [task.task_id for task in tasks],
        "has_wait_on": OP_WAIT_ON in ops,
        "total_work_us": sum(task.duration_us for task in tasks),
        "duration": [task.duration_us for task in tasks],
        "creation": [task.creation_overhead_us for task in tasks],
    }


def _assert_columnar_equals_events(columnar: Trace, events: Trace) -> None:
    assert columnar == events
    assert columnar.events == events.events
    assert trace_digest(columnar) == trace_digest(events)
    assert trace_to_json(columnar)["events"] == [_event_to_json(e) for e in events.events]
    assert (columnar.num_tasks, columnar.num_barriers, len(columnar)) == (
        sum(isinstance(e, TaskSubmitEvent) for e in events.events),
        sum(not isinstance(e, TaskSubmitEvent) for e in events.events),
        len(events.events),
    )
    program = columnar.access_program()
    for field, expected in _reference_access_program(events).items():
        assert getattr(program, field) == expected, field
    prog = lane_program(columnar)
    for field, expected in _reference_lane_columns(events).items():
        actual = getattr(prog, field)
        assert (list(actual) if isinstance(expected, list) else actual) == expected, field
    assert (prog.acc_off, prog.acc_aid, prog.acc_flags) == (
        program.offsets, program.addr_ids, program.flags)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", STATIC_WORKLOADS)
def test_static_workload_columns_equal_events(name, seed, scale):
    columnar = get_workload(name, scale=scale, seed=seed)
    assert "_events" not in columnar.__dict__  # built from columns, no event objects
    _assert_columnar_equals_events(columnar, _event_built(name, scale, seed))
    assert tuple(get_workload_stream(name, scale=scale, seed=seed).iter_events()) == \
        get_workload(name, scale=scale, seed=seed).events


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(DYNAMIC_PROGRAMS))
def test_dynamic_elaboration_columns_equal_events(name, seed, scale):
    events = _event_built(name, scale, seed)
    builder = TraceBuilder(events.name, events.metadata)
    builder.extend(events.events)
    columnar = builder.build()
    _assert_columnar_equals_events(columnar, events)
    # The column view rebuilds the recorded spawns with their parents.
    assert all(isinstance(e, SpawnEvent) for e in columnar.events if isinstance(e, TaskSubmitEvent))
    assert get_workload(name, scale=scale, seed=seed) == columnar


def test_taskwait_on_targets_are_the_last_writer_before_the_barrier():
    a, b, c, never = 0x40, 0x80, 0xC0, 0x100
    builder = TraceBuilder("wait-on")
    builder.task("w", 1.0, inputs=[c], outputs=[a])      # slot 0: c is only read
    builder.task("r", 1.0, inputs=[a])                   # slot 1: reads a
    builder.taskwait_on(a)                               # -> 0
    builder.taskwait_on(c)                               # read, never written -> -1
    builder.task("twice", 1.0, inputs=[a], outputs=[a])  # slot 2: a listed twice
    builder.taskwait()
    builder.task("u", 1.0, inouts=[a])                   # slot 3
    builder.task("r", 1.0, inputs=[a, b, b])             # slot 4: reads only
    builder.taskwait_on(a)                               # -> 3, across the full taskwait
    builder.taskwait_on(never)                           # never named by a task -> -1
    builder.task("w", 1.0, outputs=[b])                  # slot 5
    builder.taskwait_on(b)                               # -> 5
    builder.taskwait_on(a)                               # -> 3 again
    trace = builder.build()
    prog = lane_program(trace)
    assert prog.op_wait == [-1, -1, 0, -1, -1, -1, -1, -1, 3, -1, -1, 5, 3]
    assert prog.op_wait == _reference_lane_columns(trace)["op_wait"]


def _provenance_events():
    sized = Parameter(address=0x100, direction=Direction.OUT, size=64)
    first = TaskDescriptor(0, "root", (sized,), 3.0, creation_overhead_us=0.5)
    second = TaskDescriptor(1, "child", (Parameter(0x100, Direction.IN),
                                          Parameter(0x140, Direction.INOUT, size=8)), 1.0)
    third = TaskDescriptor(2, "leaf", (), 2.0)
    return (SpawnEvent(first, parent_id=None), TaskwaitOnEvent(0x100),
            SpawnEvent(second, parent_id=0), TaskSubmitEvent(third), TaskwaitEvent())


class TestRoundTrips:
    def test_spawn_parents_and_sizes_survive_the_columns(self):
        events = _provenance_events()
        trace = Trace("provenance", events=events)
        assert trace.columns.parents == {0: None, 1: 0}
        assert trace.columns.sizes == (64, 0, 8)
        assert Trace.from_columns("provenance", trace.columns).events == events
        builder = TraceBuilder("provenance")
        builder.extend(events)
        assert builder.build().events == events
        assert trace_from_json(trace_to_json(trace)).events == events
        assert [task.params for task in Trace.from_columns("p", trace.columns).tasks()] == \
            [event.task.params for event in events if isinstance(event, TaskSubmitEvent)]

    def test_pickle_leaves_out_the_lazy_caches(self):
        trace = get_workload("h264dec-2x2-10f", scale=0.02, seed=3)
        trace.events, trace.descriptors(), trace.access_program(), lane_program(trace)
        assert {"_events", "_descriptors", "_compiled_access_program",
                "_compiled_lane_program"} <= set(trace.__dict__)
        clone = pickle.loads(pickle.dumps(trace))
        assert set(clone.__dict__) == {"name", "columns", "metadata"}
        assert clone == trace and clone.events == trace.events

    def test_pickle_of_an_event_built_trace_keeps_its_provenance(self):
        trace = Trace("provenance", events=_provenance_events())
        clone = pickle.loads(pickle.dumps(trace))
        assert "_events" not in clone.__dict__
        assert clone.events == trace.events

    def test_counts_are_column_reads(self):
        trace = get_workload("sparselu", scale=0.01, seed=2)
        assert trace.total_work_us == sum(task.duration_us for task in trace.tasks())
        assert len(trace) == trace.num_tasks + trace.num_barriers
        assert "_events" not in trace.__dict__


# -- column validation -------------------------------------------------------

#: (column, bad values) the builder must reject at build().
_BAD_VALUES = {
    "duration_us": [math.nan, math.inf, -math.inf, -1.0, -1e-9],
    "creation_overhead_us": [math.nan, math.inf, -math.inf, -2.5],
    "addresses": [True, False, -1, ADDRESS_MASK + 1, 1 << 60],
    "function": [""],
}


@st.composite
def _corrupted_program(draw):
    num_tasks = draw(st.integers(min_value=1, max_value=12))
    bad_task = draw(st.integers(min_value=0, max_value=num_tasks - 1))
    column = draw(st.sampled_from(sorted(_BAD_VALUES)))
    value = draw(st.sampled_from(_BAD_VALUES[column]))
    barriers = draw(st.lists(st.integers(min_value=0, max_value=num_tasks), max_size=3))
    return num_tasks, bad_task, column, value, barriers


@given(_corrupted_program())
def test_builder_rejects_out_of_domain_values_naming_column_and_task(program):
    num_tasks, bad_task, column, value, barriers = program
    builder = TraceBuilder("corrupt")
    for index in range(num_tasks):
        fields = {"function": "f", "duration_us": 1.0, "creation_overhead_us": 0.0,
                  "addresses": [0x40 * (index + 1)]}
        if index == bad_task:
            fields[column] = [value] if column == "addresses" else value
        for _ in range(barriers.count(index)):
            builder.taskwait()
        builder.task(fields["function"], fields["duration_us"], outputs=fields["addresses"],
                     creation_overhead_us=fields["creation_overhead_us"])
    with pytest.raises(TraceError) as excinfo:
        builder.build()
    message = str(excinfo.value)
    assert f"column {column!r}" in message and f"task {bad_task}:" in message
    # The event sink checks the same task the same way, as it is emitted.
    from repro.trace.stream import EventEmitter

    emit = EventEmitter()
    with pytest.raises(TraceError, match=f"task {bad_task}"):
        for index in range(num_tasks):
            fields = {"function": "f", "duration_us": 1.0, "creation_overhead_us": 0.0,
                      "addresses": [0x40 * (index + 1)]}
            if index == bad_task:
                fields[column] = [value] if column == "addresses" else value
            emit.task(fields["function"], fields["duration_us"], outputs=fields["addresses"],
                      creation_overhead_us=fields["creation_overhead_us"])


def test_builder_accepts_the_domain_edges():
    builder = TraceBuilder("edges")
    builder.task("f", 0.0, outputs=[0, ADDRESS_MASK])
    builder.taskwait_on(ADDRESS_MASK)
    trace = builder.build()
    assert trace.columns.addresses == (0, ADDRESS_MASK)


@pytest.mark.parametrize("address", [True, -1, ADDRESS_MASK + 1])
def test_bad_taskwait_on_address_rejected(address):
    with pytest.raises(TraceError, match="taskwait on address"):
        TraceBuilder("barrier").taskwait_on(address)
    if address != FULL_TASKWAIT:  # -1 is the column's full-taskwait marker
        with pytest.raises(TraceError, match="barrier_addr"):
            TraceColumns((), (), (), (), (0,), (), (), barrier_at=(0,), barrier_addr=(address,))
