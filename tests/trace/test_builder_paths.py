"""TraceBuilder's fast and general append paths write the same columns.

``TraceBuilder.task`` appends the ``inputs`` / ``inouts`` / ``outputs``
lists straight onto the columns while ids are dense and no sizes column
exists; ``params=`` calls, :meth:`~repro.trace.trace.TraceBuilder.add_task`,
:meth:`~repro.trace.trace.TraceBuilder.extend` and every call after ids
turn sparse or sizes appear take the general path.  A random mix of all
of them must give the columns of the same program sent through
:class:`~repro.trace.stream.EventEmitter` and ``Trace(events=...)``.
Every drawn program crosses both transitions (dense -> sparse ids and
no sizes -> sizes), in either order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.trace.events import TaskSubmitEvent, TaskwaitEvent, TaskwaitOnEvent
from repro.trace.stream import EventEmitter
from repro.trace.task import Direction, Parameter, make_task
from repro.trace.trace import Trace, TraceBuilder

#: A small address pool, so duplicates within and across tasks are common.
_ADDRESSES = st.sampled_from([0x40 * k for k in range(6)])
_LISTS = st.lists(_ADDRESSES, max_size=3)
_DURATIONS = st.sampled_from([0.0, 0.5, 3.25, 10.0])
_PARAMS = st.lists(
    st.builds(Parameter, address=_ADDRESSES, direction=st.sampled_from(list(Direction)),
              size=st.sampled_from([0, 0, 8, 64])),
    max_size=3,
)

_TASK = st.tuples(st.just("task"), _DURATIONS, _LISTS, _LISTS, _LISTS)
_ADD_TASK = st.tuples(st.just("add_task"), _DURATIONS, _LISTS, _LISTS, _LISTS)
_PARAMS_TASK = st.tuples(st.just("params"), _DURATIONS, _PARAMS)
#: extend(): (id gap above the next id, durations, outputs) per event;
#: a gap of 0 keeps ids dense.
_EXTEND = st.tuples(st.just("extend"),
                    st.lists(st.tuples(st.integers(0, 3), _DURATIONS, _LISTS), max_size=3))
_TASKWAIT = st.tuples(st.just("taskwait"))
_TASKWAIT_ON = st.tuples(st.just("taskwait_on"), _ADDRESSES)
_OP = st.one_of(_TASK, _TASK, _ADD_TASK, _PARAMS_TASK, _EXTEND, _TASKWAIT, _TASKWAIT_ON)

#: The two transitions every program crosses.
_TO_SPARSE = ("extend", [(2, 1.0, [0x40])])
_TO_SIZES = ("params", 1.0, [Parameter(0x80, Direction.INOUT, size=16)])


@st.composite
def _programs(draw):
    first, second = draw(st.permutations([_TO_SPARSE, _TO_SIZES]))
    runs = [draw(st.lists(_OP, max_size=6)) for _ in range(3)]
    return runs[0] + [first] + runs[1] + [second] + runs[2]


def _replay(program):
    """Run ``program`` into a builder, and into an emitter as events."""
    builder = TraceBuilder("mixed")
    emit = EventEmitter()
    events = []
    for op in program:
        kind = op[0]
        if kind in ("task", "add_task"):
            _, duration, inputs, inouts, outputs = op
            if kind == "task":
                task_id = builder.task("f", duration, inputs=inputs, inouts=inouts,
                                       outputs=outputs)
            else:
                task_id = builder.add_task("f", duration, inputs=inputs, inouts=inouts,
                                           outputs=outputs).task_id
            events.append(emit.task("f", duration, inputs=inputs, inouts=inouts,
                                    outputs=outputs))
        elif kind == "params":
            _, duration, params = op
            task_id = builder.task("g", duration, params=params)
            events.append(emit.task("g", duration, params=params))
        elif kind == "extend":
            foreign = []
            next_id = emit.num_tasks
            for gap, duration, outputs in op[1]:
                next_id += gap
                foreign.append(TaskSubmitEvent(make_task(
                    next_id, "x", tuple(outputs), (Direction.OUT.flags,) * len(outputs),
                    None, duration, 0.0, None)))
                next_id += 1
            builder.extend(foreign)
            events.extend(foreign)
            # The emitter numbers on from the highest foreign id, as the builder does.
            emit._next_task_id = next_id
            continue
        elif kind == "taskwait":
            builder.taskwait()
            events.append(emit.taskwait())
            continue
        else:
            builder.taskwait_on(op[1])
            events.append(emit.taskwait_on(op[1]))
            continue
        assert task_id == events[-1].task.task_id
    return builder, events


@given(_programs())
def test_fast_and_general_paths_write_the_event_columns(program):
    builder, events = _replay(program)
    expected = Trace("mixed", events=events).columns
    assert builder.columns() == expected
    assert builder.build().events == Trace("mixed", events=events).events


def test_fast_path_keeps_empty_lists_and_duplicates():
    builder = TraceBuilder("fast")
    builder.task("a", 1.0)
    builder.task("b", 2.0, inputs=[0x40, 0x40], inouts=[0x80], outputs=[0x40])
    builder.task("c", 0.0, outputs=[])
    columns = builder.columns()
    assert columns.offsets == (0, 0, 4, 4)
    assert columns.addresses == (0x40, 0x40, 0x80, 0x40)
    assert columns.flags == (1, 1, 3, 2)
    assert columns.sizes is None and columns.task_ids == (0, 1, 2)


def test_fast_path_leaves_address_checks_to_build():
    # numpy scalars are not addresses: build() names the column and task,
    # as it does for the general path.
    builder = TraceBuilder("numpy")
    builder.task("f", 1.0, inputs=np.array([0x40, 0x80], dtype=np.uint64))
    with pytest.raises(TraceError, match="column 'addresses', task 0"):
        builder.build()
