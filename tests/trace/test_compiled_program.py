"""Tests for the compiled per-trace access program."""

import pickle

from repro.taskgraph.tracker import DependencyTracker
from repro.trace.compiled import FLAG_READS, FLAG_READWRITE, FLAG_WRITES
from repro.trace.events import TaskSubmitEvent
from repro.trace.task import Direction, Parameter, TaskDescriptor
from repro.trace.trace import Trace, TraceBuilder


def accesses(program, slot):
    """``(address_id, flags)`` pairs of task ``slot``, from the flat columns."""
    start, end = program.offsets[slot], program.offsets[slot + 1]
    return list(zip(program.addr_ids[start:end], program.flags[start:end]))


def build_trace():
    builder = TraceBuilder("compiled-program")
    builder.add_task("a", duration_us=1.0, outputs=[0x1000])
    builder.add_task("b", duration_us=1.0, inputs=[0x1000], outputs=[0x2000])
    builder.add_task("c", duration_us=1.0, inputs=[0x1000, 0x2000], inouts=[0x3000])
    builder.add_taskwait()
    return builder.build()


class TestCompilation:
    def test_addresses_interned_densely_in_first_appearance_order(self):
        program = build_trace().access_program()
        assert program.addresses == [0x1000, 0x2000, 0x3000]
        assert program.id_of == {0x1000: 0, 0x2000: 1, 0x3000: 2}
        assert program.num_addresses == 3

    def test_per_task_access_lists_and_flags(self):
        program = build_trace().access_program()
        assert program.num_tasks == 3
        assert program.offsets == [0, 1, 3, 6]
        assert accesses(program, 0) == [(0, FLAG_WRITES)]
        assert accesses(program, 1) == [(0, FLAG_READS), (1, FLAG_WRITES)]
        assert accesses(program, 2) == [(0, FLAG_READS), (1, FLAG_READS), (2, FLAG_READWRITE)]

    def test_duplicate_addresses_merge_like_unbound_insert(self):
        task = TaskDescriptor(
            task_id=0,
            function="f",
            params=(
                Parameter(address=0x40, direction=Direction.IN),
                Parameter(address=0x40, direction=Direction.OUT),
                Parameter(address=0x80, direction=Direction.IN),
                Parameter(address=0x80, direction=Direction.IN),
            ),
            duration_us=1.0,
        )
        program = Trace("duplicates", [TaskSubmitEvent(task)]).access_program()
        assert accesses(program, 0) == [(0, FLAG_READWRITE), (1, FLAG_READS)]
        rows = DependencyTracker().insert_task(task)[0]
        assert [(program.addresses[aid], flag) for aid, flag in
                accesses(program, 0)] == [(row[1], row[2]) for row in rows]

    def test_flags_are_the_read_and_write_bits(self):
        """The tracker and the kernel test ``flags & 2`` for a write."""
        assert (FLAG_READS, FLAG_WRITES, FLAG_READWRITE) == (1, 2, 3)


class TestTraceCache:
    def test_program_is_cached_on_the_trace(self):
        trace = build_trace()
        assert trace.access_program() is trace.access_program()

    def test_cache_excluded_from_pickles(self):
        trace = build_trace()
        trace.access_program()
        clone = pickle.loads(pickle.dumps(trace))
        assert "_compiled_access_program" not in clone.__dict__
        # The clone compiles its own program on demand.
        assert clone.access_program().addresses == trace.access_program().addresses
