"""Tests for the task pool and function table."""

import pytest

from repro.common.errors import CapacityError, SimulationError
from repro.taskgraph.function_table import FunctionTable
from repro.taskgraph.task_pool import TaskPool
from repro.trace.task import TaskDescriptor

from task_params import make_params


def task(task_id, n_params=1):
    return TaskDescriptor(
        task_id=task_id,
        function="f",
        params=make_params(outputs=[0x40 * (i + 1) for i in range(n_params)]),
        duration_us=1.0,
    )


class TestTaskPool:
    def test_insert_get_remove(self):
        pool = TaskPool(capacity=4)
        pool.insert(task(1))
        assert 1 in pool
        assert pool.get(1).task_id == 1
        removed = pool.remove(1)
        assert removed.task_id == 1
        assert len(pool) == 0

    def test_full_flag(self):
        pool = TaskPool(capacity=1)
        assert pool.insert(task(1)) is False
        assert pool.is_full
        assert pool.insert(task(2)) is True
        assert pool.stats.full_events == 1

    def test_double_insert_raises(self):
        pool = TaskPool()
        pool.insert(task(1))
        with pytest.raises(SimulationError):
            pool.insert(task(1))

    def test_unknown_task_raises(self):
        pool = TaskPool()
        with pytest.raises(SimulationError):
            pool.get(5)
        with pytest.raises(SimulationError):
            pool.remove(5)

    def test_peak_occupancy(self):
        pool = TaskPool(capacity=8)
        for i in range(5):
            pool.insert(task(i))
        for i in range(5):
            pool.remove(i)
        assert pool.stats.peak_occupancy == 5

    def test_reset(self):
        pool = TaskPool()
        pool.insert(task(1))
        pool.reset()
        assert len(pool) == 0


class TestFunctionTable:
    def test_intern_is_idempotent(self):
        table = FunctionTable()
        first = table.intern("decode")
        second = table.intern("decode")
        assert first == second
        assert len(table) == 1

    def test_distinct_functions_get_distinct_ids(self):
        table = FunctionTable()
        assert table.intern("a") != table.intern("b")

    def test_lookup_both_directions(self):
        table = FunctionTable()
        fid = table.intern("render")
        assert table.lookup_id("render") == fid
        assert table.lookup_name(fid) == "render"

    def test_capacity_enforced(self):
        table = FunctionTable(capacity=2)
        table.intern("a")
        table.intern("b")
        with pytest.raises(CapacityError):
            table.intern("c")

    def test_unknown_lookups_raise(self):
        table = FunctionTable()
        with pytest.raises(CapacityError):
            table.lookup_id("missing")
        with pytest.raises(CapacityError):
            table.lookup_name(3)

    def test_contains_and_reset(self):
        table = FunctionTable()
        table.intern("a")
        assert "a" in table
        table.reset()
        assert "a" not in table
