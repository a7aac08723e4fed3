"""Unit tests for Machine.run_stream (the streaming replay path)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.common.errors import SimulationError
from repro.managers.ideal import IdealManager
from repro.managers.nanos import NanosManager
from repro.nexus.nexuspp import NexusPlusPlusManager
from repro.system.machine import Machine, MachineConfig, simulate, simulate_stream
from repro.trace.serialization import json_digest, load_trace, result_to_json
from repro.trace.stream import EventEmitter, TraceStream, as_stream
from repro.workloads.synthetic import (
    generate_chain,
    generate_independent,
    generate_random_dag,
    stream_independent,
)

GOLDEN_DIR = Path(__file__).parents[1] / "golden"


class TestResultParity:
    """run_stream(trace) must equal run(trace) field for field."""

    @pytest.mark.parametrize("make_manager", [IdealManager, NanosManager, NexusPlusPlusManager])
    def test_full_schedule_parity(self, make_manager):
        trace = generate_random_dag(60, max_predecessors=3, seed=11)
        materialised = simulate(trace, make_manager(), num_cores=4)
        streamed = simulate_stream(trace, make_manager(), num_cores=4, keep_schedule=True)
        assert streamed.makespan_us == materialised.makespan_us
        assert streamed.master_finish_us == materialised.master_finish_us
        assert streamed.core_busy_us == materialised.core_busy_us
        assert streamed.total_work_us == materialised.total_work_us
        assert streamed.num_tasks == materialised.num_tasks
        assert streamed.submit_times == materialised.submit_times
        assert streamed.ready_times == materialised.ready_times
        assert streamed.start_times == materialised.start_times
        assert streamed.finish_times == materialised.finish_times
        assert streamed.task_cores == materialised.task_cores
        assert streamed.per_core_busy_us == materialised.per_core_busy_us

    def test_parity_across_schedulers_and_topologies(self):
        """An unbound stream (its tracker resolves each task at insert)
        reproduces the pinned whole-result digest and event count of the
        golden h264dec trace under every scheduler and topology."""
        expected = json.loads(
            (GOLDEN_DIR / "expected_config_digests.json").read_text(encoding="utf-8"))
        trace = load_trace(GOLDEN_DIR / "data" / "h264dec.json.gz")
        for key, make_manager in (("ideal", IdealManager), ("nexuspp", NexusPlusPlusManager)):
            for scheduler in ("fifo", "sjf", "ljf", "locality"):
                for topology in ("homogeneous", "biglittle:0.5"):
                    machine = Machine(make_manager(), MachineConfig(
                        num_cores=expected["cores"], scheduler=scheduler, topology=topology))
                    result = machine.run_stream(as_stream(iter(trace.events), name=trace.name))
                    pinned = expected["configs"][f"h264dec/{key}/{scheduler}/{topology}"]
                    assert json_digest(result_to_json(result)) == pinned["digest"], (
                        key, scheduler, topology)
                    assert machine.last_events_processed == pinned["events"]

    def test_keep_schedule_false_drops_times(self):
        trace = generate_chain(10, seed=3)
        result = simulate_stream(trace, IdealManager(), num_cores=2)
        assert result.submit_times == {}
        assert result.start_times == {}
        assert result.makespan_us > 0

    def test_validate_checks_the_schedule(self):
        trace = generate_random_dag(40, seed=5)
        result = simulate_stream(trace, IdealManager(), num_cores=4, validate=True)
        assert result.num_tasks == 40


class TestStreamSources:
    def test_accepts_trace_stream_and_bare_iterable(self):
        trace = generate_independent(8, seed=2)
        via_trace = simulate_stream(trace, IdealManager(), 2)
        via_stream = simulate_stream(stream_independent(8, seed=2), IdealManager(), 2)
        machine = Machine(IdealManager(), MachineConfig(num_cores=2))
        via_iterable = machine.run_stream(iter(trace.events))
        assert via_trace.makespan_us == via_stream.makespan_us == via_iterable.makespan_us

    def test_events_processed_recorded(self):
        machine = Machine(IdealManager(), MachineConfig(num_cores=2))
        machine.run_stream(generate_independent(8, seed=2))
        assert machine.last_events_processed > 0


class TestBackPressure:
    def test_max_in_flight_completes_and_bounds(self):
        # A fully independent stream: without a cap everything is in
        # flight at once; with the cap the run still completes correctly.
        result = simulate_stream(stream_independent(200, seed=1), IdealManager(), 4,
                                 max_in_flight=16)
        assert result.num_tasks == 200

    def test_cap_of_one_serialises_submission(self):
        result = simulate_stream(stream_independent(10, duration_us=10.0, seed=1),
                                 IdealManager(), 4, max_in_flight=1)
        # One task in flight at a time on an ideal manager: makespan is
        # the serial sum.
        assert result.makespan_us == pytest.approx(100.0)

    def test_cap_is_invisible_on_a_serial_chain(self):
        # A chain never has more than one runnable task; the cap only
        # stalls submission, which the chain hides entirely.
        uncapped = simulate_stream(generate_chain(20, seed=2), IdealManager(), 2)
        capped = simulate_stream(generate_chain(20, seed=2), IdealManager(), 2,
                                 max_in_flight=1)
        assert capped.makespan_us == uncapped.makespan_us

    def test_invalid_arguments_rejected(self):
        machine = Machine(IdealManager(), MachineConfig(num_cores=2))
        with pytest.raises(SimulationError):
            machine.run_stream(generate_chain(3), max_in_flight=0)


class TestErrorDetection:
    def test_in_flight_duplicate_id_rejected(self):
        def events():
            emit = EventEmitter()
            first = emit.task("a", duration_us=5.0, outputs=[0x100])
            yield first
            yield first  # same id resubmitted while still in flight

        machine = Machine(IdealManager(), MachineConfig(num_cores=2))
        with pytest.raises(SimulationError, match="in flight"):
            machine.run_stream(TraceStream("dup", events))

    def test_empty_stream_is_a_valid_noop(self):
        machine = Machine(IdealManager(), MachineConfig(num_cores=2))
        result = machine.run_stream(TraceStream("empty", lambda: iter(())))
        assert result.num_tasks == 0
        assert result.makespan_us == 0.0
