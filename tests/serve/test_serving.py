"""End-to-end tests of the serving layer: endpoints, dedupe, caching.

Every test runs a real :class:`~repro.serve.app.Server` on its own
event-loop thread (``start_in_thread``) and talks to it over real
sockets with the stdlib-based :class:`~repro.serve.client.ServeClient`
— the same deployment shape the CI smoke job and the serving benchmark
use.
"""

from __future__ import annotations

import threading

import pytest

import repro.serve.batcher as batcher_module
from repro.experiments.runner import SweepRunner
from repro.experiments.spec import SweepSpec
from repro.serve import ServeClient, ServeConfig, ServeError, start_in_thread
from repro.system.machine import Machine

SWEEP_FIELDS = dict(
    workloads=["microbench", "sparselu"],
    managers=["ideal", "nexus#2"],
    core_counts=[1, 2],
    scale=0.05,
)


def sweep_spec(**overrides):
    base = dict(SWEEP_FIELDS)
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture
def server():
    handle = start_in_thread(ServeConfig(batch_window=0.001))
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with ServeClient(server.host, server.port, timeout=60) as c:
        yield c


class TestEndpoints:
    def test_healthz_reports_queue_state(self, client):
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["pending"] == 0 and doc["max_pending"] == 256

    def test_workloads_lists_the_registry(self, client):
        from repro.workloads.registry import list_workloads

        assert client.workloads() == list_workloads()

    def test_simulate_returns_makespan_and_cache_key(self, client):
        doc = client.simulate(workload="microbench", manager="ideal",
                              cores=2, scale=0.05)
        assert doc["makespan_us"] > 0
        assert len(doc["cache_key"]) == 64
        assert doc["cached"] is False
        assert doc["result"]["manager"] == "Ideal"

    def test_repeat_simulate_is_served_warm(self, client):
        fields = dict(workload="microbench", manager="nexus#2",
                      cores=2, scale=0.05)
        cold = client.simulate(**fields)
        warm = client.simulate(**fields)
        assert warm["cached"] is True
        assert warm["cache_key"] == cold["cache_key"]
        assert warm["result"] == cold["result"]

    def test_unknown_workload_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.simulate(workload="not-a-workload", manager="ideal", cores=1)
        assert err.value.status == 404

    def test_bad_manager_is_400(self, client):
        with pytest.raises(ServeError) as err:
            client.simulate(workload="microbench", manager="bogus", cores=1)
        assert err.value.status == 400

    def test_unknown_endpoint_is_404_and_bad_method_is_405(self, client):
        with pytest.raises(ServeError) as err:
            client._json("GET", "/v1/nope")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client._json("GET", "/v1/simulate")
        assert err.value.status == 405

    def test_malformed_json_body_is_400(self, client):
        response = client._request("POST", "/v1/simulate", b"{not json")
        assert response.status == 400
        response.read()

    def test_keep_alive_survives_an_error_response(self, client):
        """One connection: error response, then a success — the keep-alive
        loop must not desynchronise after a 4xx."""
        with pytest.raises(ServeError):
            client.simulate(workload="not-a-workload", manager="ideal", cores=1)
        doc = client.simulate(workload="microbench", manager="ideal",
                              cores=1, scale=0.05)
        assert doc["makespan_us"] > 0

    def test_trace_upload_roundtrip_is_content_addressed(self, client):
        from repro.workloads.registry import get_workload

        trace = get_workload("microbench", scale=0.05)
        first = client.upload_trace(trace)
        again = client.upload_trace(trace)
        assert first == again  # same bytes, same id
        doc = client.simulate(workload={"trace_id": first},
                              manager="ideal", cores=2)
        direct = client.simulate(workload="microbench", manager="ideal",
                                 cores=2, scale=0.05)
        assert doc["makespan_us"] == direct["makespan_us"]

    def test_unknown_trace_id_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.simulate(workload={"trace_id": "feedface"},
                            manager="ideal", cores=1)
        assert err.value.status == 404


class TestSweepStreaming:
    def test_streamed_rows_match_the_sweep_runner_byte_for_byte(
            self, client, tmp_path):
        raw = client.sweep_raw(**SWEEP_FIELDS)
        spec = sweep_spec()
        SweepRunner().run(spec, jsonl_path=tmp_path / "serial.jsonl")
        assert raw == (tmp_path / "serial.jsonl").read_bytes()

    def test_streamed_rows_parse_in_grid_order(self, client):
        rows = list(client.sweep_rows(**SWEEP_FIELDS))
        spec = sweep_spec()
        expected = [point.describe() for point in spec.points()]
        assert [row["point"] for row in rows] == expected
        assert all(row["result"]["makespan_us"] > 0 for row in rows)

    def test_report_format_carries_the_spec_hash(self, client):
        report = client.sweep_report(**SWEEP_FIELDS)
        assert report["spec_hash"] == sweep_spec().spec_hash()
        assert report["num_points"] == 8
        assert len(report["tables"]) == 2  # one per workload

    def test_sweep_accepts_cores_alias(self, client):
        fields = dict(SWEEP_FIELDS)
        fields["cores"] = fields.pop("core_counts")
        assert len(list(client.sweep_rows(**fields))) == 8

    def test_empty_grid_axes_are_400(self, client):
        with pytest.raises(ServeError) as err:
            client.sweep_report(workloads=[], managers=["ideal"],
                                core_counts=[1])
        assert err.value.status == 400


    @pytest.mark.parametrize("block_cells, blocks", [(None, 2), (5, 3), (1, 12)])
    def test_sweep_cells_run_in_blocks_of_block_cells(
            self, client, monkeypatch, block_cells, blocks):
        """A 12-cell sweep is admitted at once and dispatched in blocks of
        ``BLOCK_CELLS`` (8 by default: one full block and one of 4)."""
        if block_cells is not None:
            monkeypatch.setattr(batcher_module, "BLOCK_CELLS", block_cells)
        client.sweep_report(workloads=["microbench"],
                            managers=["ideal", "nanos", "nexus#2"],
                            core_counts=[1, 2, 4, 8], scale=0.05)
        stats = client.stats()
        assert stats["executed"] == 12
        assert stats["blocks"] == blocks


class TestDedupe:
    def test_concurrent_identical_requests_run_exactly_one_simulation(self):
        """N identical requests in flight at once must coalesce into a
        single ``Machine.run`` — the single-flight contract."""
        handle = start_in_thread(ServeConfig(batch_window=0.05))
        runs = []
        run_lock = threading.Lock()
        real_run = Machine.run

        def counting_run(self, *args, **kwargs):
            with run_lock:
                runs.append(1)
            return real_run(self, *args, **kwargs)

        n = 8
        barrier = threading.Barrier(n)
        results = [None] * n
        errors = []

        def hit(slot):
            try:
                with ServeClient(handle.host, handle.port, timeout=60) as c:
                    barrier.wait(timeout=30)
                    results[slot] = c.simulate(
                        workload="microbench", manager="ideal",
                        cores=2, scale=0.05)
            except Exception as exc:  # surface in the main thread
                errors.append(exc)

        Machine.run = counting_run
        try:
            threads = [threading.Thread(target=hit, args=(i,))
                       for i in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = ServeClient(handle.host, handle.port).stats()
        finally:
            Machine.run = real_run
            handle.stop()
        assert errors == []
        assert len(runs) == 1, f"{len(runs)} simulations for {n} identical requests"
        makespans = {doc["makespan_us"] for doc in results}
        assert len(makespans) == 1
        assert stats["requests"] >= n
        assert stats["coalesced"] + stats["cache_hits"] == n - 1

    def test_sweep_and_simulate_share_cache_keys(self, client):
        """A cell served via /v1/simulate must be warm for /v1/sweep and
        vice versa — the cross-endpoint spec-hash identity."""
        client.simulate(workload="microbench", manager="ideal",
                        cores=1, scale=0.05)
        before = client.stats()
        rows = list(client.sweep_rows(
            workloads=["microbench"], managers=["ideal"],
            core_counts=[1], scale=0.05))
        after = client.stats()
        assert len(rows) == 1
        assert after["cache_hits"] == before["cache_hits"] + 1
        assert after["executed"] == before["executed"]


class TestWarmCache:
    def test_restarted_server_over_the_same_store_never_simulates(self, tmp_path):
        """Phase 1 populates a cache directory; phase 2 is a *new* server
        over the same directory with ``Machine.run`` forbidden — every
        request must be answered from the store."""
        store = str(tmp_path / "store")
        requests = [
            dict(workload="microbench", manager="ideal", cores=2, scale=0.05),
            dict(workload="microbench", manager="nexus#2", cores=2, scale=0.05),
            dict(workload="sparselu", manager="ideal", cores=4, scale=0.05),
        ]
        handle = start_in_thread(ServeConfig(cache_dir=store))
        try:
            with ServeClient(handle.host, handle.port, timeout=60) as c:
                cold = [c.simulate(**fields) for fields in requests]
        finally:
            handle.stop()

        real_run = Machine.run

        def forbidden(self, *args, **kwargs):
            raise AssertionError("Machine.run called on a warm serving pass")

        Machine.run = forbidden
        try:
            handle = start_in_thread(ServeConfig(cache_dir=store))
            try:
                with ServeClient(handle.host, handle.port, timeout=60) as c:
                    warm = [c.simulate(**fields) for fields in requests]
                    stats = c.stats()
            finally:
                handle.stop()
        finally:
            Machine.run = real_run
        assert [doc["result"] for doc in warm] == [doc["result"] for doc in cold]
        assert all(doc["cached"] for doc in warm)
        assert stats["executed"] == 0
        assert stats["cache_hits"] == len(requests)

    def test_server_cache_is_interchangeable_with_sweep_runner(self, tmp_path):
        """Cells simulated by a server are warm for a SweepRunner over the
        same store, proving key-level compatibility of the two."""
        store = str(tmp_path / "store")
        handle = start_in_thread(ServeConfig(cache_dir=store))
        try:
            with ServeClient(handle.host, handle.port, timeout=60) as c:
                list(c.sweep_rows(**SWEEP_FIELDS))
        finally:
            handle.stop()
        outcome = SweepRunner(cache_dir=store).run(sweep_spec())
        assert outcome.executed == 0
        assert outcome.cache_hits == 8
