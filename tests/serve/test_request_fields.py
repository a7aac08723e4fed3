"""Request-body boundaries of the HTTP server: JSON domain and typed fields.

Every malformed body must answer ``400`` with a message naming what is
wrong — never a ``500`` and never a silent coercion.
"""

from __future__ import annotations

import json

import pytest

from repro.serve import ServeClient, ServeConfig, ServeError, start_in_thread
from repro.serve.app import HttpError, _typed


@pytest.fixture(scope="module")
def client():
    handle = start_in_thread(ServeConfig(batch_window=0.001))
    try:
        with ServeClient(handle.host, handle.port, timeout=60) as c:
            yield c
    finally:
        handle.stop()


def status_and_error(client, path, body: bytes, content_type="application/json"):
    response = client._request("POST", path, body, content_type=content_type)
    payload = response.read()
    try:
        client._decode(response, payload)
    except ServeError as err:
        return err.status, str(err)
    return response.status, ""


CELL = dict(workload="microbench", manager="ideal", cores=2, scale=0.05)


class TestJsonDomain:
    def test_upload_with_a_broken_tail_is_400(self, client):
        status, _ = status_and_error(client, "/v1/traces", b'{"name":"x"}\n{')
        assert status == 400

    @pytest.mark.parametrize("separator", [b" ", b"\n "], ids=["one-line", "indented"])
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_upload_rejects_non_finite_tokens(self, client, token, separator):
        body = b'{"name": "x",%s"duration": %s}' % (separator, token.encode())
        status, error = status_and_error(client, "/v1/traces", body)
        assert status == 400 and token in error

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_simulate_rejects_non_finite_tokens(self, client, token):
        body = (b'{"workload": "microbench", "manager": "ideal", "cores": 2, '
                b'"scale": %s}' % token.encode())
        status, error = status_and_error(client, "/v1/simulate", body)
        assert status == 400 and token in error

    def test_sweep_rejects_non_finite_tokens(self, client):
        body = (b'{"workloads": ["microbench"], "managers": ["ideal"], '
                b'"core_counts": [1], "scale": NaN}')
        status, error = status_and_error(client, "/v1/sweep", body)
        assert status == 400 and "NaN" in error


class TestTraceUploadFormats:
    """``/v1/traces`` decides the format from the body's first JSON value."""

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.workloads.registry import get_workload

        return get_workload("microbench", scale=0.05)

    def upload(self, client, body: str):
        response = client._request("POST", "/v1/traces", body.encode("utf-8"))
        return client._decode(response, response.read())

    @pytest.mark.parametrize("indent", [None, 1, 4])
    def test_document_on_one_line_or_indented(self, client, trace, indent):
        from repro.trace.serialization import trace_digest, trace_to_json

        body = json.dumps(trace_to_json(trace), indent=indent)
        doc = self.upload(client, body if indent is None else f"\n{body}\n")
        assert doc["trace_id"] == trace_digest(trace)
        assert doc["num_tasks"] == trace.num_tasks

    def test_multi_line_stream(self, client, trace, tmp_path):
        from repro.trace.serialization import trace_digest, write_trace_stream

        path = write_trace_stream(trace, tmp_path / "t.jsonl", chunk_size=7)
        text = path.read_text()
        assert text.count("\n") > 2
        doc = self.upload(client, text)
        assert doc["trace_id"] == trace_digest(trace)


    @pytest.mark.parametrize("body, reason", [
        ("", "empty trace body"),
        (" \n", "empty trace body"),
        ("[1, 2]", "must be a JSON object"),
        ('{"name": "x"}\n{"name": "y"}', "after its first JSON value"),
    ], ids=["empty", "blank", "array", "two-documents"])
    def test_malformed_upload_is_400(self, client, body, reason):
        status, error = status_and_error(client, "/v1/traces", body.encode())
        assert status == 400 and reason in error


class TestTypedFields:
    @pytest.mark.parametrize("field, value", [
        ("cores", "x"), ("cores", 2.9), ("cores", True),
        ("validate", "false"), ("keep_schedule", 1), ("stream", "yes"),
        ("dynamic", 0), ("scale", "0.05"), ("scale", False),
        ("seed", 1.5), ("max_tasks", "10"), ("depth", [3]),
    ])
    def test_simulate_names_the_mistyped_field(self, client, field, value):
        with pytest.raises(ServeError) as err:
            client.simulate(**{**CELL, field: value})
        assert err.value.status == 400
        assert repr(field) in str(err.value)

    @pytest.mark.parametrize("field, value", [
        ("core_counts", [1, 2.5]), ("core_counts", 4), ("core_counts", [None]),
        ("seeds", ["x"]),
        ("depths", [True]), ("scale", "x"), ("validate", "false"),
        ("stream", 1), ("max_tasks", 2.0),
    ])
    def test_sweep_names_the_mistyped_field(self, client, field, value):
        fields = dict(workloads=["microbench"], managers=["ideal"],
                      core_counts=[1], scale=0.05)
        fields[field] = value
        with pytest.raises(ServeError) as err:
            client.sweep_report(**fields)
        assert err.value.status == 400
        assert repr(field) in str(err.value)

    def test_overflowing_number_is_not_finite(self, client):
        body = (b'{"workload": "microbench", "manager": "ideal", "cores": 2, '
                b'"scale": 1e400}')
        status, error = status_and_error(client, "/v1/simulate", body)
        assert status == 400 and "'scale' must be a finite number" in error

    def test_well_typed_cell_still_simulates(self, client):
        doc = client.simulate(**CELL, seed=3, validate=False, keep_schedule=False)
        assert doc["makespan_us"] > 0


class TestReader:
    def test_integer_stands_for_a_float(self):
        value = _typed("scale", 1, float)
        assert value == 1.0 and isinstance(value, float)

    def test_null_gives_the_default(self):
        assert _typed("validate", None, bool, False) is False
        assert _typed("seed", None, int) is None

    def test_exact_types_pass_through(self):
        assert _typed("cores", 4, int) == 4
        assert _typed("validate", True, bool) is True
        assert _typed("scale", 0.5, float) == 0.5

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1", True])
    def test_float_field_rejects(self, value):
        with pytest.raises(HttpError, match="'scale' must be a finite number"):
            _typed("scale", value, float)
