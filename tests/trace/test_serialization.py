"""Tests for trace (de)serialization."""

import gzip
import json

import pytest

from repro.common.errors import TraceError
from repro.trace.serialization import (
    load_trace,
    save_trace,
    trace_from_json,
    trace_to_json,
    write_trace_stream,
)
from repro.trace.trace import TraceBuilder
from repro.workloads.synthetic import generate_random_dag


def sample_trace():
    builder = TraceBuilder("sample", metadata={"purpose": "test", "n": 3})
    builder.add_task("f", 2.5, inputs=[0x100], outputs=[0x200])
    builder.add_taskwait_on(0x200)
    builder.add_task("g", 1.5, inouts=[0x200])
    builder.add_taskwait()
    return builder.build()


class TestJsonRoundTrip:
    def test_roundtrip_preserves_everything(self):
        original = sample_trace()
        restored = trace_from_json(trace_to_json(original))
        assert restored.name == original.name
        assert dict(restored.metadata) == dict(original.metadata)
        assert len(restored) == len(original)
        for a, b in zip(original.tasks(), restored.tasks()):
            assert a == b

    def test_roundtrip_random_dag(self):
        original = generate_random_dag(50, seed=3)
        restored = trace_from_json(trace_to_json(original))
        assert [e.kind for e in restored.events] == [e.kind for e in original.events]
        assert restored.total_work_us == pytest.approx(original.total_work_us)

    def test_document_is_json_serialisable(self):
        text = json.dumps(trace_to_json(sample_trace()))
        assert "sample" in text

    def test_unknown_version_rejected(self):
        document = trace_to_json(sample_trace())
        document["format_version"] = 999
        with pytest.raises(TraceError):
            trace_from_json(document)

    def test_unknown_event_kind_rejected(self):
        document = trace_to_json(sample_trace())
        document["events"][0]["k"] = "zzz"
        with pytest.raises(TraceError):
            trace_from_json(document)

    def test_malformed_document_rejected(self):
        with pytest.raises(TraceError):
            trace_from_json({"format_version": 1, "name": "x"})


class TestFileRoundTrip:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(sample_trace(), path)
        restored = load_trace(path)
        assert restored.name == "sample"

    def test_gzip_file(self, tmp_path):
        path = tmp_path / "trace.json.gz"
        save_trace(sample_trace(), path)
        restored = load_trace(path)
        assert restored.num_tasks == 2

    @pytest.mark.parametrize("write", [save_trace, write_trace_stream])
    def test_gzip_bytes_depend_only_on_the_trace(self, tmp_path, monkeypatch, write):
        """Two saves of one trace, at different wall-clock times, are
        byte-identical: the gzip header's mtime is 0, not the write time."""
        path = tmp_path / "trace.json.gz"
        write(sample_trace(), path)
        first = path.read_bytes()
        real_time = gzip.time.time
        monkeypatch.setattr(gzip.time, "time", lambda: real_time() + 86400.0)
        write(sample_trace(), path)
        assert path.read_bytes() == first
        assert first[4:8] == b"\x00\x00\x00\x00"  # the header's mtime field

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "missing.json")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(TraceError):
            load_trace(path)


class TestClosedJsonDomain:
    """NaN and ±Infinity are not JSON: rows refuse to render them and every
    trace/row reader refuses to parse them."""

    @pytest.mark.parametrize("document, where", [
        ({"x": float("nan")}, r"nan at \$\.x"),
        ({"a": [1.0, float("inf")]}, r"inf at \$\.a\[1\]"),
        ({"r": {"makespan_us": float("-inf")}}, r"-inf at \$\.r\.makespan_us"),
    ])
    def test_canonical_line_names_the_non_finite_value(self, document, where):
        from repro.trace.serialization import canonical_json_line

        with pytest.raises(TraceError, match=where):
            canonical_json_line(document)

    def test_canonical_line_still_renders_finite_documents(self):
        from repro.trace.serialization import canonical_json_line

        assert canonical_json_line({"b": 1e308, "a": -0.0}) == '{"a":-0.0,"b":1e+308}'

    @pytest.mark.parametrize("value, shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf")])
    def test_writers_refuse_non_finite_metadata(self, tmp_path, value, shown):
        """A trace whose metadata holds NaN/±inf cannot be written: the
        file would hold a token every reader refuses."""
        from repro.trace.serialization import TraceWriter, write_trace_stream

        trace = TraceBuilder("m", metadata={"ratio": value}).build()
        where = rf"{shown} at \$\.metadata\.ratio"
        with pytest.raises(TraceError, match=where):
            save_trace(trace, tmp_path / "trace.json")
        assert not (tmp_path / "trace.json").exists()
        with pytest.raises(TraceError, match=where):
            write_trace_stream(trace, tmp_path / "trace.jsonl")
        assert not (tmp_path / "trace.jsonl").exists()
        with pytest.raises(TraceError, match=rf"{shown} at \$\.metadata\.nested\[1\]"):
            TraceWriter(tmp_path / "direct.jsonl", "m", {"nested": [1.0, value]})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_iter_jsonl_rejects(self, tmp_path, token):
        from repro.trace.serialization import iter_jsonl

        path = tmp_path / "rows.jsonl"
        path.write_text('{"ok": 1}\n{"x": %s}\n' % token)
        with pytest.raises(TraceError, match="JSON domain"):
            list(iter_jsonl(path))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_load_trace_rejects_document(self, tmp_path, token):
        text = json.dumps(trace_to_json(sample_trace()), separators=(",", ":")).replace('"us":2.5', f'"us":{token}')
        assert f'"us":{token}' in text
        path = tmp_path / "trace.json"
        path.write_text(text)
        with pytest.raises(TraceError, match="JSON domain"):
            load_trace(path)

    def _stream_text(self, header_value="1", event_value="2.5"):
        header = ('{"format_version":1,"kind":"trace-stream","name":"s",'
                  '"metadata":{"v":%s}}' % header_value)
        chunk = ('{"e":[{"k":"t","id":0,"f":"f","p":[],"us":%s,"co":0.0}]}' % event_value)
        footer = '{"end":true,"num_events":1,"num_tasks":1}'
        return "\n".join([header, chunk, footer]) + "\n"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_stream_sniffer_and_header_reader_reject(self, tmp_path, token):
        from repro.trace.serialization import read_stream_header

        path = tmp_path / "stream.jsonl"
        path.write_text(self._stream_text(header_value=token))
        with pytest.raises(TraceError, match="JSON domain"):
            load_trace(path)  # the format sniffer parses the header line
        with pytest.raises(TraceError, match="JSON domain"):
            read_stream_header(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_stream_text_rejects_header_and_chunks(self, token):
        from repro.trace.serialization import trace_from_stream_text

        assert trace_from_stream_text(self._stream_text()).num_tasks == 1
        with pytest.raises(TraceError, match="JSON domain"):
            trace_from_stream_text(self._stream_text(header_value=token))
        with pytest.raises(TraceError, match="JSON domain"):
            trace_from_stream_text(self._stream_text(event_value=token))
