"""Unit tests of the fabric wire format (length-prefixed JSON frames)."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.distributed.protocol import (
    MAX_FRAME_BYTES,
    FrameStream,
    FrameTooLarge,
    ProtocolError,
    decode_payload,
    encode_payload,
    pack_frame,
)


def pair():
    a, b = socket.socketpair()
    return FrameStream(a), FrameStream(b)


class TestFrames:
    def test_roundtrip(self):
        left, right = pair()
        left.send({"type": "hello", "worker_id": "w0"})
        assert right.recv(timeout=5) == {"type": "hello", "worker_id": "w0"}

    def test_many_frames_share_one_buffer(self):
        left, right = pair()
        for i in range(50):
            left.send({"type": "work", "cells": [i]})
        got = [right.recv(timeout=5)["cells"][0] for _ in range(50)]
        assert got == list(range(50))

    def test_partial_delivery_is_reassembled(self):
        left, right = pair()
        wire = pack_frame({"type": "result", "cell": 7, "doc": {"x": [1, 2, 3]}})
        # Dribble the frame one byte at a time from another thread.
        def dribble():
            for offset in range(len(wire)):
                left.sock.sendall(wire[offset:offset + 1])
        thread = threading.Thread(target=dribble)
        thread.start()
        assert right.recv(timeout=5) == {"type": "result", "cell": 7, "doc": {"x": [1, 2, 3]}}
        thread.join()

    def test_clean_eof_returns_none_and_latches(self):
        left, right = pair()
        left.send({"type": "goodbye"})
        left.close()
        assert right.recv(timeout=5) == {"type": "goodbye"}
        assert right.recv(timeout=5) is None
        assert right.eof

    def test_eof_mid_frame_raises(self):
        left, right = pair()
        wire = pack_frame({"type": "result", "cell": 1, "doc": {}})
        left.sock.sendall(wire[:len(wire) - 3])
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            right.recv(timeout=5)

    def test_oversized_length_prefix_rejected(self):
        left, right = pair()
        left.sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="limit"):
            right.recv(timeout=5)

    def test_non_json_body_rejected(self):
        left, right = pair()
        body = b"\xff\xfenot json"
        left.sock.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            right.recv(timeout=5)

    @pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_finite_number_rejected(self, token):
        left, right = pair()
        body = b'{"type": "result", "makespan_us": ' + token + b"}"
        left.sock.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="JSON domain"):
            right.recv(timeout=5)

    def test_untyped_object_rejected(self):
        left, right = pair()
        body = b'{"no_type": 1}'
        left.sock.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="typed"):
            right.recv(timeout=5)

    def test_recv_timeout(self):
        _left, right = pair()
        with pytest.raises(TimeoutError):
            right.recv(timeout=0.05)

    def test_poll_does_not_block(self):
        left, right = pair()
        assert right.poll() is None
        assert not right.eof
        left.send({"type": "heartbeat"})
        # The frame may take a scheduling tick to land in the buffer.
        frame = right.recv(timeout=5)
        assert frame == {"type": "heartbeat"}

    def test_poll_sees_buffered_frames(self):
        left, right = pair()
        left.send({"type": "work", "cells": [1]})
        left.send({"type": "work", "cells": [2]})
        assert right.recv(timeout=5)["cells"] == [1]
        assert right.poll()["cells"] == [2]

    def test_concurrent_senders_keep_frames_contiguous(self):
        left, right = pair()
        def blast(tag):
            for _ in range(100):
                left.send({"type": "result", "tag": tag})
        threads = [threading.Thread(target=blast, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        frames = [right.recv(timeout=5) for _ in range(400)]
        for thread in threads:
            thread.join()
        assert all(frame["type"] == "result" for frame in frames)


class TestPayloads:
    def test_payload_roundtrip(self):
        payload = {"jobs": [(0, ("a", 1), None)], "nested": {"x": (1, 2)}}
        assert decode_payload(encode_payload(payload)) == payload

    def test_garbage_payload_raises(self):
        with pytest.raises(ProtocolError):
            decode_payload("not-base64-zlib-pickle!")

    def test_run_points_survive_transport(self):
        from repro.experiments.spec import SweepSpec

        spec = SweepSpec(workloads=["microbench"], managers=["ideal", "nanos"],
                         core_counts=[1, 4])
        points = list(spec.points())
        back = decode_payload(encode_payload(points))
        assert [p.describe() for p in back] == [p.describe() for p in points]


class TestFrameTooLarge:
    def test_error_names_length_limit_and_peer(self):
        # A TCP pair, not a socketpair: only a named peer exercises the
        # "from <peer>" clause of the message.
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        client = socket.create_connection(server.getsockname())
        accepted, _ = server.accept()
        right = FrameStream(accepted)
        assert right.peer is not None
        client.sendall(struct.pack(">I", MAX_FRAME_BYTES + 7))
        with pytest.raises(FrameTooLarge) as info:
            right.recv(timeout=5)
        assert info.value.length == MAX_FRAME_BYTES + 7
        assert info.value.limit == MAX_FRAME_BYTES
        assert info.value.peer == right.peer
        assert str(info.value.length) in str(info.value)
        assert right.peer in str(info.value)
        for sock in (client, accepted, server):
            sock.close()

    def test_rejection_does_not_poison_buffered_frames(self):
        """A good frame already buffered *before* the oversized prefix
        must still parse, and the rejection itself must be repeatable —
        the bad prefix is never consumed."""
        left, right = pair()
        left.send({"type": "good", "n": 1})
        left.sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        assert right.recv(timeout=5) == {"type": "good", "n": 1}
        for _ in range(3):
            with pytest.raises(FrameTooLarge) as info:
                right.recv(timeout=5)
            assert info.value.length == MAX_FRAME_BYTES + 1
        # The buffer still holds exactly the unconsumed 4-byte prefix.
        assert bytes(right._buffer) == struct.pack(">I", MAX_FRAME_BYTES + 1)

    def test_pack_frame_refuses_to_build_an_oversized_frame(self, monkeypatch):
        monkeypatch.setattr("repro.distributed.protocol.MAX_FRAME_BYTES", 64)
        with pytest.raises(FrameTooLarge) as info:
            pack_frame({"type": "blob", "data": "x" * 128})
        assert info.value.length > 64
        assert info.value.peer is None
