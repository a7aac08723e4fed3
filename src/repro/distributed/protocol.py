"""Wire protocol of the sweep fabric: length-prefixed JSON frames.

Every message between the scheduler and a worker is one **frame**::

    +----------------+----------------------------+
    | uint32 (BE)    | UTF-8 JSON object          |
    | payload length | {"type": ..., ...}         |
    +----------------+----------------------------+

Frames are small control documents (``need_work``, ``work``,
``result``, ``heartbeat``, ...); the single bulky transfer — the
pickled job table a worker receives once at handshake — rides inside a
frame as a zlib-compressed, base64-encoded pickle string
(:func:`encode_payload` / :func:`decode_payload`).

.. warning::
   ``decode_payload`` unpickles its input.  The fabric is a trusted
   single-tenant system: only connect workers to a scheduler you run
   yourself (the same trust model as ``multiprocessing``).

:class:`FrameStream` wraps a connected socket with a receive buffer and
a send lock, so one reader thread and any number of sender threads
(results, heartbeats, steals) can share the connection safely.
"""

from __future__ import annotations

import base64
import json
import pickle
import select
import socket
import struct
import threading
import zlib
from typing import Any, Dict, Optional

from repro.common.errors import ReproError, TraceError, reject_non_finite

#: Frames above this size are rejected on both ends — a corrupt length
#: prefix must not make a peer try to allocate gigabytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(ReproError):
    """A malformed, truncated or oversized fabric frame was observed."""


class FrameTooLarge(ProtocolError):
    """A frame length above :data:`MAX_FRAME_BYTES` was announced or built.

    Carries the offending ``length``, the ``limit`` it broke, and the
    ``peer`` that announced it (``None`` for the send side).  Raised
    *before* any buffer bytes are consumed, so the stream's receive
    state is left exactly as it was — rejecting an oversized frame must
    not corrupt the framing of whatever else is buffered.
    """

    def __init__(self, length: int, limit: int = MAX_FRAME_BYTES,
                 peer: Optional[str] = None) -> None:
        origin = f"from {peer} " if peer else ""
        super().__init__(
            f"frame {origin}announces {length} bytes (limit {limit}); "
            f"corrupt stream?")
        self.length = length
        self.limit = limit
        self.peer = peer


def encode_payload(obj: Any) -> str:
    """Pack an arbitrary picklable object for transport inside a frame."""
    return base64.b64encode(zlib.compress(pickle.dumps(obj))).decode("ascii")


def decode_payload(data: str) -> Any:
    """Inverse of :func:`encode_payload` (trusted input only, see above)."""
    try:
        return pickle.loads(zlib.decompress(base64.b64decode(data.encode("ascii"))))
    except (ValueError, zlib.error, pickle.UnpicklingError, EOFError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc


def pack_frame(doc: Dict[str, Any]) -> bytes:
    """Serialize one frame document to its wire bytes."""
    body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(len(body))
    return _LENGTH.pack(len(body)) + body


class FrameStream:
    """Framed, thread-safe view of one connected fabric socket.

    * :meth:`send` may be called from several threads (one lock
      serializes the writes, keeping frames contiguous on the wire);
    * :meth:`recv` / :meth:`poll` belong to a single reader thread;
    * :attr:`eof` latches once the peer closes its end cleanly.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.eof = False
        self._buffer = bytearray()
        self._send_lock = threading.Lock()
        try:
            self.peer: Optional[str] = "%s:%s" % sock.getpeername()[:2]
        except (OSError, TypeError, IndexError):
            self.peer = None

    # -- sending -----------------------------------------------------------
    def send(self, doc: Dict[str, Any]) -> None:
        data = pack_frame(doc)
        with self._send_lock:
            self.sock.sendall(data)

    # -- receiving ---------------------------------------------------------
    def _extract(self) -> Optional[Dict[str, Any]]:
        """Pop one complete frame out of the buffer, or ``None``."""
        if len(self._buffer) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(self._buffer)
        if length > MAX_FRAME_BYTES:
            # Raised before a single buffer byte is consumed: the
            # rejection is repeatable and the stream state unpoisoned.
            raise FrameTooLarge(length, peer=self.peer)
        if len(self._buffer) < _LENGTH.size + length:
            return None
        body = bytes(self._buffer[_LENGTH.size:_LENGTH.size + length])
        del self._buffer[:_LENGTH.size + length]
        try:
            doc = json.loads(body.decode("utf-8"), parse_constant=reject_non_finite)
        except (UnicodeDecodeError, json.JSONDecodeError, TraceError) as exc:
            raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "type" not in doc:
            raise ProtocolError(f"frame is not a typed object: {doc!r}")
        return doc

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Block for the next frame.

        Returns the frame document, or ``None`` when the peer closed the
        connection at a clean frame boundary (:attr:`eof` is set).  A
        connection that dies *mid-frame* — a worker killed during a
        ``sendall`` — raises :class:`ProtocolError` instead, so a torn
        result can never be mistaken for a clean goodbye.  ``timeout``
        bounds the wait (``None`` blocks indefinitely); expiry raises
        :class:`TimeoutError`.
        """
        while True:
            frame = self._extract()
            if frame is not None:
                return frame
            if self.eof:
                if self._buffer:
                    raise ProtocolError(
                        f"peer closed mid-frame ({len(self._buffer)} stray bytes)")
                return None
            if timeout is not None:
                ready, _, _ = select.select([self.sock], [], [], timeout)
                if not ready:
                    raise TimeoutError("timed out waiting for a fabric frame")
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                self.eof = True
                continue
            self._buffer.extend(chunk)

    def poll(self) -> Optional[Dict[str, Any]]:
        """Return a frame if one is available without blocking.

        ``None`` means "no complete frame right now" — check
        :attr:`eof` to distinguish a quiet peer from a gone one.
        """
        while True:
            frame = self._extract()
            if frame is not None:
                return frame
            if self.eof:
                return None
            ready, _, _ = select.select([self.sock], [], [], 0)
            if not ready:
                return None
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                self.eof = True
                return None
            self._buffer.extend(chunk)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
