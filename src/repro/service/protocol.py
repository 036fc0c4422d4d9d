"""Length-prefixed JSON frames: the wire protocol of the query service.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  The same framing runs in two places:

* server <-> worker, over the worker's stdin/stdout pipes (the server
  writes requests to the worker's stdin and reads replies from its
  stdout; a worker that dies shows up as EOF on the reply side);
* optionally client <-> server, for callers that prefer the raw socket
  protocol to HTTP (the HTTP front end speaks the same JSON bodies).

Everything that can go wrong on the wire — EOF mid-frame, an implausible
length prefix, a body that is not valid JSON — raises
:class:`~repro.core.errors.ProtocolError`.  A clean EOF *between* frames
returns ``None`` from :func:`read_frame`: that is how a worker's death,
or a client hanging up, is distinguished from a torn message.

:class:`FrameStream` wraps a raw file descriptor with its own buffer so
reads can carry a deadline (``select`` + ``os.read``; Python's buffered
readers cannot safely mix with ``select``).  A decoded frame is a
:class:`Message`: the dict plus the payload bytes it came from, which the
HTTP front end sends on as the body of a worker's reply.  The writer
side runs the ``service.net.drop`` chaos point, which can drop or
truncate a frame — the reader must then see a clean
:class:`ProtocolError`/EOF, never a half-parsed message.
"""

from __future__ import annotations

import json
import os
import select

from repro.core.errors import ProtocolError
from repro.testing.chaos import chaos_point

__all__ = ["FrameStream", "MAX_FRAME_BYTES", "Message", "encode_frame",
           "encode_payload", "frame_payload", "read_frame", "write_frame"]

#: Refuse frames past this size: a garbled length prefix must not make
#: the reader try to allocate gigabytes before noticing.
MAX_FRAME_BYTES = 256 * 1024 * 1024


def encode_payload(message: dict) -> bytes:
    """A message's frame payload: compact UTF-8 JSON."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def frame_payload(payload: bytes) -> bytes:
    """One frame's bytes: length prefix + an already encoded payload.
    The ``service.net.drop`` chaos point runs here — ``raise`` drops the
    frame (a :class:`ProtocolError` the sender handles as a dead
    connection), ``corrupt`` truncates it mid-payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap")
    frame = len(payload).to_bytes(4, "big") + payload
    try:
        return chaos_point("service.net.drop", frame,
                           corrupt=lambda data: data[:max(5, len(data) // 2)])
    except ProtocolError:
        raise
    except Exception as error:
        raise ProtocolError(f"frame dropped in transit: {error}") from error


def encode_frame(message: dict) -> bytes:
    """One frame's bytes for ``message`` (see :func:`frame_payload`)."""
    return frame_payload(encode_payload(message))


def write_frame(stream, message: dict) -> None:
    """Write one frame to a binary file-like object and flush it."""
    stream.write(encode_frame(message))
    stream.flush()


class Message(dict):
    """A decoded frame payload that keeps the exact bytes it was decoded
    from in :attr:`payload`, so a receiver that forwards the message
    unchanged (the HTTP front end answering with a worker's reply) sends
    those bytes instead of encoding the dict again.  Mutating the dict
    does not update :attr:`payload`."""

    __slots__ = ("payload",)

    def __init__(self, message: dict, payload: bytes):
        super().__init__(message)
        self.payload = payload


def read_frame(stream) -> Message | None:
    """Read one frame from a binary file-like object.

    Returns ``None`` on clean EOF (no bytes at all); raises
    :class:`ProtocolError` on a torn frame or malformed payload.
    """
    prefix = stream.read(4)
    if not prefix:
        return None
    if len(prefix) < 4:
        raise ProtocolError(
            f"stream ended inside a frame length prefix ({len(prefix)} of "
            f"4 bytes)")
    return _decode_body(stream.read(int.from_bytes(prefix, "big")),
                        int.from_bytes(prefix, "big"))


def _decode_body(payload: bytes, expected: int) -> Message:
    if expected > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length prefix {expected} exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap (stream corrupt?)")
    if len(payload) < expected:
        raise ProtocolError(
            f"stream ended inside a frame payload ({len(payload)} of "
            f"{expected} bytes)")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame payload is not valid JSON: {error}") \
            from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(message).__name__}")
    return Message(message, payload)


class FrameStream:
    """Frames over a raw read fd / write fd pair, with read deadlines.

    The pool talks to each worker through one of these: ``request`` fd is
    the worker's stdin (write side), ``reply`` fd its stdout (read side).
    Reads buffer internally and use ``select`` so a worker that hangs —
    as opposed to one that dies, which is immediate EOF — surfaces as
    :class:`TimeoutError` after the caller's deadline instead of blocking
    the dispatching thread forever.
    """

    def __init__(self, read_fd: int | None, write_fd: int | None):
        self._read_fd = read_fd
        self._write_fd = write_fd
        self._buffer = bytearray()

    # ------------------------------------------------------------- writing

    def send(self, message: dict) -> None:
        if self._write_fd is None:
            raise ProtocolError("stream is write-closed")
        data = encode_frame(message)
        try:
            while data:
                written = os.write(self._write_fd, data)
                data = data[written:]
        except (BrokenPipeError, OSError) as error:
            raise ProtocolError(f"cannot write frame: {error}") from error

    # ------------------------------------------------------------- reading

    def _fill(self, needed: int, deadline: float | None,
              clock) -> bool:
        """Grow the buffer to ``needed`` bytes.  Returns False on EOF
        before the first byte of this read; raises ``TimeoutError`` when
        the deadline passes with the fd silent."""
        while len(self._buffer) < needed:
            if deadline is not None:
                remaining = deadline - clock()
                if remaining <= 0:
                    raise TimeoutError("frame read deadline exceeded")
                ready, _, _ = select.select([self._read_fd], [], [],
                                            remaining)
                if not ready:
                    raise TimeoutError("frame read deadline exceeded")
            chunk = os.read(self._read_fd, 65536)
            if not chunk:
                if self._buffer:
                    raise ProtocolError(
                        f"stream ended inside a frame ({len(self._buffer)} "
                        f"of {needed} bytes)")
                return False
            self._buffer.extend(chunk)
        return True

    def receive(self, timeout: float | None = None) -> Message | None:
        """Read one frame; ``None`` on clean EOF, :class:`ProtocolError`
        on a torn frame, ``TimeoutError`` past ``timeout`` seconds.  The
        reply keeps its payload bytes (:class:`Message`)."""
        import time

        if self._read_fd is None:
            raise ProtocolError("stream is read-closed")
        clock = time.monotonic
        deadline = None if timeout is None else clock() + timeout
        if not self._fill(4, deadline, clock):
            return None
        expected = int.from_bytes(self._buffer[:4], "big")
        if expected > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame length prefix {expected} exceeds the "
                f"{MAX_FRAME_BYTES}-byte cap (stream corrupt?)")
        try:
            if not self._fill(4 + expected, deadline, clock):
                raise ProtocolError("stream ended inside a frame payload")
        except ProtocolError:
            raise
        body = bytes(self._buffer[4:4 + expected])
        del self._buffer[:4 + expected]
        return _decode_body(body, expected)

    def close(self) -> None:
        for fd in (self._read_fd, self._write_fd):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._read_fd = self._write_fd = None
