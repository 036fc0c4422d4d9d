"""Wire-protocol tests: framing round trips, torn frames, deadlines.

Everything that can go wrong on the wire must surface as a typed
:class:`~repro.core.errors.ProtocolError` (or ``None`` for a clean EOF
*between* frames — that is how a worker death is told apart from a torn
message).  Nothing here may hang: :class:`FrameStream` reads carry
deadlines.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ProtocolError
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    FrameStream,
    encode_frame,
    frame_payload,
    read_frame,
    write_frame,
)
from repro.service.worker import Worker
from repro.testing.chaos import Fault

# ------------------------------------------------------------ file-like


def test_round_trip():
    message = {"op": "query", "rows": [[0, 1], [1, 2]], "π": "ok"}
    buffer = io.BytesIO()
    write_frame(buffer, message)
    buffer.seek(0)
    assert read_frame(buffer) == message
    assert read_frame(buffer) is None  # clean EOF between frames


def test_many_frames_back_to_back():
    buffer = io.BytesIO()
    for index in range(5):
        write_frame(buffer, {"id": index})
    buffer.seek(0)
    assert [read_frame(buffer)["id"] for _ in range(5)] == list(range(5))


def test_torn_length_prefix():
    with pytest.raises(ProtocolError, match="length prefix"):
        read_frame(io.BytesIO(b"\x00\x00"))


def test_torn_payload():
    frame = encode_frame({"op": "ping"})
    with pytest.raises(ProtocolError, match="inside a frame payload"):
        read_frame(io.BytesIO(frame[:-3]))


def test_payload_must_be_json():
    bad = len(b"not json").to_bytes(4, "big") + b"not json"
    with pytest.raises(ProtocolError, match="not valid JSON"):
        read_frame(io.BytesIO(bad))


def test_payload_must_be_an_object():
    frame = len(b"[1,2]").to_bytes(4, "big") + b"[1,2]"
    with pytest.raises(ProtocolError, match="JSON object"):
        read_frame(io.BytesIO(frame))


def test_implausible_length_prefix_is_rejected_before_allocation():
    huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="cap"):
        read_frame(io.BytesIO(huge + b"x"))


# ------------------------------------------------------------ FrameStream


@pytest.fixture
def pipe_pair():
    """Two FrameStreams over a real pipe: ``left`` writes, ``right``
    reads (one direction is all these tests need)."""
    read_fd, write_fd = os.pipe()
    left = FrameStream(None, write_fd)
    right = FrameStream(read_fd, None)
    yield left, right
    left.close()
    right.close()


def test_stream_round_trip(pipe_pair):
    left, right = pipe_pair
    left.send({"op": "ping", "id": 7})
    message = right.receive(timeout=5.0)
    assert message == {"op": "ping", "id": 7}
    assert message.payload == encode_frame({"op": "ping", "id": 7})[4:]


def test_stream_eof_is_none(pipe_pair):
    left, right = pipe_pair
    left.close()
    assert right.receive(timeout=5.0) is None


def test_stream_eof_mid_frame_is_a_protocol_error(pipe_pair):
    left, right = pipe_pair
    frame = encode_frame({"op": "ping"})
    os.write(left._write_fd, frame[:-2])
    left.close()
    with pytest.raises(ProtocolError, match="ended inside a frame"):
        right.receive(timeout=5.0)


def test_stream_read_deadline(pipe_pair):
    """A silent peer (hung worker) surfaces as TimeoutError, never a
    blocked thread."""
    _, right = pipe_pair
    with pytest.raises(TimeoutError):
        right.receive(timeout=0.05)


def test_stream_deadline_mid_frame(pipe_pair):
    left, right = pipe_pair
    os.write(left._write_fd, encode_frame({"op": "ping"})[:4])
    with pytest.raises(TimeoutError):
        right.receive(timeout=0.05)


def test_stream_send_after_close_is_typed(pipe_pair):
    left, _ = pipe_pair
    left.close()
    with pytest.raises(ProtocolError, match="write-closed"):
        left.send({"op": "ping"})


def test_stream_write_to_broken_pipe_is_typed(pipe_pair):
    left, right = pipe_pair
    right.close()
    with pytest.raises(ProtocolError, match="cannot write frame"):
        # One huge frame overflows the pipe buffer so the broken pipe is
        # observed synchronously even before the first read.
        left.send({"blob": "x" * (1 << 20)})


def test_stream_interleaved_from_another_thread(pipe_pair):
    left, right = pipe_pair

    def feed():
        for index in range(3):
            left.send({"id": index})

    thread = threading.Thread(target=feed)
    thread.start()
    got = [right.receive(timeout=5.0)["id"] for _ in range(3)]
    thread.join()
    assert got == [0, 1, 2]


# ----------------------------------------------------------- chaos seam


def test_net_drop_chaos_raises(inject_faults):
    inject_faults(Fault("service.net.drop"))
    with pytest.raises(ProtocolError, match="dropped in transit"):
        encode_frame({"op": "ping"})


def test_net_corrupt_chaos_truncates_to_a_torn_frame(inject_faults):
    """A corrupted (truncated) frame must parse as a *torn* frame on the
    read side — never as a half-valid message."""
    inject_faults(Fault("service.net.drop", action="corrupt"))
    mangled = encode_frame({"op": "ping", "padding": "x" * 64})
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(mangled))


# ------------------------------------------------- mutation fuzz (replies)

#: Read deadline for a fuzzed frame whose writer stays connected.
FUZZ_TIMEOUT = 0.02


@pytest.fixture(scope="module")
def reply_frames(snapshot_path):
    """Frames of real worker replies, as the pipe loop writes them: memo
    hits (spliced payloads) for answers and a sentence, plus an error."""
    worker = Worker()
    worker.handle({"op": "load", "name": "g", "path": str(snapshot_path)})
    frames = []
    for query in ("tc", "apath", "non-reach", "reach", "nope"):
        request = {"op": "query", "id": 3, "structure": "g", "query": query}
        worker.handle_payload(request)
        frames.append(frame_payload(worker.handle_payload(request)))
    return frames


def _receive(data: bytes, hang_up: bool):
    """Write ``data`` into a pipe (hanging the writer up after it when
    ``hang_up``) and read one frame through :class:`FrameStream`."""
    read_fd, write_fd = os.pipe()
    stream = FrameStream(read_fd, None)
    try:
        assert os.write(write_fd, data) == len(data)
        if hang_up:
            os.close(write_fd)
        return stream.receive(timeout=FUZZ_TIMEOUT)
    finally:
        stream.close()
        if not hang_up:
            os.close(write_fd)


def _check_outcome(data: bytes, payload: bytes, hang_up: bool) -> None:
    """A mangled frame ends in a typed error, a bounded timeout, a clean
    EOF when nothing arrived, or the original message, bytes included;
    an intact frame must decode."""
    intact = data == len(payload).to_bytes(4, "big") + payload
    started = time.monotonic()
    try:
        message = _receive(data, hang_up)
    except ProtocolError:
        assert not intact
        return
    except TimeoutError:
        assert not intact
        assert not hang_up, "a closed pipe must end the read, not time out"
        assert time.monotonic() - started < FUZZ_TIMEOUT + 1.0
        return
    if message is None:
        assert data == b""
        return
    assert message == json.loads(payload)
    assert message.payload == payload


@given(data=st.data())
def test_mangled_reply_frames_fail_typed_or_decode_identically(
        reply_frames, data):
    frame = data.draw(st.sampled_from(reply_frames))
    payload = frame[4:]
    length = data.draw(st.one_of(
        st.just(len(payload)),
        st.integers(0, 2 ** 32 - 1),
        st.integers(-8, 8).map(lambda delta: max(0, len(payload) + delta))))
    mangled = length.to_bytes(4, "big") + payload
    for offset in range(len(mangled) + 1):
        _check_outcome(mangled[:offset], payload, hang_up=True)
    _check_outcome(mangled, payload,
                   hang_up=data.draw(st.booleans(), label="hang_up"))
