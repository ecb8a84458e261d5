import struct
import threading
import time

import pytest

from blindboost.errors import (
    MalformedMessage,
    PhaseOrderViolation,
    TransportClosed,
    TransportStalled,
)
from blindboost.protocol import transport
from blindboost.protocol.transcript import PHASE_BYTE, Transcript
from blindboost.protocol.transport import MAX_FRAME, memory_pair, socket_pair


@pytest.mark.parametrize("factory", [memory_pair, socket_pair])
def test_round_trip_and_framing(factory):
    a, b, transcript = factory()
    a.send("SETUP", b"hello")
    a.send("BASE_APPLY", b"")
    phase, payload = b.recv()
    assert (phase, payload) == ("SETUP", b"hello")
    phase, payload = b.recv()
    assert (phase, payload) == ("BASE_APPLY", b"")
    b.send("DONE", b"\x01\x02")
    assert a.recv() == ("DONE", b"\x01\x02")
    # framed length = payload + 1 phase byte + 4 length bytes
    assert transcript.messages[0] == ("cloud->csp", "SETUP", 10)
    assert transcript.messages[1] == ("cloud->csp", "BASE_APPLY", 5)
    assert transcript.messages[2] == ("csp->cloud", "DONE", 7)
    if hasattr(a, "close"):
        a.close()
        b.close()


def test_socket_close_raises():
    a, b, _ = socket_pair()
    a.close()
    try:
        with pytest.raises(TransportClosed):
            b.recv()
    finally:
        b.close()


def test_socket_unknown_phase_byte_raises():
    a, b, _ = socket_pair()
    a._sock.sendall(struct.pack(">BI", 0xFF, 3) + b"abc")
    with pytest.raises(PhaseOrderViolation):
        b.recv()
    a.close()
    b.close()


@pytest.mark.parametrize("length", [MAX_FRAME + 1, 0xFFFFFFFF])
def test_socket_oversized_frame_is_refused_unread(length):
    a, b, _ = socket_pair()
    b._sock.settimeout(10)  # a reader waiting for the payload fails, not hangs
    try:
        a._sock.sendall(struct.pack(">BI", PHASE_BYTE["GC_TABLES"], length))
        with pytest.raises(MalformedMessage):
            b.recv()
    finally:
        a.close()
        b.close()


def _assert_reader_stalls(monkeypatch, sent):
    """A peer that sends `sent` and stops makes recv() raise TransportStalled
    within seconds."""
    monkeypatch.setattr(transport, "FRAME_READ_TIMEOUT_S", 0.2)
    a, b, _ = socket_pair()
    outcome = []

    def reader():
        start = time.monotonic()
        try:
            b.recv()
        except Exception as exc:
            outcome.append(exc)
        outcome.append(time.monotonic() - start)

    worker = threading.Thread(target=reader, daemon=True)
    try:
        a._sock.sendall(sent)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "the reader still waits on the stalled frame"
        assert isinstance(outcome[0], TransportStalled)
        assert outcome[1] < 5
    finally:
        a.close()
        b.close()


def test_socket_stalled_frame_raises_typed_error(monkeypatch):
    # a peer declares 100 bytes, sends 10 and stops: the reader gives up
    # after FRAME_READ_TIMEOUT_S instead of waiting forever
    _assert_reader_stalls(
        monkeypatch, struct.pack(">BI", PHASE_BYTE["GC_TABLES"], 100) + bytes(10))


def test_socket_stalled_header_raises_typed_error(monkeypatch):
    # a phase byte starts the clock: a peer that sends two of a header's
    # five bytes and stops stalls the reader no longer than a payload would
    _assert_reader_stalls(monkeypatch, b"\x01\x00")


def test_memory_close_raises():
    a, b, _ = memory_pair()
    a.close()
    with pytest.raises(TransportClosed):
        b.recv()


def test_large_payload_over_socket():
    a, b, _ = socket_pair()
    blob = bytes(range(256)) * 4096  # 1 MiB
    result = {}

    def reader():
        result["msg"] = b.recv()

    worker = threading.Thread(target=reader)
    worker.start()
    a.send("GC_TABLES", blob)
    worker.join(timeout=30)
    assert result["msg"] == ("GC_TABLES", blob)
    a.close()
    b.close()


def test_phase_order_validation():
    t = Transcript()
    t.record("cloud->csp", "SETUP", b"")
    t.record("cloud->csp", "BASE_APPLY", b"")
    t.record("cloud->csp", "RESULT_EVAL_MASK", b"")
    t.record("cloud->csp", "OT", b"")
    t.record("csp->cloud", "GC_TABLES", b"")
    t.record("cloud->csp", "OUTPUT_LABELS", b"")
    t.record("cloud->csp", "DONE", b"")
    t.validate_phase_order()
    # the label OT comes before the tables it keys, never after them
    for phases in (("OT", "DONE"),
                   ("BASE_APPLY", "RESULT_EVAL_MASK", "GC_TABLES", "OT", "OUTPUT_LABELS",
                    "DONE")):
        bad = Transcript()
        for phase in phases:
            bad.record("cloud->csp", phase, b"")
        with pytest.raises(PhaseOrderViolation):
            bad.validate_phase_order()
