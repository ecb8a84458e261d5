"""Transports: an in-process duplex queue and a byte-framed stream socket.

Both expose send(phase, payload) / recv() and log every message into a shared
Transcript. The protocol is strict ping-pong, so the transcript order is
deterministic for either transport.
"""

import queue
import socket
import struct
import threading
import time

from ..errors import MalformedMessage, PhaseOrderViolation, TransportClosed, TransportStalled
from .transcript import BYTE_PHASE, PHASE_BYTE, Transcript

_CLOSED = object()

# Largest payload a socket frame may declare. A header declaring more is
# refused before any payload byte is read, so the reader neither waits for
# nor buffers that many bytes.
MAX_FRAME = 1 << 26
# Longest a reader waits for the rest of a frame (its length and payload)
# once the phase byte has arrived; a peer that stops sending mid-frame raises
# TransportStalled. The wait for a frame's first byte is unbounded: a party
# may compute for long between messages.
FRAME_READ_TIMEOUT_S = 60.0


class _QueueEndpoint:
    def __init__(self, name: str, outbox, inbox, transcript, lock):
        self.name = name
        self._outbox = outbox
        self._inbox = inbox
        self._transcript = transcript
        self._lock = lock
        self._closed = False

    def send(self, phase: str, payload: bytes = b""):
        if self._closed:
            raise TransportClosed("endpoint closed")
        with self._lock:
            self._transcript.record(self.name, phase, payload)
        self._outbox.put((phase, payload))

    def recv(self):
        item = self._inbox.get()
        if item is _CLOSED:
            raise TransportClosed("peer closed the channel")
        return item

    def close(self):
        self._closed = True
        self._outbox.put(_CLOSED)


def memory_pair(transcript: Transcript | None = None):
    """(cloud_end, csp_end, transcript) connected by in-process queues."""
    transcript = transcript if transcript is not None else Transcript()
    lock = threading.Lock()
    a2b, b2a = queue.Queue(), queue.Queue()
    cloud = _QueueEndpoint("cloud->csp", a2b, b2a, transcript, lock)
    csp = _QueueEndpoint("csp->cloud", b2a, a2b, transcript, lock)
    return cloud, csp, transcript


class _SocketEndpoint:
    """Frames messages as [phase: 1][length: 4 big-endian][payload]."""

    def __init__(self, name: str, sock: socket.socket, transcript, lock):
        self.name = name
        self._sock = sock
        self._transcript = transcript
        self._lock = lock

    def send(self, phase: str, payload: bytes = b""):
        header = struct.pack(">BI", PHASE_BYTE[phase], len(payload))
        with self._lock:
            self._transcript.record(self.name, phase, payload)
        try:
            self._sock.sendall(header + payload)
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc

    def _read_exact(self, count: int, deadline: float | None = None) -> bytes:
        """`count` bytes; with a `deadline` on the time.monotonic() clock,
        all of them by then or TransportStalled."""
        chunks, left = [], count
        saved = self._sock.gettimeout()
        try:
            while left:
                if deadline is not None:
                    wait = deadline - time.monotonic()
                    if wait <= 0:
                        raise TimeoutError
                    self._sock.settimeout(wait)
                chunk = self._sock.recv(left)
                if not chunk:
                    raise TransportClosed("socket closed mid-message")
                chunks.append(chunk)
                left -= len(chunk)
        except TimeoutError:
            if deadline is None:
                raise
            raise TransportStalled(f"peer sent {count - left} of {count} bytes and "
                                   f"stopped; a frame must arrive within "
                                   f"{FRAME_READ_TIMEOUT_S} s of its first byte") from None
        finally:
            self._sock.settimeout(saved)
        return b"".join(chunks)

    def recv(self):
        phase_byte = self._read_exact(1)[0]
        deadline = time.monotonic() + FRAME_READ_TIMEOUT_S
        phase = BYTE_PHASE.get(phase_byte)
        if phase is None:
            raise PhaseOrderViolation(f"unknown phase byte {phase_byte:#04x}")
        (length,) = struct.unpack(">I", self._read_exact(4, deadline))
        if length > MAX_FRAME:
            raise MalformedMessage(f"frame declares {length} bytes, over the "
                                   f"{MAX_FRAME}-byte cap")
        return phase, self._read_exact(length, deadline)

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def socket_pair(transcript: Transcript | None = None):
    """(cloud_end, csp_end, transcript) over a local stream socket pair."""
    transcript = transcript if transcript is not None else Transcript()
    lock = threading.Lock()
    s1, s2 = socket.socketpair()
    cloud = _SocketEndpoint("cloud->csp", s1, transcript, lock)
    csp = _SocketEndpoint("csp->cloud", s2, transcript, lock)
    return cloud, csp, transcript
