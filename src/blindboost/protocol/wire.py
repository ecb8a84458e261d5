"""Byte packing for protocol payloads.

Every message travels as [phase: 1 byte][length: 4 bytes big-endian][payload]
on the stream transport; the in-process transport carries (phase, payload)
tuples and counts the same framed length.

Every ``unpack_*`` helper raises ``MalformedMessage`` when a field or a
declared count runs past the end of the payload; ``expect_end`` raises it
on bytes after the last field.

Labels travel as a u32 count and the bytes of garbling's label array; their
unpackers check the count against the payload before they return a
read-only (count, 16) or (count, 2, 16) view of it.
"""

import math

import numpy as np

from ..garbling import LABEL_BYTES
# the one integer codec and its checks live with the ciphertexts it serializes
from ..paillier import (  # noqa: F401
    expect_end,
    pack_bigints,
    require_bytes,
    unpack_bigints,
)


def pack_u32(x: int) -> bytes:
    return int(x).to_bytes(4, "big")


def unpack_u32(buf: bytes, off: int = 0):
    require_bytes(buf, off, 4, "u32")
    return int.from_bytes(buf[off:off + 4], "big"), off + 4


def _unpack_rows(buf: bytes, off: int, row_shape: tuple, what: str):
    count, off = unpack_u32(buf, off)
    nbytes = count * math.prod(row_shape)
    require_bytes(buf, off, nbytes, f"{count} {what}")
    rows = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=off)
    return rows.reshape(count, *row_shape), off + nbytes


def pack_labels(labels) -> bytes:
    return pack_u32(len(labels)) + labels.tobytes()


def unpack_labels(buf: bytes, off: int = 0):
    return _unpack_rows(buf, off, (LABEL_BYTES,), "labels")


def pack_label_pairs(pairs) -> bytes:
    return pack_u32(len(pairs)) + pairs.tobytes()


def unpack_label_pairs(buf: bytes, off: int = 0):
    return _unpack_rows(buf, off, (2, LABEL_BYTES), "label pairs")


def pack_blob(blob: bytes) -> bytes:
    return pack_u32(len(blob)) + blob


def unpack_blob(buf: bytes, off: int = 0):
    ln, off = unpack_u32(buf, off)
    require_bytes(buf, off, ln, "blob")
    return buf[off:off + ln], off + ln
