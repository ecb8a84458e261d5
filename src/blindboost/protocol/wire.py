"""Byte packing for protocol payloads.

Every message travels as [phase: 1 byte][length: 4 bytes big-endian][payload]
on the stream transport; the in-process transport carries (phase, payload)
tuples and counts the same framed length.

Every ``unpack_*`` helper raises ``MalformedMessage`` when a field or a
declared count runs past the end of the payload; ``expect_end`` raises it
on bytes after the last field.
"""

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


def pack_labels(labels) -> bytes:
    return pack_u32(len(labels)) + b"".join(labels)


def unpack_labels(buf: bytes, off: int = 0):
    count, off = unpack_u32(buf, off)
    require_bytes(buf, off, count * LABEL_BYTES, f"{count} labels")
    labels = []
    for _ in range(count):
        labels.append(buf[off:off + LABEL_BYTES])
        off += LABEL_BYTES
    return labels, off


def pack_label_pairs(pairs) -> bytes:
    return pack_u32(len(pairs)) + b"".join(a + b for a, b in pairs)


def unpack_label_pairs(buf: bytes, off: int = 0):
    count, off = unpack_u32(buf, off)
    require_bytes(buf, off, count * 2 * LABEL_BYTES, f"{count} label pairs")
    pairs = []
    for _ in range(count):
        pairs.append((buf[off:off + LABEL_BYTES],
                      buf[off + LABEL_BYTES:off + 2 * LABEL_BYTES]))
        off += 2 * LABEL_BYTES
    return pairs, off


def pack_blob(blob: bytes) -> bytes:
    return pack_u32(len(blob)) + blob


def unpack_blob(buf: bytes, off: int = 0):
    ln, off = unpack_u32(buf, off)
    require_bytes(buf, off, ln, "blob")
    return buf[off:off + ln], off + ln
