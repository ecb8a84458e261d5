import pytest

from blindboost.errors import MalformedMessage
from blindboost.protocol import wire


def _pairs(count):
    return [(bytes([i]) * 16, bytes([i + 128]) * 16) for i in range(count)]


def test_round_trips_at_offsets():
    pairs = _pairs(3)
    buf = (wire.pack_u32(7) + wire.pack_bigints([0, 1, 2**700 + 5])
           + wire.pack_labels([a for a, _ in pairs]) + wire.pack_label_pairs(pairs)
           + wire.pack_blob(b"xyz"))
    x, off = wire.unpack_u32(buf)
    xs, off = wire.unpack_bigints(buf, off)
    labels, off = wire.unpack_labels(buf, off)
    got_pairs, off = wire.unpack_label_pairs(buf, off)
    blob, off = wire.unpack_blob(buf, off)
    assert (x, xs, blob, off) == (7, [0, 1, 2**700 + 5], b"xyz", len(buf))
    assert labels == [a for a, _ in pairs] and got_pairs == pairs


def test_truncated_label_pairs():
    with pytest.raises(MalformedMessage):
        wire.unpack_label_pairs(wire.pack_label_pairs(_pairs(3))[:-20])


def test_short_u32():
    with pytest.raises(MalformedMessage):
        wire.unpack_u32(b"\x01")
    with pytest.raises(MalformedMessage):
        wire.unpack_u32(b"\x00\x00\x00\x01", 1)


def test_count_beyond_payload():
    with pytest.raises(MalformedMessage):
        wire.unpack_bigints(b"\x00\x00\x00\x05")
    with pytest.raises(MalformedMessage):
        wire.unpack_labels(wire.pack_u32(2) + b"\x00" * 31)


def test_truncated_length_prefixed_fields():
    with pytest.raises(MalformedMessage):
        wire.unpack_bigints(wire.pack_bigints([2**64 + 1])[:-1])
    with pytest.raises(MalformedMessage):
        wire.unpack_blob(wire.pack_blob(b"abcd")[:-1])


@pytest.mark.parametrize("blob, unpack", [
    (wire.pack_u32(3), wire.unpack_u32),
    (wire.pack_bigints([5, 2**90]), wire.unpack_bigints),
    (wire.pack_labels([b"a" * 16]), wire.unpack_labels),
    (wire.pack_label_pairs(_pairs(2)), wire.unpack_label_pairs),
    (wire.pack_blob(b"xy"), wire.unpack_blob),
])
def test_every_proper_prefix_is_malformed(blob, unpack):
    assert unpack(blob)[1] == len(blob)
    for cut in range(len(blob)):
        with pytest.raises(MalformedMessage):
            unpack(blob[:cut])
