import itertools

import pytest

from blindboost.circuits import build_sub_msb_batch, int_to_bits
from blindboost.errors import WidthOutOfRange


def msb_oracle(a, b, width):
    return 1 if ((a - b) % (1 << width)) >= (1 << (width - 1)) else 0


def test_sub_msb_simple_cases():
    c = build_sub_msb_batch(4, 1)
    assert c.evaluate_plain(int_to_bits(5, 4), int_to_bits(3, 4)) == [0]
    assert c.evaluate_plain(int_to_bits(3, 4), int_to_bits(5, 4)) == [1]


def test_sub_msb_exhaustive_small_widths():
    for width in range(2, 9):
        c = build_sub_msb_batch(width, 1)
        for a in range(1 << width):
            for b in range(1 << width):
                got = c.evaluate_plain(int_to_bits(a, width), int_to_bits(b, width))
                assert got == [msb_oracle(a, b, width)], (width, a, b)


def test_sub_msb_and_gate_budget():
    for width in (2, 4, 16, 25, 32):
        c = build_sub_msb_batch(width, 1)
        assert c.and_count <= 2 * (width - 1)
        assert c.and_count == width - 1
        assert len(c.inputs_a) == width and len(c.inputs_b) == width
        assert len(c.outputs) == 1


def test_sub_msb_width_bounds():
    with pytest.raises(WidthOutOfRange):
        build_sub_msb_batch(1, 1)
    with pytest.raises(WidthOutOfRange):
        build_sub_msb_batch(129, 1)


def test_sub_msb_wide_random():
    import random
    rng = random.Random(0)
    for width in (16, 25, 32):
        c = build_sub_msb_batch(width, 1)
        for _ in range(500):
            a = rng.getrandbits(width)
            b = rng.getrandbits(width)
            got = c.evaluate_plain(int_to_bits(a, width), int_to_bits(b, width))
            assert got == [msb_oracle(a, b, width)]


def test_batch_matches_single():
    import random
    rng = random.Random(1)
    width, count = 6, 5
    batch = build_sub_msb_batch(width, count)
    single = build_sub_msb_batch(width, 1)
    assert batch.and_count == count * single.and_count
    a_vals = [rng.getrandbits(width) for _ in range(count)]
    b_vals = [rng.getrandbits(width) for _ in range(count)]
    a_bits = [bit for v in a_vals for bit in int_to_bits(v, width)]
    b_bits = [bit for v in b_vals for bit in int_to_bits(v, width)]
    got = batch.evaluate_plain(a_bits, b_bits)
    for i in range(count):
        assert got[i] == msb_oracle(a_vals[i], b_vals[i], width)


def test_top_mask_bit_flips_the_msb():
    # stump selection folds a label share yb into the output by feeding
    # b XOR (yb << (w-1)) as the subtrahend: msb((a-b) mod 2^w) xor yb
    for width in range(2, 7):
        c = build_sub_msb_batch(width, 1)
        for a, b, yb in itertools.product(range(1 << width), range(1 << width), (0, 1)):
            got = c.evaluate_plain(int_to_bits(a, width),
                                   int_to_bits(b ^ yb << (width - 1), width))
            assert got == [msb_oracle(a, b, width) ^ yb], (width, a, b, yb)


def test_int_to_bits_lsb_first():
    assert int_to_bits(6, 4) == [0, 1, 1, 0]
    assert int_to_bits(-1, 3) == [1, 1, 1]
