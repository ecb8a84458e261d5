import hashlib
import itertools
import random

import pytest

from blindboost.circuits import AND, NOT, XOR, Circuit, build_sub_msb_batch, int_to_bits, record_bits
from blindboost.errors import BlindBoostError, ConstantOutOfRange, WidthOutOfRange


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
    rng = random.Random(0)
    for width in (16, 25, 32):
        c = build_sub_msb_batch(width, 1)
        for _ in range(500):
            a = rng.getrandbits(width)
            b = rng.getrandbits(width)
            got = c.evaluate_plain(int_to_bits(a, width), int_to_bits(b, width))
            assert got == [msb_oracle(a, b, width)]


def test_batch_matches_single():
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


# SHA-256 of repr((n_wires, inputs_a, inputs_b, gates, outputs)) of
# build_sub_msb_batch(width, count), recorded before the builder took public
# constants: the constant 0 alone must keep the boosting circuit gate for gate
SUB_MSB_GOLDEN = {
    (2, 1): "7a15242cdb54f405fc033635319436d014850fff6b12200556b1efea83978365",
    (5, 3): "6613559d834477de6d2599b830d47206bcbe58d4ad38019d5a45382c65554c2c",
    (17, 24): "cfe57aa65d61e976b62985a0b2b70764ec10148e8b0ed8d76987f4247bd319db",
    (33, 2): "953b89a3aaaaf1b73428fbf75fcf63d0e79b531712cea4da6c77025d76da1b28",
}


@pytest.mark.parametrize("width, count", sorted(SUB_MSB_GOLDEN))
def test_constant_zero_keeps_the_sign_circuit_gate_for_gate(width, count):
    for c in (build_sub_msb_batch(width, count), build_sub_msb_batch(width, count, (0,))):
        digest = hashlib.sha256(repr((c.n_wires, c.inputs_a, c.inputs_b, c.gates,
                                      c.outputs)).encode()).hexdigest()
        assert digest == SUB_MSB_GOLDEN[width, count]


def _constant_tuples(width):
    top, last = 1 << (width - 1), (1 << width) - 1
    return [tuple(range(1 << width)),               # every constant, in order
            (last, top, 0, 1, top - 1, top + 1),    # the ring's edges, unordered
            (top, top, 3 % (1 << width))]           # a repeat


def _assert_exhaustive(width, constants):
    # every a and b at once: record i of the batch is (a, b_i) for all b
    q = 1 << width
    c = build_sub_msb_batch(width, q, constants)
    assert len(c.outputs) == len(constants) * q
    for a in range(q):
        got = c.evaluate_plain(record_bits([a] * q, width), record_bits(range(q), width))
        want = [msb_oracle((a - b) % q, v, width) for v in constants for b in range(q)]
        assert got == want, (width, constants, a)


@pytest.mark.parametrize("width", range(2, 7))
def test_constant_comparisons_exhaustive_small_widths(width):
    for constants in _constant_tuples(width):
        _assert_exhaustive(width, constants)


def test_constant_comparisons_and_gate_budget():
    # d once per record (width - 1 ANDs), then one per node of the shared
    # borrow chain; these constants share no low bits above their lowest
    # set bit t, so each nonzero one takes its own width - 2 - t, and 0 and
    # 2^(width-1) take none
    width, count = 17, 3
    constants = (0, 1 << 16, 398, 284, (1 << 17) - 56, 1)
    c = build_sub_msb_batch(width, count, constants)
    assert c.and_count == count * ((width - 1) + 0 + 0 + 14 + 13 + 12 + 15)


def _per_constant_budget(width, constants):
    # one borrow chain per constant: max(width - 2 - t, 0) ANDs, t its
    # lowest set bit, and none for 0
    return sum(max(width - 2 - ((v & -v).bit_length() - 1), 0) for v in constants if v)


def _shared_nodes(width, constants):
    # the distinct (i, v mod 2^i) with t < i <= width - 2
    return len({(i, v % (1 << i)) for v in constants if v
                for i in range((v & -v).bit_length(), width - 1)})


def test_shared_chain_and_gate_counts():
    # the thresholds 1 ... s of stump selection, s a power of two: s - 1
    # ANDs per record, subtractor included
    for s in (2, 4, 8, 16, 32):
        width = s.bit_length()  # ceil(log2 s) + 1
        c = build_sub_msb_batch(width, 3, tuple(range(1, s + 1)))
        assert c.and_count == 3 * (s - 1), s
    # any constants: one AND per shared node, never more than one chain per
    # constant took
    rng = random.Random(38)
    for _ in range(200):
        width = rng.randint(2, 8)
        constants = tuple(rng.randrange(1 << width) for _ in range(rng.randint(1, 12)))
        per_record = build_sub_msb_batch(width, 1, constants).and_count - (width - 1)
        assert per_record == _shared_nodes(width, constants), (width, constants)
        assert per_record <= _per_constant_budget(width, constants), (width, constants)


def _random_constant_tuples(width, rng):
    # 0, 2^(width-1) and a repeat in every tuple, among random constants
    q, top = 1 << width, 1 << (width - 1)
    tuples = []
    for _ in range(3):
        picked = [rng.randrange(q) for _ in range(rng.randint(1, 6))]
        picked += [0, top, rng.choice(picked)]
        rng.shuffle(picked)
        tuples.append(tuple(picked))
    return tuples


@pytest.mark.parametrize("width", range(2, 8))
def test_shared_chain_exhaustive_on_random_constants(width):
    # which nodes the constants share depends on their low bits
    for constants in _random_constant_tuples(width, random.Random(width)):
        _assert_exhaustive(width, constants)


def test_te_only_marks_the_and_gates_whose_first_input_is_inputs_a_alone():
    # each record's first AND, AND(NOT a_0, b_0), and no other AND of the
    # sign circuit, with or without constants
    for width, count, constants in ((2, 1, (0,)), (5, 3, (0,)), (6, 4, (1, 5, 32))):
        c = build_sub_msb_batch(width, count, constants)
        per_record = c.and_count // count
        assert c.te_only == {i * per_record for i in range(count)}
    # through XOR and NOT only: an AND of inputs_a wires is no longer theirs alone
    c = Circuit(n_wires=8, inputs_a=(0, 1), inputs_b=(2,),
                gates=((XOR, 0, 1, 3), (NOT, 3, -1, 4), (AND, 4, 2, 5),
                       (AND, 0, 1, 6), (AND, 6, 2, 7)), outputs=(5, 7))
    assert (c.and_count, c.te_only) == (3, {0, 1})


@pytest.mark.parametrize("constants", [(), (-1,), (1 << 5,), (0, 3, 40)],
                         ids=["empty", "negative", "2^width", "one-past-the-ring"])
def test_constants_outside_the_ring_are_refused(constants):
    with pytest.raises(ConstantOutOfRange, match="constant"):
        build_sub_msb_batch(5, 2, constants)
    assert issubclass(ConstantOutOfRange, BlindBoostError)


@pytest.mark.parametrize("inputs, gates, outputs, match", [
    (((0,), (1,)), ((XOR, 0, 2, 2),), (2,), "reads an unassigned wire"),
    (((0,), (1,)), ((XOR, 0, 1, 2), (AND, 0, 1, 2)), (2,), "assigned twice"),
    (((0,), (1,)), (), (2,), "never assigned"),
    (((0,), (1,)), ((XOR, 0, 1, 5),), (5,), "outside"),
    (((0,), (1,)), ((NOT, -1, -1, 2),), (2,), "outside"),
    (((0,), (1,)), ((XOR, 0, 1, 2),), (3,), "outside"),
    (((0,), (0,)), ((NOT, 0, -1, 2),), (2,), "input wire 0 listed twice"),
    (((0, 0), (1,)), ((XOR, 0, 1, 2),), (2,), "input wire 0 listed twice"),
], ids=["unassigned-read", "assigned-twice", "output-never-assigned",
        "gate-past-the-wires", "negative-wire", "output-past-the-wires",
        "input-in-both-partitions", "input-twice-in-one-partition"])
def test_miswired_circuits_are_refused(inputs, gates, outputs, match):
    # by default wires 0 and 1 are the inputs of a 3-wire circuit; an input
    # wire listed twice would give the garbler's and the evaluator's inputs
    # one label
    inputs_a, inputs_b = inputs
    with pytest.raises(ValueError, match=match):
        Circuit(n_wires=3, inputs_a=inputs_a, inputs_b=inputs_b, gates=gates,
                outputs=outputs)
