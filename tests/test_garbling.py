import hashlib
import itertools
import random

import numpy as np
import pytest

from blindboost import garbling
from blindboost.circuits import (
    AND,
    Circuit,
    build_sub_msb_batch,
    int_to_bits,
)
from blindboost.errors import GarbledRowAuthFailure, GCEvaluationFailure, UnknownLabel
from blindboost.garbling import (
    decode_output,
    evaluate,
    evaluator_view,
    garble,
    tables_from_bytes,
)


def _chosen(gc, b_bits):
    """The subtrahend labels of `b_bits`: label b_bits[i] of pair i."""
    pairs = gc.label_pairs()
    return pairs[np.arange(len(pairs)), np.asarray(b_bits, dtype=np.intp)]


def _run(gc, a_bits, b_bits):
    out = evaluate(evaluator_view(gc), gc.encode(a_bits), _chosen(gc, b_bits))
    return decode_output(out, gc.output_decode)


def single_and_circuit():
    return Circuit(n_wires=3, inputs_a=(0,), inputs_b=(1,),
                   gates=((AND, 0, 1, 2),), outputs=(2,))


def single_xor_circuit():
    return Circuit(n_wires=3, inputs_a=(0,), inputs_b=(1,),
                   gates=(("XOR", 0, 1, 2),), outputs=(2,))


def test_and_gate_truth_table():
    gc = garble(single_and_circuit(), random.Random(0))
    for a, b in itertools.product((0, 1), repeat=2):
        assert _run(gc, [a], [b]) == [a & b]


def test_xor_circuit_emits_no_tables():
    gc = garble(single_xor_circuit(), random.Random(1))
    assert gc.and_tables == []
    for a, b in itertools.product((0, 1), repeat=2):
        assert _run(gc, [a], [b]) == [a ^ b]


def test_identity_passthrough():
    c = Circuit(n_wires=1, inputs_a=(0,), inputs_b=(), gates=(), outputs=(0,))
    gc = garble(c, random.Random(2))
    lab = gc.encode([1])
    out = evaluate(evaluator_view(gc), lab, _chosen(gc, []))
    assert np.array_equal(out, lab)
    assert decode_output(out, gc.output_decode) == [1]


def _input_pairs(gc):
    """(label0, label1) of every input wire, minuend wires first."""
    zeros = [0] * len(gc.circuit.inputs_a)
    minuend = np.stack([gc.encode(zeros), gc.encode([1 for _ in zeros])], axis=1)
    return np.concatenate([minuend, gc.label_pairs()])


def test_free_xor_invariant_structural():
    c = build_sub_msb_batch(6, 1)
    gc = garble(c, random.Random(3))
    delta = gc.delta.to_bytes(16, "little")
    # every other wire's label1 is its label0 ^ delta by construction
    assert gc.delta & 1 == 1
    for l0, l1 in _input_pairs(gc):
        assert (l0 ^ l1).tobytes() == delta
        # permute bits of the two labels always differ
        assert (l0[0] ^ l1[0]) & 1 == 1


def test_sub_msb_garbled_exhaustive_small():
    for width in (2, 3, 4):
        c = build_sub_msb_batch(width, 1)
        gc = garble(c, random.Random(width))
        for a in range(1 << width):
            for b in range(1 << width):
                got = _run(gc, int_to_bits(a, width), int_to_bits(b, width))
                expect = 1 if ((a - b) % (1 << width)) >= (1 << (width - 1)) else 0
                assert got == [expect]


def test_garbled_decodes_like_plain_circuit():
    width = 8
    c = build_sub_msb_batch(width, 1)
    rng = random.Random(17)
    cases = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(64)]
    gc = garble(c, random.Random(5))
    for a, b in cases:
        a_bits, b_bits = int_to_bits(a, width), int_to_bits(b, width)
        assert _run(gc, a_bits, b_bits) == c.evaluate_plain(a_bits, b_bits)


def test_regarble_new_seed_same_outputs_different_tables():
    c = build_sub_msb_batch(5, 1)
    gc1 = garble(c, random.Random(7))
    gc2 = garble(c, random.Random(8))
    assert gc1.tables_bytes() != gc2.tables_bytes()
    for a, b in ((0, 0), (3, 9), (31, 30), (16, 16)):
        assert _run(gc1, int_to_bits(a, 5), int_to_bits(b, 5)) == \
            _run(gc2, int_to_bits(a, 5), int_to_bits(b, 5))


def test_corrupted_table_raises_auth_failure():
    gc = garble(single_and_circuit(), random.Random(9))
    # flip byte 3 of both rows
    gc.and_tables[0] = tuple(row ^ 0xFF << 24 for row in gc.and_tables[0])
    failures = 0
    for a, b in itertools.product((0, 1), repeat=2):
        try:
            _run(gc, [a], [b])
        except GarbledRowAuthFailure:
            failures += 1
    assert failures >= 1


def test_decode_unknown_label():
    gc = garble(single_and_circuit(), random.Random(10))
    zero = np.zeros((1, 16), dtype=np.uint8)
    with pytest.raises(UnknownLabel):
        decode_output(zero, gc.output_decode)
    with pytest.raises(UnknownLabel):
        decode_output(zero, None)  # decode map withheld


def test_decode_wrong_label_count():
    gc = garble(build_sub_msb_batch(4, 3), random.Random(10))
    labels = gc.output_decode[:, 0]
    assert decode_output(labels, gc.output_decode) == [0, 0, 0]
    for wrong in (labels[:1], np.concatenate([labels, labels[:1]])):
        with pytest.raises(GCEvaluationFailure):
            decode_output(wrong, gc.output_decode)


def test_encode_wrong_bit_count():
    gc = garble(build_sub_msb_batch(4, 3), random.Random(10))
    wires = gc.circuit.inputs_a
    bits = [1] * len(wires)
    assert gc.encode(bits).shape == (len(wires), 16)
    for wrong in (bits[:-1], bits + [1]):  # one bit too few, one too many
        with pytest.raises(GCEvaluationFailure):
            gc.encode(wrong)


def test_input_labels_are_garbler_side_only():
    gc = garble(build_sub_msb_batch(4, 3), random.Random(10))
    view = evaluator_view(gc)
    with pytest.raises(GCEvaluationFailure, match="garbler-side only"):
        view.encode([1] * len(gc.circuit.inputs_a))
    with pytest.raises(GCEvaluationFailure, match="garbler-side only"):
        view.label_pairs()


def test_evaluate_rejects_malformed_inputs():
    gc = garble(single_and_circuit(), random.Random(12))
    view = evaluator_view(gc)
    ga, ev = gc.encode([1]), _chosen(gc, [1])
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, ga, ev[:, :15])  # short label
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, ga, ev[:0])  # missing label
    view.and_tables = []
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, ga, ev)  # table count does not fit the circuit


def test_tables_round_trip_bytes():
    c = build_sub_msb_batch(6, 1)
    gc = garble(c, random.Random(11))
    assert tables_from_bytes(c, gc.tables_bytes()) == gc.and_tables
    for wrong in (gc.tables_bytes()[:-1], gc.tables_bytes() + b"\x00"):
        with pytest.raises(GCEvaluationFailure, match="table blob"):
            tables_from_bytes(c, wrong)


def test_mixed_gate_circuit_exhaustive():
    # NOT, XOR and AND mixed; all 8 assignments
    c = Circuit(n_wires=7, inputs_a=(0, 1), inputs_b=(2,),
                gates=(("NOT", 0, -1, 3), ("XOR", 3, 1, 4),
                       (AND, 4, 2, 5), ("NOT", 5, -1, 6)),
                outputs=(5, 6))
    gc = garble(c, random.Random(20))
    for a0, a1, b0 in itertools.product((0, 1), repeat=3):
        got = _run(gc, [a0, a1], [b0])
        v5 = ((a0 ^ 1) ^ a1) & b0
        assert got == [v5, v5 ^ 1]


def test_sub_msb_garbled_wide_random():
    rng = random.Random(12)
    for width in (16, 25, 32):
        c = build_sub_msb_batch(width, 1)
        gc = garble(c, random.Random(width * 3))
        for _ in range(60):
            a = rng.getrandbits(width)
            b = rng.getrandbits(width)
            got = _run(gc, int_to_bits(a, width), int_to_bits(b, width))
            expect = 1 if ((a - b) % (1 << width)) >= (1 << (width - 1)) else 0
            assert got == [expect]


# SHA-256 of tables_bytes(), of the output checks and of every input wire's
# (label0, label1) pair, for garble(build_sub_msb_batch(17, 4), Random(5)).
# The table hash was first recorded from the byte-label implementation; the
# label representation inside the garbler must not move any of them.
GARBLE_GOLDEN = ("550a4a16c7c8fce764490ebe7a12afd29d700cbda2aad335f586dba9f2da6e26",
                 "a2fe6480d95e050457a349de574564604c8726ed046b2d7a5ca3b30855b3dab2",
                 "e455c459404f249ec686646a77f3a0a80efcd82081d661a55e01a573c72f4142")


def test_garbled_bytes_known_answer():
    c = build_sub_msb_batch(17, 4)
    gc = garble(c, random.Random(5))
    assert (hashlib.sha256(gc.tables_bytes()).hexdigest(),
            hashlib.sha256(gc.output_check.tobytes()).hexdigest(),
            hashlib.sha256(_input_pairs(gc).tobytes()).hexdigest()) == GARBLE_GOLDEN
