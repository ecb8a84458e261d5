import dataclasses
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
    GarbledCircuit,
    decode_output,
    evaluate,
    garble,
    tables_from_bytes,
)


def _chosen(gs, b_bits):
    """The subtrahend labels of `b_bits`: label b_bits[i] of pair i."""
    pairs = gs.label_pairs()
    return pairs[np.arange(len(pairs)), np.asarray(b_bits, dtype=np.intp)]


def _run(gs, a_bits, b_bits):
    out = evaluate(gs.gc, gs.encode(a_bits), _chosen(gs, b_bits))
    return decode_output(out, gs.output_decode)


def single_and_circuit():
    return Circuit(n_wires=3, inputs_a=(0,), inputs_b=(1,),
                   gates=((AND, 0, 1, 2),), outputs=(2,))


def single_xor_circuit():
    return Circuit(n_wires=3, inputs_a=(0,), inputs_b=(1,),
                   gates=(("XOR", 0, 1, 2),), outputs=(2,))


def test_and_gate_truth_table():
    gs = garble(single_and_circuit(), random.Random(0))
    for a, b in itertools.product((0, 1), repeat=2):
        assert _run(gs, [a], [b]) == [a & b]


def test_xor_circuit_emits_no_tables():
    gs = garble(single_xor_circuit(), random.Random(1))
    assert gs.gc.and_tables == b""
    for a, b in itertools.product((0, 1), repeat=2):
        assert _run(gs, [a], [b]) == [a ^ b]


def test_identity_passthrough():
    c = Circuit(n_wires=1, inputs_a=(0,), inputs_b=(), gates=(), outputs=(0,))
    gs = garble(c, random.Random(2))
    lab = gs.encode([1])
    out = evaluate(gs.gc, lab, _chosen(gs, []))
    assert np.array_equal(out, lab)
    assert decode_output(out, gs.output_decode) == [1]


def _input_pairs(gs):
    """(label0, label1) of every input wire, minuend wires first."""
    zeros = [0] * len(gs.gc.circuit.inputs_a)
    minuend = np.stack([gs.encode(zeros), gs.encode([1 for _ in zeros])], axis=1)
    return np.concatenate([minuend, gs.label_pairs()])


def test_free_xor_invariant_structural():
    c = build_sub_msb_batch(6, 1)
    gs = garble(c, random.Random(3))
    delta = gs.delta.tobytes()
    # every other wire's label1 is its label0 ^ delta by construction
    assert gs.delta[0] & 1 == 1
    for l0, l1 in _input_pairs(gs):
        assert (l0 ^ l1).tobytes() == delta
        # permute bits of the two labels always differ
        assert (l0[0] ^ l1[0]) & 1 == 1


def test_sub_msb_garbled_exhaustive_small():
    for width in (2, 3, 4):
        c = build_sub_msb_batch(width, 1)
        gs = garble(c, random.Random(width))
        for a in range(1 << width):
            for b in range(1 << width):
                got = _run(gs, int_to_bits(a, width), int_to_bits(b, width))
                expect = 1 if ((a - b) % (1 << width)) >= (1 << (width - 1)) else 0
                assert got == [expect]


def test_garbled_decodes_like_plain_circuit():
    width = 8
    c = build_sub_msb_batch(width, 1)
    rng = random.Random(17)
    cases = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(64)]
    gs = garble(c, random.Random(5))
    for a, b in cases:
        a_bits, b_bits = int_to_bits(a, width), int_to_bits(b, width)
        assert _run(gs, a_bits, b_bits) == c.evaluate_plain(a_bits, b_bits)


def test_regarble_new_seed_same_outputs_different_tables():
    c = build_sub_msb_batch(5, 1)
    gs1 = garble(c, random.Random(7))
    gs2 = garble(c, random.Random(8))
    assert gs1.gc.and_tables != gs2.gc.and_tables
    for a, b in ((0, 0), (3, 9), (31, 30), (16, 16)):
        assert _run(gs1, int_to_bits(a, 5), int_to_bits(b, 5)) == \
            _run(gs2, int_to_bits(a, 5), int_to_bits(b, 5))


def test_corrupted_table_raises_auth_failure():
    gs = garble(single_and_circuit(), random.Random(9))
    # flip byte 3 of both rows
    tables = bytearray(gs.gc.and_tables)
    for off in (3, 16 + 3):
        tables[off] ^= 0xFF
    gs.gc.and_tables = bytes(tables)
    failures = 0
    for a, b in itertools.product((0, 1), repeat=2):
        try:
            _run(gs, [a], [b])
        except GarbledRowAuthFailure:
            failures += 1
    assert failures >= 1


def test_decode_unknown_label():
    gs = garble(single_and_circuit(), random.Random(10))
    zero = np.zeros((1, 16), dtype=np.uint8)
    with pytest.raises(UnknownLabel):
        decode_output(zero, gs.output_decode)


def test_decode_wrong_label_count():
    gs = garble(build_sub_msb_batch(4, 3), random.Random(10))
    labels = gs.output_decode[:, 0]
    assert decode_output(labels, gs.output_decode) == [0, 0, 0]
    for wrong in (labels[:1], np.concatenate([labels, labels[:1]])):
        with pytest.raises(GCEvaluationFailure):
            decode_output(wrong, gs.output_decode)


def test_encode_wrong_bit_count():
    gs = garble(build_sub_msb_batch(4, 3), random.Random(10))
    wires = gs.gc.circuit.inputs_a
    bits = [1] * len(wires)
    assert gs.encode(bits).shape == (len(wires), 16)
    for wrong in (bits[:-1], bits + [1]):  # one bit too few, one too many
        with pytest.raises(GCEvaluationFailure):
            gs.encode(wrong)


def test_evaluator_circuit_holds_no_garbler_secret():
    # what the evaluator receives has no field for delta, input labels or
    # the decode map; those live only on the garbler's side
    gs = garble(build_sub_msb_batch(4, 3), random.Random(10))
    assert [f.name for f in dataclasses.fields(GarbledCircuit)] == \
        ["circuit", "and_tables", "output_check"]
    assert set(vars(gs.gc)) == {"circuit", "and_tables", "output_check"}
    assert type(gs.gc.and_tables) is bytes


def test_evaluate_rejects_malformed_inputs():
    gs = garble(single_and_circuit(), random.Random(12))
    view = gs.gc
    ga, ev = gs.encode([1]), _chosen(gs, [1])
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, ga, ev[:, :15])  # short label
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, ga, ev[:0])  # missing label
    view.and_tables = view.and_tables[:-1]
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, ga, ev)  # table bytes do not fit the circuit


def test_tables_round_trip_bytes():
    c = build_sub_msb_batch(6, 1)
    tables = garble(c, random.Random(11)).gc.and_tables
    assert len(tables) == c.and_count * 2 * 16
    assert tables_from_bytes(c, tables) == tables
    for wrong in (tables[:-1], tables + b"\x00"):
        with pytest.raises(GCEvaluationFailure, match="table blob"):
            tables_from_bytes(c, wrong)


def test_mixed_gate_circuit_exhaustive():
    # NOT, XOR and AND mixed; all 8 assignments
    c = Circuit(n_wires=7, inputs_a=(0, 1), inputs_b=(2,),
                gates=(("NOT", 0, -1, 3), ("XOR", 3, 1, 4),
                       (AND, 4, 2, 5), ("NOT", 5, -1, 6)),
                outputs=(5, 6))
    gs = garble(c, random.Random(20))
    for a0, a1, b0 in itertools.product((0, 1), repeat=3):
        got = _run(gs, [a0, a1], [b0])
        v5 = ((a0 ^ 1) ^ a1) & b0
        assert got == [v5, v5 ^ 1]


def test_sub_msb_garbled_wide_random():
    rng = random.Random(12)
    for width in (16, 25, 32):
        c = build_sub_msb_batch(width, 1)
        gs = garble(c, random.Random(width * 3))
        for _ in range(60):
            a = rng.getrandbits(width)
            b = rng.getrandbits(width)
            got = _run(gs, int_to_bits(a, width), int_to_bits(b, width))
            expect = 1 if ((a - b) % (1 << width)) >= (1 << (width - 1)) else 0
            assert got == [expect]


# SHA-256 of the AND tables, of the output checks and of every input wire's
# (label0, label1) pair, for garble(build_sub_msb_batch(17, 4), Random(5)).
# The table hash was first recorded from the byte-label implementation; the
# label representation inside the garbler must not move any of them.
GARBLE_GOLDEN = ("550a4a16c7c8fce764490ebe7a12afd29d700cbda2aad335f586dba9f2da6e26",
                 "a2fe6480d95e050457a349de574564604c8726ed046b2d7a5ca3b30855b3dab2",
                 "e455c459404f249ec686646a77f3a0a80efcd82081d661a55e01a573c72f4142")


def test_garbled_bytes_known_answer():
    c = build_sub_msb_batch(17, 4)
    gs = garble(c, random.Random(5))
    assert (hashlib.sha256(gs.gc.and_tables).hexdigest(),
            hashlib.sha256(gs.gc.output_check.tobytes()).hexdigest(),
            hashlib.sha256(_input_pairs(gs).tobytes()).hexdigest()) == GARBLE_GOLDEN
