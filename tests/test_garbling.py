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


def _garble(circuit, seed):
    """garble on Random(seed), after delta and the subtrahend 0-labels are
    drawn from it, as dealer OT draws them; returns the garbler's side and
    the subtrahend wires' (label0, label1) pairs."""
    rng = random.Random(seed)
    delta = garbling.random_delta(rng)
    label0_b = garbling.random_labels(rng, len(circuit.inputs_b))
    gs = garble(circuit, rng, delta, label0_b, 0)
    return gs, np.stack([label0_b, label0_b ^ delta], axis=1)


def _chosen(pairs, b_bits):
    """The subtrahend labels of `b_bits`: label b_bits[i] of pair i."""
    return pairs[np.arange(len(pairs)), np.asarray(b_bits, dtype=np.intp)]


def _run(gs, pairs, a_bits, b_bits, index=0):
    out = evaluate(gs.gc, gs.encode(a_bits), _chosen(pairs, b_bits), index)
    return decode_output(out, gs.output_decode)


def single_and_circuit():
    return Circuit(n_wires=3, inputs_a=(0,), inputs_b=(1,),
                   gates=((AND, 0, 1, 2),), outputs=(2,))


def single_xor_circuit():
    return Circuit(n_wires=3, inputs_a=(0,), inputs_b=(1,),
                   gates=(("XOR", 0, 1, 2),), outputs=(2,))


def test_and_gate_truth_table():
    gs, pairs = _garble(single_and_circuit(), 0)
    for a, b in itertools.product((0, 1), repeat=2):
        assert _run(gs, pairs, [a], [b]) == [a & b]


def test_xor_circuit_emits_no_tables():
    gs, pairs = _garble(single_xor_circuit(), 1)
    assert gs.gc.and_tables == b""
    for a, b in itertools.product((0, 1), repeat=2):
        assert _run(gs, pairs, [a], [b]) == [a ^ b]


def test_identity_passthrough():
    c = Circuit(n_wires=1, inputs_a=(0,), inputs_b=(), gates=(), outputs=(0,))
    gs, pairs = _garble(c, 2)
    lab = gs.encode([1])
    out = evaluate(gs.gc, lab, _chosen(pairs, []), 0)
    assert np.array_equal(out, lab)
    assert decode_output(out, gs.output_decode) == [1]


def _input_pairs(gs, pairs):
    """(label0, label1) of every input wire, minuend wires first."""
    zeros = [0] * len(gs.gc.circuit.inputs_a)
    minuend = np.stack([gs.encode(zeros), gs.encode([1 for _ in zeros])], axis=1)
    return np.concatenate([minuend, pairs])


def test_free_xor_invariant_structural():
    c = build_sub_msb_batch(6, 1)
    gs, pairs = _garble(c, 3)
    delta = gs.delta.tobytes()
    # every other wire's label1 is its label0 ^ delta by construction
    assert gs.delta[0] & 1 == 1
    for l0, l1 in _input_pairs(gs, pairs):
        assert (l0 ^ l1).tobytes() == delta
        # permute bits of the two labels always differ
        assert (l0[0] ^ l1[0]) & 1 == 1


def test_sub_msb_garbled_exhaustive_small():
    for width in (2, 3, 4):
        c = build_sub_msb_batch(width, 1)
        gs, pairs = _garble(c, width)
        for a in range(1 << width):
            for b in range(1 << width):
                got = _run(gs, pairs, int_to_bits(a, width), int_to_bits(b, width))
                expect = 1 if ((a - b) % (1 << width)) >= (1 << (width - 1)) else 0
                assert got == [expect]


def test_garbled_decodes_like_plain_circuit():
    width = 8
    c = build_sub_msb_batch(width, 1)
    rng = random.Random(17)
    cases = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(64)]
    gs, pairs = _garble(c, 5)
    for a, b in cases:
        a_bits, b_bits = int_to_bits(a, width), int_to_bits(b, width)
        assert _run(gs, pairs, a_bits, b_bits) == c.evaluate_plain(a_bits, b_bits)


def test_regarble_new_seed_same_outputs_different_tables():
    c = build_sub_msb_batch(5, 1)
    gs1, pairs1 = _garble(c, 7)
    gs2, pairs2 = _garble(c, 8)
    assert gs1.gc.and_tables != gs2.gc.and_tables
    for a, b in ((0, 0), (3, 9), (31, 30), (16, 16)):
        assert _run(gs1, pairs1, int_to_bits(a, 5), int_to_bits(b, 5)) == \
            _run(gs2, pairs2, int_to_bits(a, 5), int_to_bits(b, 5))


def test_corrupted_table_raises_auth_failure():
    gs, pairs = _garble(single_and_circuit(), 9)
    # flip byte 3 of both rows
    tables = bytearray(gs.gc.and_tables)
    for off in (3, 16 + 3):
        tables[off] ^= 0xFF
    gs.gc.and_tables = bytes(tables)
    failures = 0
    for a, b in itertools.product((0, 1), repeat=2):
        try:
            _run(gs, pairs, [a], [b])
        except GarbledRowAuthFailure:
            failures += 1
    assert failures >= 1


def test_decode_unknown_label():
    gs, _ = _garble(single_and_circuit(), 10)
    zero = np.zeros((1, 16), dtype=np.uint8)
    with pytest.raises(UnknownLabel):
        decode_output(zero, gs.output_decode)


def test_decode_wrong_label_count():
    gs, _ = _garble(build_sub_msb_batch(4, 3), 10)
    labels = gs.output_decode[:, 0]
    assert decode_output(labels, gs.output_decode) == [0, 0, 0]
    for wrong in (labels[:1], np.concatenate([labels, labels[:1]])):
        with pytest.raises(GCEvaluationFailure):
            decode_output(wrong, gs.output_decode)


def test_encode_wrong_bit_count():
    gs, _ = _garble(build_sub_msb_batch(4, 3), 10)
    wires = gs.gc.circuit.inputs_a
    bits = [1] * len(wires)
    assert gs.encode(bits).shape == (len(wires), 16)
    for wrong in (bits[:-1], bits + [1]):  # one bit too few, one too many
        with pytest.raises(GCEvaluationFailure):
            gs.encode(wrong)


def test_evaluator_circuit_holds_no_garbler_secret():
    # what the evaluator receives has no field for delta, input labels or
    # the decode map; those live only on the garbler's side
    gs, _ = _garble(build_sub_msb_batch(4, 3), 10)
    assert [f.name for f in dataclasses.fields(GarbledCircuit)] == \
        ["circuit", "and_tables", "output_check"]
    assert set(vars(gs.gc)) == {"circuit", "and_tables", "output_check"}
    assert type(gs.gc.and_tables) is bytes


def test_evaluate_rejects_malformed_inputs():
    gs, pairs = _garble(single_and_circuit(), 12)
    view = gs.gc
    ga, ev = gs.encode([1]), _chosen(pairs, [1])
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, ga, ev[:, :15], 0)  # short label
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, ga, ev[:0], 0)  # missing label
    view.and_tables = view.and_tables[:-1]
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, ga, ev, 0)  # table bytes do not fit the circuit


def test_tables_round_trip_bytes():
    c = build_sub_msb_batch(6, 1)
    tables = _garble(c, 11)[0].gc.and_tables
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
    gs, pairs = _garble(c, 20)
    for a0, a1, b0 in itertools.product((0, 1), repeat=3):
        got = _run(gs, pairs, [a0, a1], [b0])
        v5 = ((a0 ^ 1) ^ a1) & b0
        assert got == [v5, v5 ^ 1]


def test_sub_msb_garbled_wide_random():
    rng = random.Random(12)
    for width in (16, 25, 32):
        c = build_sub_msb_batch(width, 1)
        gs, pairs = _garble(c, width * 3)
        for _ in range(60):
            a = rng.getrandbits(width)
            b = rng.getrandbits(width)
            got = _run(gs, pairs, int_to_bits(a, width), int_to_bits(b, width))
            expect = 1 if ((a - b) % (1 << width)) >= (1 << (width - 1)) else 0
            assert got == [expect]


def test_consecutive_indices_under_one_delta_use_disjoint_tweaks(monkeypatch):
    # a run garbles one circuit per round under one delta: circuit 1 takes
    # none of circuit 0's tweaks, two per AND gate and one per output wire,
    # and each evaluates only at its own index
    c = build_sub_msb_batch(5, 2)
    rng = random.Random(30)
    delta = garbling.random_delta(rng)
    hash1, tweaks = garbling._hash1, []
    monkeypatch.setattr(garbling, "_hash1",
                        lambda label, tweak: tweaks.append(tweak) or hash1(label, tweak))
    rounds = []
    for index in (0, 1):
        tweaks.clear()
        label0_b = garbling.random_labels(rng, len(c.inputs_b))
        gs = garble(c, rng, delta, label0_b, index)
        assert len(set(tweaks)) == 2 * c.and_count + len(c.outputs)
        rounds.append((gs, np.stack([label0_b, label0_b ^ delta], axis=1), set(tweaks)))
    assert rounds[0][2].isdisjoint(rounds[1][2])
    monkeypatch.setattr(garbling, "_hash1", hash1)
    a_bits, b_bits = int_to_bits(9, 5) * 2, int_to_bits(22, 5) * 2
    for index, (gs, pairs, _) in enumerate(rounds):
        assert np.array_equal(gs.delta, delta)
        assert _run(gs, pairs, a_bits, b_bits, index) == c.evaluate_plain(a_bits, b_bits)
        with pytest.raises(GarbledRowAuthFailure):
            _run(gs, pairs, a_bits, b_bits, 1 - index)


# SHA-256 of the AND tables, of the output checks and of every input wire's
# (label0, label1) pair, for _garble(build_sub_msb_batch(17, 4), 5). The
# table hash was first recorded from the byte-label implementation, and
# re-recorded when delta and the subtrahend 0-labels became garble's
# inputs and the output checks' tweaks moved to 2^31 + output index.
GARBLE_GOLDEN = ("4d9c16f0a31fec26bc6093048d7164a9a09f66ca7bb68d165fa2981b05c87df8",
                 "e02421fbb9f4ed802a70941557318c457a42aca5a9e382f82d35a232ff1005e4",
                 "d025995bed307df2691ce7e1406b80d33b4d8d754a44b622d61e9613bc5f3b58")


def test_garbled_bytes_known_answer():
    c = build_sub_msb_batch(17, 4)
    gs, pairs = _garble(c, 5)
    assert (hashlib.sha256(gs.gc.and_tables).hexdigest(),
            hashlib.sha256(gs.gc.output_check.tobytes()).hexdigest(),
            hashlib.sha256(_input_pairs(gs, pairs).tobytes()).hexdigest()) == GARBLE_GOLDEN
