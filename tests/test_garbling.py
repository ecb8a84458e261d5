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
    record_bits,
)
from blindboost.errors import GCEvaluationFailure, UnknownLabel
from blindboost.garbling import (
    GarbledCircuit,
    decode_output,
    evaluate,
    garble,
    tables_from_bytes,
)


def _garble(circuit, seed, a_bits):
    """garble the minuend bits `a_bits` under delta and the subtrahend
    0-labels drawn from Random(seed), as dealer OT draws them; returns the
    garbler's side and the subtrahend wires' (label0, label1) pairs."""
    rng = random.Random(seed)
    delta = garbling.random_delta(rng)
    label0_b = garbling.random_labels(rng, len(circuit.inputs_b))
    gs = garble(circuit, a_bits, delta, label0_b, 0)
    return gs, np.stack([label0_b, label0_b ^ delta], axis=1)


def _chosen(pairs, b_bits):
    """The subtrahend labels of `b_bits`: label b_bits[i] of pair i."""
    return pairs[np.arange(len(pairs)), np.asarray(b_bits, dtype=np.intp)]


def _run(gs, pairs, b_bits, index=0):
    out = evaluate(gs.gc, _chosen(pairs, b_bits), index)
    return decode_output(out, gs.output_decode)


def _garbled_run(circuit, seed, a_bits, b_bits):
    """Garble `a_bits` on Random(seed), evaluate on `b_bits` and decode."""
    return _run(*_garble(circuit, seed, a_bits), b_bits)


def single_and_circuit():
    return Circuit(n_wires=3, inputs_a=(0,), inputs_b=(1,),
                   gates=((AND, 0, 1, 2),), outputs=(2,))


def single_xor_circuit():
    return Circuit(n_wires=3, inputs_a=(0,), inputs_b=(1,),
                   gates=(("XOR", 0, 1, 2),), outputs=(2,))


def test_and_gate_truth_table():
    for a, b in itertools.product((0, 1), repeat=2):
        assert _garbled_run(single_and_circuit(), 0, [a], [b]) == [a & b]


def test_xor_circuit_emits_no_tables():
    for a, b in itertools.product((0, 1), repeat=2):
        gs, pairs = _garble(single_xor_circuit(), 1, [a])
        assert gs.gc.and_tables == b""
        assert _run(gs, pairs, [b]) == [a ^ b]


def test_identity_passthrough():
    # the garbler's input wire is the output: the evaluator holds its
    # all-zero label, and only the decode map gives the bit
    c = Circuit(n_wires=1, inputs_a=(0,), inputs_b=(), gates=(), outputs=(0,))
    for bit in (0, 1):
        gs, pairs = _garble(c, 2, [bit])
        out = evaluate(gs.gc, _chosen(pairs, []), 0)
        assert not out.any()
        assert decode_output(out, gs.output_decode) == [bit]


def _input_pairs(gs, pairs, a_bits):
    """(label0, label1) of every input wire, minuend wires first: a minuend
    wire's pair is (0, delta) for bit 0 and (delta, 0) for bit 1."""
    zero = np.zeros_like(gs.delta)
    minuend = np.array([(gs.delta, zero) if bit else (zero, gs.delta) for bit in a_bits])
    return np.concatenate([minuend, pairs])


def test_free_xor_invariant_structural():
    c = build_sub_msb_batch(6, 1)
    a_bits = int_to_bits(37, 6)
    gs, pairs = _garble(c, 3, a_bits)
    delta = gs.delta.tobytes()
    # every other wire's label1 is its label0 ^ delta by construction
    assert gs.delta[0] & 1 == 1
    for l0, l1 in _input_pairs(gs, pairs, a_bits):
        assert (l0 ^ l1).tobytes() == delta
        # permute bits of the two labels always differ
        assert (l0[0] ^ l1[0]) & 1 == 1


def test_sub_msb_garbled_exhaustive_small():
    for width in (2, 3, 4):
        c = build_sub_msb_batch(width, 1)
        for a in range(1 << width):
            gs, pairs = _garble(c, width, int_to_bits(a, width))
            for b in range(1 << width):
                got = _run(gs, pairs, int_to_bits(b, width))
                expect = 1 if ((a - b) % (1 << width)) >= (1 << (width - 1)) else 0
                assert got == [expect]


def test_garbled_decodes_like_plain_circuit():
    width = 8
    c = build_sub_msb_batch(width, 1)
    rng = random.Random(17)
    cases = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(64)]
    for a, b in cases:
        a_bits, b_bits = int_to_bits(a, width), int_to_bits(b, width)
        assert _garbled_run(c, 5, a_bits, b_bits) == c.evaluate_plain(a_bits, b_bits)


def test_regarble_new_seed_same_outputs_different_tables():
    c = build_sub_msb_batch(5, 1)
    for a, b in ((0, 0), (3, 9), (31, 30), (16, 16)):
        a_bits, b_bits = int_to_bits(a, 5), int_to_bits(b, 5)
        gs1, pairs1 = _garble(c, 7, a_bits)
        gs2, pairs2 = _garble(c, 8, a_bits)
        assert gs1.gc.and_tables != gs2.gc.and_tables
        assert _run(gs1, pairs1, b_bits) == _run(gs2, pairs2, b_bits)


def test_flipping_a_garbler_bit_changes_the_output_not_the_evaluator_inputs():
    # the garbler's bits live only in its 0-labels: the evaluator's inputs
    # to evaluate, its OT labels and no minuend label at all, are the same
    # bytes whichever bits the garbler holds, yet the output follows them
    width = 8
    c = build_sub_msb_batch(width, 1)
    a, b = 100, 37  # a - b = 63: msb 0; with a's bit 7 flipped, 191: msb 1
    b_bits = int_to_bits(b, width)
    flipped = int_to_bits(a, width)
    flipped[7] ^= 1
    runs = []
    for a_bits in (int_to_bits(a, width), flipped):
        gs, pairs = _garble(c, 13, a_bits)
        labels_b = _chosen(pairs, b_bits)
        runs.append((labels_b.tobytes(), decode_output(evaluate(gs.gc, labels_b, 0),
                                                        gs.output_decode)))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == c.evaluate_plain(int_to_bits(a, width), b_bits) == [0]
    assert runs[1][1] == c.evaluate_plain(flipped, b_bits) == [1]


def test_corrupted_table_raises_auth_failure():
    # the AND gate's first input is the garbler's, so its one row is te;
    # the evaluator reads it on the one of b's labels with permute bit 1,
    # and the garbler's decode then finds a label that is neither of the
    # output's two
    failures = 0
    for a, b in itertools.product((0, 1), repeat=2):
        gs, pairs = _garble(single_and_circuit(), 9, [a])
        assert len(gs.gc.and_tables) == 16
        gs.gc.and_tables = bytes([gs.gc.and_tables[0] ^ 0xFF]) + gs.gc.and_tables[1:]
        out = evaluate(gs.gc, _chosen(pairs, [b]), 0)
        try:
            bits = decode_output(out, gs.output_decode)
        except UnknownLabel as exc:
            assert "output 0 of 1" in str(exc) and "corrupted or replayed" in str(exc)
            failures += 1
            continue
        assert bits == [a & b]
    assert failures == 2


def test_table_flips_decode_right_or_raise_unknown_label():
    # one flipped bit in every byte of the tables in turn, on every input
    # pair: the garbler decodes the plain circuit's bits or raises
    # UnknownLabel, never a wrong bit
    width = 3
    c = build_sub_msb_batch(width, 1, (0, 1))
    raised = 0
    for a in range(1 << width):
        a_bits = int_to_bits(a, width)
        gs, pairs = _garble(c, 40 + a, a_bits)
        tables = gs.gc.and_tables
        assert len(tables) == 16 * (2 * c.and_count - 1)
        for off in range(len(tables)):
            flipped = bytearray(tables)
            flipped[off] ^= 1 << off % 8
            gc = GarbledCircuit(circuit=c, and_tables=bytes(flipped))
            for b in range(1 << width):
                b_bits = int_to_bits(b, width)
                out = evaluate(gc, _chosen(pairs, b_bits), 0)
                try:
                    bits = decode_output(out, gs.output_decode)
                except UnknownLabel:
                    raised += 1
                    continue
                assert bits == c.evaluate_plain(a_bits, b_bits)
    assert raised > 0


def test_decode_unknown_label():
    gs, _ = _garble(single_and_circuit(), 10, [1])
    zero = np.zeros((1, 16), dtype=np.uint8)
    with pytest.raises(UnknownLabel):
        decode_output(zero, gs.output_decode)


def test_decode_wrong_label_count():
    gs, _ = _garble(build_sub_msb_batch(4, 3), 10, [0] * 12)
    labels = gs.output_decode[:, 0]
    assert decode_output(labels, gs.output_decode) == [0, 0, 0]
    for wrong in (labels[:1], np.concatenate([labels, labels[:1]])):
        with pytest.raises(GCEvaluationFailure):
            decode_output(wrong, gs.output_decode)


def test_garble_wrong_bit_count():
    c = build_sub_msb_batch(4, 3)
    bits = [1] * len(c.inputs_a)
    assert len(_garble(c, 10, bits)[0].output_decode) == 3
    for wrong in (bits[:-1], bits + [1]):  # one bit too few, one too many
        with pytest.raises(GCEvaluationFailure):
            _garble(c, 10, wrong)


def test_evaluator_circuit_holds_no_garbler_secret():
    # what the evaluator receives has no field for delta, input labels or
    # the decode map; those live only on the garbler's side
    gs, _ = _garble(build_sub_msb_batch(4, 3), 10, [0] * 12)
    assert [f.name for f in dataclasses.fields(GarbledCircuit)] == \
        ["circuit", "and_tables"]
    assert set(vars(gs.gc)) == {"circuit", "and_tables"}
    assert type(gs.gc.and_tables) is bytes


def test_evaluate_rejects_malformed_inputs():
    gs, pairs = _garble(single_and_circuit(), 12, [1])
    view = gs.gc
    ev = _chosen(pairs, [1])
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, ev[:, :15], 0)  # short label
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, ev[:0], 0)  # missing label
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, np.concatenate([ev, ev]), 0)  # a label for a minuend wire too
    view.and_tables = view.and_tables[:-1]
    with pytest.raises(GCEvaluationFailure):
        evaluate(view, ev, 0)  # table bytes do not fit the circuit


def test_tables_round_trip_bytes():
    c = build_sub_msb_batch(6, 1)
    tables = _garble(c, 11, [0] * 6)[0].gc.and_tables
    # two rows per AND gate but the first, AND(NOT a_0, b_0), which ships te alone
    assert c.te_only == {0}
    assert len(tables) == (c.and_count * 2 - 1) * 16
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
    for a0, a1, b0 in itertools.product((0, 1), repeat=3):
        got = _garbled_run(c, 20, [a0, a1], [b0])
        v5 = ((a0 ^ 1) ^ a1) & b0
        assert got == [v5, v5 ^ 1]


def test_te_only_gates_exhaustive():
    # ANDs 0 and 1 ship te alone, and AND 2's first input, an AND of the
    # garbler's wires, is a wire with two rows
    c = Circuit(n_wires=8, inputs_a=(0, 1), inputs_b=(2,),
                gates=(("XOR", 0, 1, 3), ("NOT", 3, -1, 4), (AND, 4, 2, 5),
                       (AND, 0, 1, 6), (AND, 6, 2, 7)), outputs=(5, 7))
    for a0, a1, b0 in itertools.product((0, 1), repeat=3):
        gs, pairs = _garble(c, 21, [a0, a1])
        assert len(gs.gc.and_tables) == 4 * 16
        assert _run(gs, pairs, [b0]) == [(a0 ^ a1 ^ 1) & b0, a0 & a1 & b0]


def test_sub_msb_garbled_wide_random():
    rng = random.Random(12)
    for width in (16, 25, 32):
        c = build_sub_msb_batch(width, 1)
        for _ in range(60):
            a = rng.getrandbits(width)
            b = rng.getrandbits(width)
            got = _garbled_run(c, width * 3, int_to_bits(a, width), int_to_bits(b, width))
            expect = 1 if ((a - b) % (1 << width)) >= (1 << (width - 1)) else 0
            assert got == [expect]


def test_consecutive_indices_under_one_delta_use_disjoint_tweaks(monkeypatch):
    # a run garbles one circuit per round under one delta: circuit 1 takes
    # none of circuit 0's tweaks, two per AND gate, and each evaluates only
    # at its own index: at the other, the garbler's decode rejects its
    # output labels
    c = build_sub_msb_batch(5, 2)
    rng = random.Random(30)
    delta = garbling.random_delta(rng)
    a_bits, b_bits = int_to_bits(9, 5) * 2, int_to_bits(22, 5) * 2
    hash1, tweaks = garbling._hash1, []
    monkeypatch.setattr(garbling, "_hash1",
                        lambda label, tweak: tweaks.append(tweak) or hash1(label, tweak))
    rounds = []
    for index in (0, 1):
        tweaks.clear()
        label0_b = garbling.random_labels(rng, len(c.inputs_b))
        gs = garble(c, a_bits, delta, label0_b, index)
        assert len(set(tweaks)) == 2 * c.and_count
        rounds.append((gs, np.stack([label0_b, label0_b ^ delta], axis=1), set(tweaks)))
    assert rounds[0][2].isdisjoint(rounds[1][2])
    monkeypatch.setattr(garbling, "_hash1", hash1)
    for index, (gs, pairs, _) in enumerate(rounds):
        assert np.array_equal(gs.delta, delta)
        assert _run(gs, pairs, b_bits, index) == c.evaluate_plain(a_bits, b_bits)
        out = evaluate(gs.gc, _chosen(pairs, b_bits), 1 - index)
        with pytest.raises(UnknownLabel, match="corrupted or replayed"):
            decode_output(out, gs.output_decode)


# SHA-256 of the AND tables and of every input wire's (label0, label1)
# pair, for _garble(build_sub_msb_batch(17, 4), 5, _GOLDEN_BITS). The table
# hash was first recorded from the byte-label implementation, and
# re-recorded when delta and the subtrahend 0-labels became garble's
# inputs, when the minuend 0-labels became bit * delta (so the pairs hash
# covers the subtrahend pairs and the {0, delta} minuend pairs), and when
# each record's first AND gate stopped shipping its unread tg row: the
# tables are the earlier ones with those four rows cut out.
_GOLDEN_BITS = record_bits([70_001, 3, 131_071, 65_536], 17)
GARBLE_GOLDEN = ("fa9c20865abbed62dfd95e237f086178b72f5a036b25f835edc4f83f4a12488b",
                 "c8a1c3e6bd7ca5c584594f89249f3a8d0c05f7865eb05441fb8577053406639b")


def test_garbled_bytes_known_answer():
    c = build_sub_msb_batch(17, 4)
    gs, pairs = _garble(c, 5, _GOLDEN_BITS)
    assert (hashlib.sha256(gs.gc.and_tables).hexdigest(),
            hashlib.sha256(_input_pairs(gs, pairs, _GOLDEN_BITS).tobytes()).hexdigest()) \
        == GARBLE_GOLDEN
