"""Garbling engine: free-XOR, point-and-permute, half-gates AND tables.

Inside this module a label is a 128-bit int; wherever labels leave it, a
batch of them is one uint8 array of 16-byte little-endian labels, (count,
16) or, for pairs, (count, 2, 16), and the AND tables leave it as bytes.
The permute bit is the label's least significant bit. For every wire
label1 = label0 XOR delta, with delta odd so the two labels' permute bits
differ. The gate cipher is keyed BLAKE2s over the label bytes followed by
the 8-byte little-endian tweak. Every AND gate is a half-gates pair of rows
(Zahur, Rosulek and Evans, EUROCRYPT 2015); XOR and NOT gates are free.

The garbler encodes its bits on the minuend wires `inputs_a` (`encode`) and
hands the subtrahend wires' label pairs to OT (`label_pairs`); `evaluate`
takes both label arrays in wire order.

Both garbling and evaluation unpack the circuit's gates as (kind, a, b,
out) tuples and keep labels in a list indexed by wire number.

Corruption detection: the garbler ships, per output wire, the hashes of both
output labels ordered by permute bit. The evaluator checks its computed
label against the entry selected by that label's own permute bit, which
reveals nothing it does not already know.
"""

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from .circuits import NOT, XOR, Circuit
from .errors import GarbledRowAuthFailure, GCEvaluationFailure, UnknownLabel

LABEL_BYTES = 16

_LABEL_BITS = 8 * LABEL_BYTES
_GATE_KEY = b"blindboost-gc-v1"
_OUT_DOMAIN = (1 << 48)
# keyed once; each hash copies this state, so the key block is not rehashed
_GATE_HASH = hashlib.blake2s(key=_GATE_KEY, digest_size=LABEL_BYTES)


def _hash1(label: int, tweak: int) -> int:
    """H(label bytes || 8-byte tweak), read back as a label."""
    h = _GATE_HASH.copy()
    h.update((label | tweak << _LABEL_BITS).to_bytes(LABEL_BYTES + 8, "little"))
    return int.from_bytes(h.digest(), "little")


def _ints(blob: bytes) -> list:
    """The consecutive 16-byte labels of `blob`, as ints."""
    return [int.from_bytes(blob[off:off + LABEL_BYTES], "little")
            for off in range(0, len(blob), LABEL_BYTES)]


def _array(labels, pairs: bool = False) -> np.ndarray:
    """Int labels as a (count, 16) array, or as (count, 2, 16) pairs."""
    blob = b"".join([x.to_bytes(LABEL_BYTES, "little") for x in labels])
    shape = (-1, 2, LABEL_BYTES) if pairs else (-1, LABEL_BYTES)
    return np.frombuffer(blob, dtype=np.uint8).reshape(shape)


@dataclass
class GarbledCircuit:
    circuit: Circuit
    and_tables: list          # per AND gate, its (tg, te) rows as 128-bit ints
    output_check: np.ndarray  # per output wire, (hash for lsb 0, hash for lsb 1)
    # garbler-side secrets; stripped from the evaluator's view
    delta: int | None = None
    wire_label0: list | None = None          # per wire number, its 0-label
    output_decode: np.ndarray | None = None  # per output wire, (label0, label1)

    def encode(self, bits) -> np.ndarray:
        """The label of each minuend wire for its bit."""
        if self.wire_label0 is None:
            raise GCEvaluationFailure("input labels are garbler-side only")
        wires = self.circuit.inputs_a
        if len(wires) != len(bits):
            raise GCEvaluationFailure(f"{len(bits)} bits for {len(wires)} wires")
        label0, delta = self.wire_label0, self.delta
        return _array([label0[w] ^ delta if bit else label0[w]
                       for w, bit in zip(wires, bits)])

    def label_pairs(self) -> np.ndarray:
        """(label0, label1) per subtrahend wire: the garbler's OT inputs."""
        if self.wire_label0 is None:
            raise GCEvaluationFailure("input labels are garbler-side only")
        label0, delta = self.wire_label0, self.delta
        return _array([x for w in self.circuit.inputs_b
                       for x in (label0[w], label0[w] ^ delta)], pairs=True)

    def tables_bytes(self) -> bytes:
        # appended row by row: a list of every row's bytes would, for a
        # moment, take several times the blob's memory
        out = bytearray()
        for tg, te in self.and_tables:
            out += tg.to_bytes(LABEL_BYTES, "little")
            out += te.to_bytes(LABEL_BYTES, "little")
        return bytes(out)


def garble(circuit: Circuit, rng: random.Random) -> GarbledCircuit:
    delta = rng.getrandbits(_LABEL_BITS) | 1

    label0 = [0] * circuit.n_wires
    for w in circuit.all_inputs():
        label0[w] = rng.getrandbits(_LABEL_BITS)

    tables = []
    and_index = 0
    for kind, a, b, out in circuit.gates:
        if kind == XOR:
            label0[out] = label0[a] ^ label0[b]
        elif kind == NOT:
            label0[out] = label0[a] ^ delta
        else:
            a0, b0 = label0[a], label0[b]
            j0, j1 = 2 * and_index, 2 * and_index + 1
            ha0 = _hash1(a0, j0)
            tg = ha0 ^ _hash1(a0 ^ delta, j0)
            if b0 & 1:
                tg ^= delta
            wg = ha0 ^ tg if a0 & 1 else ha0
            hb0 = _hash1(b0, j1)
            te = hb0 ^ _hash1(b0 ^ delta, j1) ^ a0
            we = hb0 ^ te ^ a0 if b0 & 1 else hb0
            label0[out] = wg ^ we
            tables.append((tg, te))
            and_index += 1

    check = []
    decode = []
    for idx, o in enumerate(circuit.outputs):
        l0 = label0[o]
        l1 = l0 ^ delta
        h0, h1 = _hash1(l0, _OUT_DOMAIN + idx), _hash1(l1, _OUT_DOMAIN + idx)
        check += (h1, h0) if l0 & 1 else (h0, h1)
        decode += (l0, l1)

    return GarbledCircuit(circuit=circuit, and_tables=tables,
                          output_check=_array(check, pairs=True), delta=delta,
                          wire_label0=label0, output_decode=_array(decode, pairs=True))


def evaluator_view(gc: GarbledCircuit) -> GarbledCircuit:
    """The shippable half: tables and output checks, no secrets."""
    return GarbledCircuit(circuit=gc.circuit, and_tables=gc.and_tables,
                          output_check=gc.output_check)


def tables_from_bytes(circuit: Circuit, buf: bytes) -> list:
    expect = circuit.and_count * 2 * LABEL_BYTES
    if len(buf) != expect:
        raise GCEvaluationFailure(f"table blob has {len(buf)} bytes, expected {expect}")
    rows = iter(_ints(buf))
    return list(zip(rows, rows))  # consecutive row pairs, per gate


def evaluate(gc: GarbledCircuit, labels_a: np.ndarray, labels_b: np.ndarray) -> np.ndarray:
    """Run the garbled circuit on the labels of the minuend wires and of the
    subtrahend wires, each a (wires, 16) array in wire order.

    Returns one output label per output wire; the evaluator cannot decode
    them without the garbler's decode map.
    """
    circuit = gc.circuit
    for given, wires in ((labels_a, circuit.inputs_a), (labels_b, circuit.inputs_b)):
        if given.shape != (len(wires), LABEL_BYTES):
            raise GCEvaluationFailure(f"{given.shape} labels for {len(wires)} input wires")
    tables = gc.and_tables
    if len(tables) != circuit.and_count or len(gc.output_check) != len(circuit.outputs):
        raise GCEvaluationFailure(f"{len(tables)} tables and {len(gc.output_check)} "
                                  f"output checks do not fit the circuit")
    labels = [0] * circuit.n_wires
    for w, lab in zip(circuit.all_inputs(), _ints(labels_a.tobytes() + labels_b.tobytes())):
        labels[w] = lab

    and_index = 0
    for kind, a, b, out in circuit.gates:
        if kind == XOR:
            labels[out] = labels[a] ^ labels[b]
        elif kind == NOT:
            labels[out] = labels[a]
        else:
            la, lb = labels[a], labels[b]
            tg, te = tables[and_index]
            wg = _hash1(la, 2 * and_index)
            if la & 1:
                wg ^= tg
            we = _hash1(lb, 2 * and_index + 1)
            if lb & 1:
                we ^= te ^ la
            labels[out] = wg ^ we
            and_index += 1

    checks = _ints(gc.output_check.tobytes())
    out = [labels[o] for o in circuit.outputs]
    for idx, (o, lab) in enumerate(zip(circuit.outputs, out)):
        if _hash1(lab, _OUT_DOMAIN + idx) != checks[2 * idx + (lab & 1)]:
            raise GarbledRowAuthFailure(f"output wire {o}: no clean decryption")
    return _array(out)


def decode_output(labels: np.ndarray, decode_map: np.ndarray | None) -> list:
    """Garbler-side mapping from output labels to bits."""
    if decode_map is None:
        raise UnknownLabel("decode map withheld")
    if labels.shape != (len(decode_map), LABEL_BYTES):
        raise GCEvaluationFailure(f"{labels.shape} output labels for "
                                  f"{len(decode_map)} output wires")
    is0 = (labels == decode_map[:, 0]).all(axis=1)
    is1 = (labels == decode_map[:, 1]).all(axis=1)
    if not (is0 | is1).all():
        raise UnknownLabel("label matches neither decode entry")
    return is1.astype(np.uint8).tolist()
