"""Garbling engine: free-XOR, point-and-permute, half-gates AND tables.

Inside this module a label is a 128-bit int; wherever it leaves the module
(input labels, tables, output labels, the decode map) it is the 16-byte
little-endian encoding of that int. The permute bit is the label's least
significant bit. For every wire label1 = label0 XOR delta, with delta odd so
the two labels' permute bits differ. The gate cipher is keyed BLAKE2s over
the label bytes followed by the 8-byte little-endian tweak. Every AND gate is
a half-gates pair of rows (Zahur, Rosulek and Evans, EUROCRYPT 2015); XOR and
NOT gates are free.

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


def _check_hash(label: int, output_index: int) -> bytes:
    """The output-check entry of `label` on output wire `output_index`."""
    return _hash1(label, _OUT_DOMAIN + output_index).to_bytes(LABEL_BYTES, "little")


def _from_bytes(label: bytes) -> int:
    if len(label) != LABEL_BYTES:
        raise GCEvaluationFailure(f"label has {len(label)} bytes, expected {LABEL_BYTES}")
    return int.from_bytes(label, "little")


@dataclass
class GarbledCircuit:
    circuit: Circuit
    and_tables: list          # per AND gate, its (tg, te) rows as 128-bit ints
    output_check: list        # per output wire, (hash for lsb 0, hash for lsb 1)
    # garbler-side secrets; stripped from the evaluator's view
    delta: int | None = None
    wire_label0: list | None = None    # per wire number, its 0-label
    output_decode: list | None = None  # per output wire, (label0, label1) bytes

    def encode(self, wires, bits) -> list:
        """The label of each wire for its bit, as bytes."""
        if self.wire_label0 is None:
            raise GCEvaluationFailure("input labels are garbler-side only")
        if len(wires) != len(bits):
            raise GCEvaluationFailure(f"{len(bits)} bits for {len(wires)} wires")
        label0, delta = self.wire_label0, self.delta
        return [(label0[w] ^ delta if bit else label0[w]).to_bytes(LABEL_BYTES, "little")
                for w, bit in zip(wires, bits)]

    def label_pairs(self, wires) -> list:
        """(label0, label1) per wire, as bytes: the garbler's OT inputs."""
        if self.wire_label0 is None:
            raise GCEvaluationFailure("input labels are garbler-side only")
        label0, delta = self.wire_label0, self.delta
        return [(label0[w].to_bytes(LABEL_BYTES, "little"),
                 (label0[w] ^ delta).to_bytes(LABEL_BYTES, "little")) for w in wires]

    def tables_bytes(self) -> bytes:
        return b"".join([row.to_bytes(LABEL_BYTES, "little")
                         for rows in self.and_tables for row in rows])


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
        pair = [b"", b""]
        pair[l0 & 1] = _check_hash(l0, idx)
        pair[l1 & 1] = _check_hash(l1, idx)
        check.append(tuple(pair))
        decode.append((l0.to_bytes(LABEL_BYTES, "little"),
                       l1.to_bytes(LABEL_BYTES, "little")))

    return GarbledCircuit(circuit=circuit, and_tables=tables,
                          output_check=check, delta=delta, wire_label0=label0,
                          output_decode=decode)


def evaluator_view(gc: GarbledCircuit) -> GarbledCircuit:
    """The shippable half: tables and output checks, no secrets."""
    return GarbledCircuit(circuit=gc.circuit, and_tables=gc.and_tables,
                          output_check=gc.output_check)


def tables_from_bytes(circuit: Circuit, buf: bytes) -> list:
    expect = circuit.and_count * 2 * LABEL_BYTES
    if len(buf) != expect:
        raise GCEvaluationFailure(f"table blob has {len(buf)} bytes, expected {expect}")
    rows = iter([int.from_bytes(buf[off:off + LABEL_BYTES], "little")
                 for off in range(0, expect, LABEL_BYTES)])
    return list(zip(rows, rows))  # consecutive row pairs, per gate


def evaluate(gc: GarbledCircuit, evaluator_labels, garbler_labels) -> list:
    """Run the garbled circuit on one label per input wire.

    Both label maps take wire numbers to 16-byte labels. Returns one output
    label per output wire; the evaluator cannot decode them without the
    garbler's decode map.
    """
    circuit = gc.circuit
    labels = [0] * circuit.n_wires
    missing = []
    for w in circuit.all_inputs():
        lab = evaluator_labels.get(w, garbler_labels.get(w))
        if lab is None:
            missing.append(w)
        else:
            labels[w] = _from_bytes(lab)
    if missing:
        raise GCEvaluationFailure(f"missing labels for input wires {missing[:8]}")
    tables = gc.and_tables
    if len(tables) != circuit.and_count or len(gc.output_check) != len(circuit.outputs):
        raise GCEvaluationFailure(f"{len(tables)} tables and {len(gc.output_check)} "
                                  f"output checks do not fit the circuit")

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

    out = []
    for idx, o in enumerate(circuit.outputs):
        lab = labels[o]
        if _check_hash(lab, idx) != gc.output_check[idx][lab & 1]:
            raise GarbledRowAuthFailure(f"output wire {o}: no clean decryption")
        out.append(lab.to_bytes(LABEL_BYTES, "little"))
    return out


def decode_output(labels, decode_map) -> list:
    """Garbler-side mapping from output labels to bits."""
    if decode_map is None:
        raise UnknownLabel("decode map withheld")
    if len(labels) != len(decode_map):
        raise GCEvaluationFailure(f"{len(labels)} output labels for "
                                  f"{len(decode_map)} output wires")
    bits = []
    for lab, (l0, l1) in zip(labels, decode_map):
        if lab == l0:
            bits.append(0)
        elif lab == l1:
            bits.append(1)
        else:
            raise UnknownLabel("label matches neither decode entry")
    return bits
