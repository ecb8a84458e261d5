"""Garbling engine: free-XOR, point-and-permute, half-gates AND tables.

Inside this module a label is a 128-bit int; wherever labels leave it, a
batch of them is one uint8 array of 16-byte little-endian labels, (count,
16) or, for pairs, (count, 2, 16). The permute bit is the label's least
significant bit. For every wire label1 = label0 XOR delta, with delta odd
so the two labels' permute bits differ. The gate cipher is keyed BLAKE2s
over the label bytes followed by the 8-byte little-endian tweak. Every AND
gate is a half-gates pair of rows (Zahur, Rosulek and Evans, EUROCRYPT
2015), and the AND tables are one bytes object from garbling to
evaluation: two 16-byte rows (tg, then te) per AND gate, in gate order.
XOR and NOT gates are free.

`garble` takes the garbler's bits on the minuend wires `inputs_a`, delta,
which spans every circuit of a run, and the subtrahend wires' 0-labels from
the OT that delivers the evaluator's labels. It returns the garbler's side,
`GarblerSecrets`: delta, the output decode map and the `GarbledCircuit` it
ships (circuit, tables, output checks), all the evaluator holds. `evaluate`
takes the subtrahend labels in wire order. Both take the circuit's index
under its delta, which prefixes every hash tweak.

The garbler's bits cost no bytes: a minuend wire's 0-label is bit * delta,
so its active label is all zeros, which the evaluator uses unsent. A
garbler-input label always gives the evaluator one known label per wire;
this one is public, with permute bit 0, so the evaluator's view does not
depend on the garbler's bits, and only the garbler knows which of
{0, delta} is the 0-label. The other label, delta, stays hidden under the
tweakable circular-correlation-robust hash that free-XOR and half-gates
already assume, with every tweak unique in a run. A wire that depends only
on the garbler's inputs has an active label the evaluator could compute
itself, so it shows nothing either.

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
_ROW_BYTES = 2 * LABEL_BYTES  # one AND gate's tg and te
_GATE_KEY = b"blindboost-gc-v1"
_OUT_DOMAIN = 1 << 31  # output-check tweaks, above a circuit's gate tweaks
_INDEX_SHIFT = 32      # the circuit's index under its delta, above both
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


def random_delta(rng: random.Random) -> np.ndarray:
    """A uniform label with its permute bit set: a free-XOR offset."""
    return _array([rng.getrandbits(_LABEL_BITS) | 1])[0]


def random_labels(rng: random.Random, count: int) -> np.ndarray:
    """`count` uniform labels, as a (count, 16) array."""
    return _array([rng.getrandbits(_LABEL_BITS) for _ in range(count)])


@dataclass
class GarbledCircuit:
    """What the evaluator receives."""
    circuit: Circuit
    and_tables: bytes         # per AND gate, its rows tg and te, in gate order
    output_check: np.ndarray  # per output wire, (hash for lsb 0, hash for lsb 1)


@dataclass
class GarblerSecrets:
    """The garbler's side of one garbled circuit."""
    gc: GarbledCircuit
    delta: np.ndarray          # (16,), the free-XOR offset
    output_decode: np.ndarray  # per output wire, (label0, label1)


def garble(circuit: Circuit, bits, delta: np.ndarray, label0_b: np.ndarray,
           index: int) -> GarblerSecrets:
    """Garble `circuit` as circuit `index` under the odd offset `delta`,
    with the 0-labels `label0_b` on the subtrahend wires and bit * delta on
    the minuend wire of each of the garbler's `bits`."""
    if len(bits) != len(circuit.inputs_a):
        raise GCEvaluationFailure(f"{len(bits)} bits for {len(circuit.inputs_a)} wires")
    delta_row, delta = delta, int.from_bytes(delta.tobytes(), "little")
    label0 = [0] * circuit.n_wires
    minuend = [delta if bit else 0 for bit in bits]
    for w, lab in zip(circuit.all_inputs(), minuend + _ints(label0_b.tobytes())):
        label0[w] = lab

    # appended row by row: a list of every row would, for a moment, take
    # several times the blob's memory
    tables = bytearray()
    and_index = 0
    for kind, a, b, out in circuit.gates:
        if kind == XOR:
            label0[out] = label0[a] ^ label0[b]
        elif kind == NOT:
            label0[out] = label0[a] ^ delta
        else:
            a0, b0 = label0[a], label0[b]
            j0 = (index << _INDEX_SHIFT) + 2 * and_index
            j1 = j0 + 1
            ha0 = _hash1(a0, j0)
            tg = ha0 ^ _hash1(a0 ^ delta, j0)
            if b0 & 1:
                tg ^= delta
            wg = ha0 ^ tg if a0 & 1 else ha0
            hb0 = _hash1(b0, j1)
            te = hb0 ^ _hash1(b0 ^ delta, j1) ^ a0
            we = hb0 ^ te ^ a0 if b0 & 1 else hb0
            label0[out] = wg ^ we
            tables += (tg | te << _LABEL_BITS).to_bytes(_ROW_BYTES, "little")
            and_index += 1

    check, decode = [], []
    out_tweak = (index << _INDEX_SHIFT) + _OUT_DOMAIN
    for idx, o in enumerate(circuit.outputs):
        l0 = label0[o]
        l1 = l0 ^ delta
        h0, h1 = _hash1(l0, out_tweak + idx), _hash1(l1, out_tweak + idx)
        check += (h1, h0) if l0 & 1 else (h0, h1)
        decode += (l0, l1)

    gc = GarbledCircuit(circuit=circuit, and_tables=bytes(tables),
                        output_check=_array(check, pairs=True))
    return GarblerSecrets(gc=gc, delta=delta_row, output_decode=_array(decode, pairs=True))


def tables_from_bytes(circuit: Circuit, buf: bytes) -> bytes:
    """`buf`, once its length fits the circuit's AND gates."""
    expect = circuit.and_count * _ROW_BYTES
    if len(buf) != expect:
        raise GCEvaluationFailure(f"table blob has {len(buf)} bytes, expected {expect}")
    return buf


def evaluate(gc: GarbledCircuit, labels_b: np.ndarray, index: int) -> np.ndarray:
    """Run the garbled circuit, circuit `index` under its delta, on the
    subtrahend wires' labels, a (wires, 16) array in wire order, and the
    all-zero label on every minuend wire.

    Returns one output label per output wire; the evaluator cannot decode
    them without the garbler's decode map.
    """
    circuit = gc.circuit
    if labels_b.shape != (len(circuit.inputs_b), LABEL_BYTES):
        raise GCEvaluationFailure(f"{labels_b.shape} labels for {len(circuit.inputs_b)} wires")
    tables = tables_from_bytes(circuit, gc.and_tables)
    if len(gc.output_check) != len(circuit.outputs):
        raise GCEvaluationFailure(f"{len(gc.output_check)} output checks for "
                                  f"{len(circuit.outputs)} output wires")
    labels = [0] * circuit.n_wires
    for w, lab in zip(circuit.inputs_b, _ints(labels_b.tobytes())):
        labels[w] = lab

    and_index = 0
    for kind, a, b, out in circuit.gates:
        if kind == XOR:
            labels[out] = labels[a] ^ labels[b]
        elif kind == NOT:
            labels[out] = labels[a]
        else:
            la, lb = labels[a], labels[b]
            off = and_index * _ROW_BYTES  # the gate's tg, then its te
            j0 = (index << _INDEX_SHIFT) + 2 * and_index
            wg = _hash1(la, j0)
            if la & 1:
                wg ^= int.from_bytes(tables[off:off + LABEL_BYTES], "little")
            we = _hash1(lb, j0 + 1)
            if lb & 1:
                we ^= int.from_bytes(tables[off + LABEL_BYTES:off + _ROW_BYTES], "little") ^ la
            labels[out] = wg ^ we
            and_index += 1

    checks = _ints(gc.output_check.tobytes())
    out = [labels[o] for o in circuit.outputs]
    out_tweak = (index << _INDEX_SHIFT) + _OUT_DOMAIN
    for idx, (o, lab) in enumerate(zip(circuit.outputs, out)):
        if _hash1(lab, out_tweak + idx) != checks[2 * idx + (lab & 1)]:
            raise GarbledRowAuthFailure(f"output wire {o}: no clean decryption")
    return _array(out)


def decode_output(labels: np.ndarray, decode_map: np.ndarray) -> list:
    """Garbler-side mapping from output labels to bits."""
    if labels.shape != (len(decode_map), LABEL_BYTES):
        raise GCEvaluationFailure(f"{labels.shape} output labels for "
                                  f"{len(decode_map)} output wires")
    is0 = (labels == decode_map[:, 0]).all(axis=1)
    is1 = (labels == decode_map[:, 1]).all(axis=1)
    if not (is0 | is1).all():
        raise UnknownLabel("label matches neither decode entry")
    return is1.astype(np.uint8).tolist()
