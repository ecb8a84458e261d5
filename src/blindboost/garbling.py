"""Garbling engine: free-XOR, point-and-permute, half-gates AND tables.

Inside this module a label is a 128-bit int; wherever labels leave it, a
batch of them is one uint8 array of 16-byte little-endian labels, (count,
16) or, for pairs, (count, 2, 16). The permute bit is the label's least
significant bit. For every wire label1 = label0 XOR delta, with delta odd
so the two labels' permute bits differ. The gate cipher is keyed BLAKE2s
over the label bytes followed by the 8-byte little-endian tweak. Every AND
gate is a half-gates pair of rows (Zahur, Rosulek and Evans, EUROCRYPT
2015), and the AND tables are one bytes object from garbling to
evaluation: per AND gate its 16-byte rows tg, then te, in gate order, or
te alone for a gate in the circuit's `te_only`, whose tg the evaluator
never reads. XOR and NOT gates are free.

`garble` takes the garbler's bits on the minuend wires `inputs_a`, delta,
which spans every circuit of a run, and the subtrahend wires' 0-labels from
the OT that delivers the evaluator's labels. It returns the garbler's side,
`GarblerSecrets`: delta, the output decode map and the `GarbledCircuit` it
ships (circuit and AND tables), all the evaluator holds. `evaluate`
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
itself, so it shows nothing either. One reached from them through XOR and
NOT alone has the all-zero active label, so an AND gate with such a first
input ships no tg row.

Both garbling and evaluation unpack the circuit's gates as (kind, a, b,
out) tuples and keep labels in a list indexed by wire number.

Corruption is caught by the garbler: the evaluator returns its full output
labels, and `decode_output` accepts only a label equal to one of the
wire's two. A corrupted or replayed table row that the evaluator reads
gives it a wrong label, which passes only by being the wire's other
label: a guess of delta, which the evaluator does not know. So tables
corrupted in transit decode to the right bits or raise UnknownLabel.
"""

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from .circuits import NOT, XOR, Circuit
from .errors import GCEvaluationFailure, UnknownLabel

LABEL_BYTES = 16

_LABEL_BITS = 8 * LABEL_BYTES
_ROW_BYTES = 2 * LABEL_BYTES  # one AND gate's tg and te
_GATE_KEY = b"blindboost-gc-v1"
_INDEX_SHIFT = 32  # the circuit's index under its delta, above its gate tweaks
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
    and_tables: bytes  # per AND gate, its rows tg (unless te_only) and te, in gate order


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
    and_index, te_only = 0, circuit.te_only
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
            if and_index in te_only:
                tables += te.to_bytes(LABEL_BYTES, "little")
            else:
                tables += (tg | te << _LABEL_BITS).to_bytes(_ROW_BYTES, "little")
            and_index += 1

    decode = [lab for o in circuit.outputs for lab in (label0[o], label0[o] ^ delta)]
    return GarblerSecrets(gc=GarbledCircuit(circuit=circuit, and_tables=bytes(tables)),
                          delta=delta_row, output_decode=_array(decode, pairs=True))


def tables_from_bytes(circuit: Circuit, buf: bytes) -> bytes:
    """`buf`, once its length fits the rows of the circuit's AND gates."""
    expect = circuit.and_count * _ROW_BYTES - len(circuit.te_only) * LABEL_BYTES
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
    labels = [0] * circuit.n_wires
    for w, lab in zip(circuit.inputs_b, _ints(labels_b.tobytes())):
        labels[w] = lab

    and_index, off, te_only = 0, 0, circuit.te_only  # off: the gate's first row
    for kind, a, b, out in circuit.gates:
        if kind == XOR:
            labels[out] = labels[a] ^ labels[b]
        elif kind == NOT:
            labels[out] = labels[a]
        else:
            la, lb = labels[a], labels[b]
            j0 = (index << _INDEX_SHIFT) + 2 * and_index
            wg = _hash1(la, j0)
            if and_index not in te_only:  # a te_only gate's la is all zeros
                if la & 1:
                    wg ^= int.from_bytes(tables[off:off + LABEL_BYTES], "little")
                off += LABEL_BYTES
            we = _hash1(lb, j0 + 1)
            if lb & 1:
                we ^= int.from_bytes(tables[off:off + LABEL_BYTES], "little") ^ la
            labels[out] = wg ^ we
            off += LABEL_BYTES
            and_index += 1
    return _array([labels[o] for o in circuit.outputs])


def decode_output(labels: np.ndarray, decode_map: np.ndarray) -> list:
    """Garbler-side mapping from output labels to bits; UnknownLabel names
    the first output whose label is neither of its two."""
    if labels.shape != (len(decode_map), LABEL_BYTES):
        raise GCEvaluationFailure(f"{labels.shape} output labels for "
                                  f"{len(decode_map)} output wires")
    is0 = (labels == decode_map[:, 0]).all(axis=1)
    is1 = (labels == decode_map[:, 1]).all(axis=1)
    unknown = np.flatnonzero(~(is0 | is1))
    if unknown.size:
        raise UnknownLabel(f"output {unknown[0]} of {len(decode_map)}: the label matches "
                           f"neither of its two; the garbled tables or the output labels "
                           f"were corrupted or replayed")
    return is1.astype(np.uint8).tolist()
