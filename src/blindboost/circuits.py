"""Boolean circuit builder for the subtract-then-msb sign check.

Circuits carry two named input partitions: `inputs_a` (minuend bits) and
`inputs_b` (subtrahend bits), LSB first. In every protocol the garbler (CSP)
feeds `inputs_a` and the evaluator (Cloud) `inputs_b`. Gates are XOR, AND and
NOT; XOR and NOT are free under the garbling scheme, so the subtractor only
materializes its borrow chain - one AND per bit position below the msb.

A gate is a plain (kind, a, b, out) tuple, b = -1 for NOT: the garbler and
the evaluator unpack it once per gate visit, and CPython unpacks an exact
tuple on its fast path.
"""

from dataclasses import dataclass, field

from .errors import WidthOutOfRange

XOR = "XOR"
AND = "AND"
NOT = "NOT"


@dataclass
class Circuit:
    n_wires: int
    inputs_a: tuple
    inputs_b: tuple
    gates: tuple
    outputs: tuple
    and_count: int = field(init=False)  # counted by the validation pass

    def __post_init__(self):
        assigned = set(self.all_inputs())
        ands = 0
        for kind, a, b, out in self.gates:
            if a not in assigned or (kind != NOT and b not in assigned):
                raise ValueError(f"gate {(kind, a, b, out)} reads an unassigned wire")
            if out in assigned:
                raise ValueError(f"wire {out} assigned twice")
            assigned.add(out)
            ands += kind == AND
        self.and_count = ands
        for o in self.outputs:
            if o not in assigned:
                raise ValueError(f"output wire {o} never assigned")

    def all_inputs(self):
        return tuple(self.inputs_a) + tuple(self.inputs_b)

    def evaluate_plain(self, a_bits, b_bits):
        """Reference evaluation on plaintext bits."""
        values = {}
        for w, bit in zip(self.inputs_a, a_bits):
            values[w] = bit & 1
        for w, bit in zip(self.inputs_b, b_bits):
            values[w] = bit & 1
        for kind, a, b, out in self.gates:
            if kind == XOR:
                values[out] = values[a] ^ values[b]
            elif kind == AND:
                values[out] = values[a] & values[b]
            else:
                values[out] = values[a] ^ 1
        return [values[o] for o in self.outputs]


class _Builder:
    def __init__(self):
        self.next_wire = 0
        self.gates = []

    def wire(self):
        w = self.next_wire
        self.next_wire += 1
        return w

    def wires(self, count):
        return tuple(self.wire() for _ in range(count))

    def emit(self, kind, a, b=-1):
        out = self.wire()
        self.gates.append((kind, a, b, out))
        return out


def _sub_msb_gates(bld: _Builder, a, b):
    """msb((a - b) mod 2^L) with borrow = maj(~a_i, b_i, c_i) folded into one
    AND per position: borrow' = ((a ^ c ^ 1) & (b ^ c)) ^ c."""
    L = len(a)
    borrow = None
    for i in range(L - 1):
        if borrow is None:
            na = bld.emit(NOT, a[i])
            borrow = bld.emit(AND, na, b[i])
        else:
            t1 = bld.emit(XOR, a[i], borrow)
            t1n = bld.emit(NOT, t1)
            t2 = bld.emit(XOR, b[i], borrow)
            t3 = bld.emit(AND, t1n, t2)
            borrow = bld.emit(XOR, t3, borrow)
    msb = bld.emit(XOR, a[L - 1], b[L - 1])
    if borrow is not None:
        msb = bld.emit(XOR, msb, borrow)
    return msb


def build_sub_msb_batch(width: int, count: int) -> Circuit:
    """`count` independent instances of msb((a - b) mod 2^width), width - 1
    AND gates each, in one circuit; output i belongs to record i. Input
    partitions are instance-major, LSB first."""
    if not 2 <= width <= 128:
        raise WidthOutOfRange(f"width must be in [2, 128], got {width}")
    if count < 1:
        raise ValueError("count must be >= 1")
    bld = _Builder()
    a = bld.wires(width * count)
    b = bld.wires(width * count)
    outs = []
    for i in range(count):
        ai = a[i * width:(i + 1) * width]
        bi = b[i * width:(i + 1) * width]
        outs.append(_sub_msb_gates(bld, ai, bi))
    return Circuit(n_wires=bld.next_wire, inputs_a=a, inputs_b=b,
                   gates=tuple(bld.gates), outputs=tuple(outs))


def int_to_bits(value: int, width: int):
    """LSB-first bit list of value mod 2^width."""
    value = int(value) & ((1 << width) - 1)
    return [(value >> i) & 1 for i in range(width)]


def record_bits(values, width: int) -> list:
    """int_to_bits of each value, concatenated: the instance-major input
    order of the batch circuit."""
    return [(v >> i) & 1 for v in map(int, values) for i in range(width)]
