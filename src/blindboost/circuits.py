"""Boolean circuit builder for the subtract-then-msb sign check.

Circuits carry two named input partitions: `inputs_a` (minuend bits) and
`inputs_b` (subtrahend bits), LSB first. In every protocol the garbler (CSP)
feeds `inputs_a` and the evaluator (Cloud) `inputs_b`. Gates are XOR, AND and
NOT; XOR and NOT are free under the garbling scheme, so the subtractor only
materializes its borrow chain - one AND per bit position below the msb.

The circuit may compare each difference d = (a - b) mod 2^L with public
constants v: msb((d - v) mod 2^L) is a borrow chain against v's constant
bits (Kolesnikov, Sadeghi and Schneider, CANS 2009), one AND per position
above v's lowest set bit. The boosting protocols use the constant 0 alone,
which is the plain sign check; stump selection uses its s thresholds.

A gate is a plain (kind, a, b, out) tuple, b = -1 for NOT: the garbler and
the evaluator unpack it once per gate visit, and CPython unpacks an exact
tuple on its fast path.
"""

from dataclasses import dataclass, field

from .errors import ConstantOutOfRange, WidthOutOfRange

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
    # the AND gates, by their order among the ANDs, whose first input
    # depends on inputs_a alone through XOR and NOT: the evaluator's label
    # there is the all-zero label, so it never reads the gate's tg row
    te_only: frozenset = field(init=False)

    def __post_init__(self):
        n = self.n_wires
        assigned = bytearray(n)  # 1 at each wire number that has a value
        if not all(0 <= w < n for w in (*self.all_inputs(), *self.outputs)):
            raise ValueError(f"an input or output wire is outside [0, {n})")
        for w in self.all_inputs():
            if assigned[w]:
                raise ValueError(f"input wire {w} listed twice")
            assigned[w] = 1
        from_a = bytearray(n)  # 1 at each wire that depends on inputs_a alone
        for w in self.inputs_a:
            from_a[w] = 1
        ands, te_only = 0, []
        for gate in self.gates:
            kind, a, b, out = gate
            b = a if kind == NOT else b  # a NOT reads one wire
            if not (0 <= a < n and 0 <= b < n and 0 <= out < n):
                raise ValueError(f"gate {gate} names a wire outside [0, {n})")
            if not (assigned[a] and assigned[b]):
                raise ValueError(f"gate {gate} reads an unassigned wire")
            if assigned[out]:
                raise ValueError(f"wire {out} assigned twice")
            assigned[out] = 1
            if kind == AND:
                if from_a[a]:
                    te_only.append(ands)
                ands += 1
            else:
                from_a[out] = from_a[a] and from_a[b]
        self.and_count = ands
        self.te_only = frozenset(te_only)
        for o in self.outputs:
            if not assigned[o]:
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


def _lowest_set_bit(v: int) -> int:
    return (v & -v).bit_length() - 1


def _sub_gates(bld: _Builder, a, b, low: int) -> list:
    """The bits of d = (a - b) mod 2^L from position `low` up (None below),
    with borrow = maj(~a_i, b_i, c_i) folded into one AND per position:
    borrow' = ((a ^ c ^ 1) & (b ^ c)) ^ c. The top bit, msb(a - b), is
    always there; at low = L - 1 no other bit is materialized."""
    L = len(a)
    d = [None] * L
    borrow = None
    for i in range(L - 1):
        if borrow is None:
            if i >= low:
                d[i] = bld.emit(XOR, a[i], b[i])
            na = bld.emit(NOT, a[i])
            borrow = bld.emit(AND, na, b[i])
        else:
            t1 = bld.emit(XOR, a[i], borrow)
            if i >= low:
                d[i] = bld.emit(XOR, t1, b[i])
            t1n = bld.emit(NOT, t1)
            t2 = bld.emit(XOR, b[i], borrow)
            t3 = bld.emit(AND, t1n, t2)
            borrow = bld.emit(XOR, t3, borrow)
    msb = bld.emit(XOR, a[L - 1], b[L - 1])
    if borrow is not None:
        msb = bld.emit(XOR, msb, borrow)
    d[L - 1] = msb
    return d


def _msb_minus_constant(bld: _Builder, d, nd, v: int):
    """msb((d - v) mod 2^L) for a public v, as a borrow chain against v's
    constant bits; nd[i] is NOT d[i]. Below v's lowest set bit t the borrow
    is 0, and out of position t it is ~d_t. From there the borrow c is a
    wire w with c = w ^ inv: a 0 bit of v gives c' = ~d_i & c, a 1 bit
    c' = ~(d_i & ~c), each one AND when inv equals the bit, so a NOT turns
    w over only where v's bits switch between 0 and 1."""
    L = len(d)
    if v == 0:
        return d[L - 1]
    t = _lowest_set_bit(v)
    if t == L - 1:
        return bld.emit(NOT, d[L - 1])
    w, inv = d[t], 1
    for i in range(t + 1, L - 1):
        bit = (v >> i) & 1
        if inv != bit:
            w, inv = bld.emit(NOT, w), bit
        w = bld.emit(AND, d[i] if bit else nd[i], w)
    msb = bld.emit(XOR, d[L - 1], w)
    if inv != (v >> (L - 1)) & 1:
        msb = bld.emit(NOT, msb)
    return msb


def build_sub_msb_batch(width: int, count: int, constants=(0,)) -> Circuit:
    """`count` independent instances of d = (a - b) mod 2^width, each
    compared with every public constant v: output r * count + i is
    msb((d - v_r) mod 2^width) of record i. Input partitions are
    instance-major, LSB first.

    Each record takes d once, width - 1 AND gates, and each nonzero
    constant with lowest set bit t adds max(width - 2 - t, 0) more: the
    constant 2^(width-1) costs one NOT and no AND. With the
    constant 0 alone the circuit is msb((a - b) mod 2^width): d's top bit
    is the only one materialized."""
    if not 2 <= width <= 128:
        raise WidthOutOfRange(f"width must be in [2, 128], got {width}")
    if count < 1:
        raise ValueError("count must be >= 1")
    constants = tuple(constants)
    if not constants or not all(0 <= v < 1 << width for v in constants):
        raise ConstantOutOfRange(f"need at least one constant in [0, 2^{width}), "
                                 f"got {constants}")
    nonzero = [v for v in constants if v]
    low = min(map(_lowest_set_bit, nonzero), default=width - 1)
    # the positions where some constant's chain reads NOT d_i
    flipped = sorted({i for v in nonzero for i in range(_lowest_set_bit(v) + 1, width - 1)
                      if not (v >> i) & 1})
    bld = _Builder()
    a = bld.wires(width * count)
    b = bld.wires(width * count)
    outs = [[] for _ in constants]
    for i in range(count):
        d = _sub_gates(bld, a[i * width:(i + 1) * width], b[i * width:(i + 1) * width], low)
        nd = {j: bld.emit(NOT, d[j]) for j in flipped}
        for r, v in enumerate(constants):
            outs[r].append(_msb_minus_constant(bld, d, nd, v))
    return Circuit(n_wires=bld.next_wire, inputs_a=a, inputs_b=b,
                   gates=tuple(bld.gates), outputs=tuple(o for row in outs for o in row))


def int_to_bits(value: int, width: int):
    """LSB-first bit list of value mod 2^width."""
    value = int(value) & ((1 << width) - 1)
    return [(value >> i) & 1 for i in range(width)]


def record_bits(values, width: int) -> list:
    """int_to_bits of each value, concatenated: the instance-major input
    order of the batch circuit."""
    return [(v >> i) & 1 for v in map(int, values) for i in range(width)]
