"""Boolean circuit builder for the subtract-then-msb sign check.

Circuits carry two named input partitions: `inputs_a` (minuend bits) and
`inputs_b` (subtrahend bits), LSB first. In every protocol the garbler (CSP)
feeds `inputs_a` and the evaluator (Cloud) `inputs_b`. Gates are XOR, AND and
NOT; XOR and NOT are free under the garbling scheme, so the subtractor only
materializes its borrow chain - one AND per bit position below the msb.

The circuit may compare each difference d = (a - b) mod 2^L with public
constants v: msb((d - v) mod 2^L) is d's top bit against the borrow of
d - v out of the low bits, a chain against v's constant bits (Kolesnikov,
Sadeghi and Schneider, CANS 2009). The borrow into bit i depends on v only
through v mod 2^i, so a record's constants share one chain of nodes
(i, v mod 2^i), and under free-XOR (Kolesnikov and Schneider, ICALP 2008)
the two ways to extend a node share one AND: s - 1 ANDs per record for the
constants 1 ... s, s a power of two. The boosting protocols use the
constant 0 alone, which is the plain sign check and takes no chain; stump
selection uses its s thresholds.

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
        out = self.next_wire  # wire(), inlined: a build emits every gate here
        self.next_wire = out + 1
        self.gates.append((kind, a, b, out))
        return out


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


def _borrow_plan(width: int, constants):
    """The borrow-chain nodes that every record's comparisons share, planned
    once per circuit. Node (i, r), for 1 <= i <= width - 1 and r = v mod 2^i
    != 0 of some constant v, holds g = [d mod 2^i >= r], the NOT of the
    borrow into bit i of d - v; for r = 0 that is 1 and needs no wire.

    Returns (steps, finals). A step (i, parent, zero, one) extends the
    node (i, r) in slot `parent` through bit i into its children at level
    i + 1: `zero` keeps r, `one` is r + 2^i, each a slot of the per-record
    node list or -1 where no constant passes. parent = -1 is the node
    r = 0, whose 1-child is d_i and whose 0-child stays the node 0. Per
    constant v, finals holds (x, node): its output is d_(width-1) ^ x,
    XORed with the node of r = v mod 2^(width-1) unless r = 0 (node -1),
    so x = v's top bit ^ [r != 0]."""
    slot = {}  # (i, r) -> index in the per-record node list
    steps = []
    # below each constant's lowest set bit, v mod 2^(i+1) is 0: no node
    lowest = min(((v & -v).bit_length() - 1 for v in constants if v), default=width - 1)
    for i in range(lowest, width - 1):
        level = sorted({v % (2 << i) for v in constants} - {0})
        for r in level:
            slot[i + 1, r] = len(slot)
        for r in sorted({r % (1 << i) for r in level}):
            steps.append((i, slot.get((i, r), -1), slot.get((i + 1, r), -1),
                          slot.get((i + 1, r | 1 << i), -1)))
    top = 1 << (width - 1)
    return steps, tuple(((v >= top) ^ (v % top != 0), slot.get((width - 1, v % top), -1))
                        for v in constants)


def build_sub_msb_batch(width: int, count: int, constants=(0,)) -> Circuit:
    """`count` independent instances of d = (a - b) mod 2^width, each
    compared with every public constant v: output r * count + i is
    msb((d - v_r) mod 2^width) of record i. Input partitions are
    instance-major, LSB first.

    Each record takes d once, width - 1 AND gates, and one more per node
    of the shared borrow chain (`_borrow_plan`): per distinct
    (i, v mod 2^i) with t < i <= width - 2, t the lowest set bit of v.
    That is never more than the max(width - 2 - t, 0) of one chain per
    constant, and s - 1 in all for the constants 1 ... s, s a power of
    two. A node holds g, the NOT of the borrow c, so the chain needs no
    NOT gate: extending g through bit i takes the one AND q = d_i & g, a 0
    bit of v gives d_i | g = d_i ^ g ^ q and a 1 bit q itself. Then
    msb((d - v) mod 2^width) = d_(width-1) ^ v_(width-1) ^ ~g. With
    the constant 0 alone the circuit is msb((a - b) mod 2^width): d's top
    bit is the only one materialized."""
    if not 2 <= width <= 128:
        raise WidthOutOfRange(f"width must be in [2, 128], got {width}")
    if count < 1:
        raise ValueError("count must be >= 1")
    constants = tuple(constants)
    if not constants or not all(0 <= v < 1 << width for v in constants):
        raise ConstantOutOfRange(f"need at least one constant in [0, 2^{width}), "
                                 f"got {constants}")
    steps, finals = _borrow_plan(width, constants)
    low = steps[0][0] if steps else width - 1  # the lowest bit of d a step reads
    flip = any(x for x, _ in finals)  # some output reads NOT d_(width-1)
    bld = _Builder()
    a = bld.wires(width * count)
    b = bld.wires(width * count)
    outs = [[] for _ in constants]
    g = [0] * (2 * len(steps))  # the nodes' wires; a step makes at most two
    for i in range(count):
        d = _sub_gates(bld, a[i * width:(i + 1) * width], b[i * width:(i + 1) * width], low)
        for j, parent, zero, one in steps:
            if parent < 0:
                g[one] = d[j]
                continue
            q = bld.emit(AND, d[j], g[parent])
            if zero >= 0:
                g[zero] = bld.emit(XOR, bld.emit(XOR, d[j], g[parent]), q)
            if one >= 0:
                g[one] = q
        msb = (d[width - 1], bld.emit(NOT, d[width - 1]) if flip else None)
        for out, (x, node) in zip(outs, finals):
            out.append(msb[x] if node < 0 else bld.emit(XOR, msb[x], g[node]))
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
