"""Per-layer spans for the traced benchmark run.

The tracer wraps each layer's public functions from the outside, where the
protocol code looks them up, and records one span per call: name, party,
parent span, and start and end on both `perf_counter` (wall) and
`thread_time` (the calling thread's CPU). Both clocks are kept because the
two parties share one interpreter lock: a party's wall time also holds the
other party's work, its thread time does not.

The party of a span is `csp` on the CSP worker thread; on the main thread it
is `setup` while the set-up region is open and `cloud` otherwise.

A span's self time is its duration minus the durations of its child spans.
Layer `.s` metrics are self thread time; `transport.wait_s` and `wall_s` are
wall time. Spans stay in memory and are written out when the run ends.
"""

import functools
import itertools
import threading
import time
import types
from collections import defaultdict

from blindboost import ot, paillier, shares
from blindboost.protocol import parties, stump_select, transport, wire
from blindboost.protocol.transcript import FRAME_OVERHEAD

PARTIES = ("setup", "cloud", "csp")
PHASES = ("SETUP", "BASE_APPLY", "RESULT_EVAL_MASK", "GC_TABLES", "OT",
          "OUTPUT_LABELS")

# metric suffix -> (span names, quantity); quantity is "self" (self thread
# time), "calls" (number of spans), "count" (work counted by the span) or
# "wall" (wall duration)
LAYER_METRICS = {
    "paillier.keygen.s": (("paillier.keygen",), "self"),
    "paillier.encrypt.s": (("paillier.encrypt",), "self"),
    "paillier.encrypt.calls": (("paillier.encrypt",), "calls"),
    "paillier.decrypt.s": (("paillier.decrypt",), "self"),
    "paillier.decrypt.calls": (("paillier.decrypt",), "calls"),
    "paillier.he_scalar_mul.s": (("paillier.he_scalar_mul",), "self"),
    "paillier.he_scalar_mul.calls": (("paillier.he_scalar_mul",), "calls"),
    "paillier.he_add.s": (("paillier.he_add",), "self"),
    "paillier.he_add.calls": (("paillier.he_add",), "calls"),
    "paillier.serialize.s": (("paillier.serialize",), "self"),
    "shares.matvec.s": (("shares.matvec",), "self"),
    "circuits.build.s": (("circuits.build",), "self"),
    "circuits.build.calls": (("circuits.build",), "calls"),
    "garbling.garble.s": (("garbling.garble",), "self"),
    "garbling.evaluate.s": (("garbling.evaluate",), "self"),
    "garbling.and_gates": (("garbling.garble", "garbling.evaluate"), "count"),
    "garbling.tables.s": (("garbling.tables",), "self"),
    "ot.base.s": (("ot.base",), "self"),
    "ot.dealer.s": (("ot.dealer",), "self"),
    "ot.transfers": (("ot.base", "ot.dealer"), "count"),
    "wire.s": (("wire",), "self"),
    "transport.wait_s": (("transport.recv",), "wall"),
    "transport.send.s": (("transport.send",), "self"),
    "transport.messages": (("transport.send",), "calls"),
    "transport.bytes_sent": (("transport.send",), "count"),
}
PARTY_METRICS = ("protocol.self_s", "busy_s", "wall_s")

# The layer metrics a party can have in some workload; a party that makes no
# such call in a workload reports 0.
_SETUP_LAYER = ("paillier.keygen.s", "paillier.encrypt.s", "paillier.encrypt.calls")
_NOT_CLOUD = ("paillier.keygen.s", "garbling.garble.s")
_NOT_CSP = ("paillier.keygen.s", "garbling.evaluate.s", "ot.dealer.s")


def _party_layer_metrics(party):
    if party == "setup":
        return _SETUP_LAYER
    skip = _NOT_CLOUD if party == "cloud" else _NOT_CSP
    return tuple(m for m in LAYER_METRICS if m not in skip)


def metric_unit(name):
    if name.startswith("bytes.") or name.endswith("bytes_sent"):
        return "bytes"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def per_layer_names():
    """Every per-layer metric the traced run prints, in print order."""
    names = []
    for party in PARTIES:
        names += [f"{party}.{m}" for m in _party_layer_metrics(party)]
        names += [f"{party}.{m}" for m in PARTY_METRICS]
    names += [f"bytes.{p}" for p in PHASES]
    names += ["traced.setup_s", "traced.train_s"]
    return names


# transcript counter -> traced metric that counts the same work
CROSSCHECK = (
    ("encryptions", "paillier.encrypt.calls"),
    ("decryptions", "paillier.decrypt.calls"),
    ("he_adds", "paillier.he_add.calls"),
    ("he_scalar_muls", "paillier.he_scalar_mul.calls"),
    ("and_gates", "garbling.and_gates"),
    ("ot_transfers", "ot.transfers"),
)
_PROGRAM_PARTY = {"setup": "user", "cloud": "cloud", "csp": "csp"}


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


class Tracer:
    """Collects spans; one instance per benchmark run."""

    def __init__(self):
        self._main = threading.main_thread()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._in_setup = False
        self.spans = []  # [id, name, party, parent, w0, c0, w1, c1, count]

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _party(self):
        if threading.current_thread() is not self._main:
            return "csp"
        return "setup" if self._in_setup else "cloud"

    def begin(self, name):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span = [next(self._ids), name, self._party(), parent,
                time.perf_counter(), time.thread_time(), 0.0, 0.0, 0]
        stack.append(span)
        return span

    def end(self, span, count=0):
        span[7] = time.thread_time()
        span[6] = time.perf_counter()
        span[8] = count
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span[1]} closed out of order")
        self.spans.append(span)

    def begin_setup(self):
        self._in_setup = True
        return self.begin("setup")

    def end_setup(self, span):
        self.end(span)
        self._in_setup = False

    def wrap(self, fn, name, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = counter(args, kwargs) if counter else 0
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span, count)
        return traced

    # -- installation ----------------------------------------------------

    def install(self, patches: Patches):
        w = self.wrap
        for fn in ("keygen", "encrypt", "decrypt", "he_add", "he_scalar_mul"):
            patches.set(paillier, fn, w(getattr(paillier, fn), f"paillier.{fn}"))
        for fn in ("ciphertexts_to_bytes", "ciphertexts_from_bytes"):
            patches.set(paillier, fn, w(getattr(paillier, fn), "paillier.serialize"))
        for fn in ("masked_matvec_csp_step", "masked_matvec_cloud_step"):
            patches.set(shares, fn, w(getattr(shares, fn), "shares.matvec"))

        def ands_of_circuit(args, kwargs):
            return args[0].and_count

        def ands_of_gc(args, kwargs):
            return args[0].circuit.and_count

        def first_len(args, kwargs):
            return len(args[0])

        # wire's own helpers call each other; only calls made from the
        # protocol modules are spans
        wire_proxy = types.SimpleNamespace(**{
            k: (w(v, "wire") if k.startswith(("pack_", "unpack_")) else v)
            for k, v in vars(wire).items() if not k.startswith("__")})
        for module, build in ((parties, "build_sub_msb_batch"),
                              (stump_select, "build_stump_error_batch")):
            patches.set(module, build, w(getattr(module, build), "circuits.build"))
            patches.set(module, "garble", w(module.garble, "garbling.garble",
                                            ands_of_circuit))
            patches.set(module, "evaluate", w(module.evaluate, "garbling.evaluate",
                                              ands_of_gc))
            for fn in ("tables_from_bytes", "decode_output"):
                patches.set(module, fn, w(getattr(module, fn), "garbling.tables"))
            patches.set(module, "dealer_choose", w(module.dealer_choose, "ot.dealer",
                                                   first_len))
            patches.set(module, "wire", wire_proxy)

        def second_len(args, kwargs):
            return len(args[1])  # args[0] is self

        patches.set(ot.OTSender, "__init__", w(ot.OTSender.__init__, "ot.base"))
        patches.set(ot.OTSender, "respond", w(ot.OTSender.respond, "ot.base", second_len))
        patches.set(ot.OTReceiver, "choose", w(ot.OTReceiver.choose, "ot.base", second_len))
        patches.set(ot.OTReceiver, "finish", w(ot.OTReceiver.finish, "ot.base"))

        def framed_len(args, kwargs):
            payload = args[2] if len(args) > 2 else kwargs.get("payload", b"")
            return len(payload) + FRAME_OVERHEAD

        for cls in (transport._QueueEndpoint, transport._SocketEndpoint):
            patches.set(cls, "send", w(cls.send, "transport.send", framed_len))
            patches.set(cls, "recv", w(cls.recv, "transport.recv"))
        # the CSP thread's entry points are its root spans
        patches.set(parties.CSPParty, "run", w(parties.CSPParty.run, "csp"))
        patches.set(stump_select, "_csp_loop", w(stump_select._csp_loop, "csp"))

    # -- aggregation -----------------------------------------------------

    def take(self):
        """Spans finished since the last call."""
        spans, self.spans = self.spans, []
        return spans


def op_metrics(spans, op_span, setup_span):
    """Per-layer metrics of one operation from its spans.

    `op_span` is the main thread's root around the public call and
    `setup_span` the set-up region inside it.
    """
    child_w = defaultdict(float)
    child_c = defaultdict(float)
    for s in spans:
        if s[3] is not None:
            child_w[s[3]] += s[6] - s[4]
            child_c[s[3]] += s[7] - s[5]
    by_name = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, self_c, wall, count
    roots = {"setup": setup_span, "cloud": op_span}
    for s in spans:
        if s[1] == "csp":
            roots["csp"] = s
        acc = by_name[(s[2], s[1])]
        acc[0] += 1
        acc[1] += (s[7] - s[5]) - child_c[s[0]]
        acc[2] += s[6] - s[4]
        acc[3] += s[8]
    out = {}
    for party in PARTIES:
        for metric in _party_layer_metrics(party):
            span_names, quantity = LAYER_METRICS[metric]
            index = {"calls": 0, "self": 1, "wall": 2, "count": 3}[quantity]
            out[f"{party}.{metric}"] = sum(by_name[(party, n)][index]
                                           for n in span_names)
        root = roots.get(party)
        if root is None:
            busy = wall = own = 0.0
        else:
            busy, wall = root[7] - root[5], root[6] - root[4]
            own = busy - child_c[root[0]]
            if party == "cloud":  # the main thread after set-up
                busy -= setup_span[7] - setup_span[5]
                wall -= setup_span[6] - setup_span[4]
        out[f"{party}.protocol.self_s"] = own
        out[f"{party}.busy_s"] = busy
        out[f"{party}.wall_s"] = wall
    covered = {(party, n) for party in PARTIES for m in _party_layer_metrics(party)
               for n in LAYER_METRICS[m][0]}
    stray = set(by_name) - covered - {("cloud", "op"), ("setup", "setup"),
                                      ("csp", "csp")}
    if stray:
        raise RuntimeError(f"spans with no declared metric: {sorted(stray)}")
    return out


def named_share(metrics):
    """Per party: the share of busy time spent inside named layer spans."""
    out = {}
    for party in PARTIES:
        busy = metrics[f"{party}.busy_s"]
        if busy > 0:
            out[party] = 1.0 - metrics[f"{party}.protocol.self_s"] / busy
    return out


def crosscheck(transcript, metrics):
    """(name, program count, traced count) for each counter pair; a party
    the program keeps no counters for reads as None."""
    rows = []
    for party in PARTIES:
        counters = transcript.counters.get(_PROGRAM_PARTY[party])
        for counter, metric in CROSSCHECK:
            program = None if counters is None else getattr(counters, counter)
            traced = metrics.get(f"{party}.{metric}", 0)
            rows.append((f"{party}.{counter}", program, traced))
    return rows
