"""The benchmark's workloads: inputs, one timed operation, and its checks.

One operation is one public call: `protocol.run_learning` for the boosting
workloads, `protocol.stump_select.confidential_ds_select` for `ds-select`.
Operation `i` of a run with seed `S` trains on
`standardize(gen_synthetic(n, k, data_seed(S, i)))`; the protocol's own
seeds are the library defaults, so every operation makes the same keys.

The checks recompute every output apart from the protocol: indicator
vectors and stump error bits from the encoded records, the model from the
plaintext oracles.
"""

import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np

from blindboost import paillier
from blindboost.boosting import boost_rlc
from blindboost.encoding import FixedPointParams, fold_labels, standardize
from blindboost.harness.datasets import gen_synthetic
from blindboost.protocol import (
    HE_GC,
    SECSH_GC,
    ProtocolConfig,
    engine,
    parties,
    reconstruct_model,
    run_learning,
    transport,
)
from blindboost.protocol.stump_select import (
    confidential_ds_select,
    exhaustive_select_oracle,
)

from tracing import Patches


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "boost" or "ds"
    n: int
    k: int
    tau: int
    key_bits: int
    ot_mode: str
    construction: str = HE_GC
    p_max: int = 0
    transport: str = "memory"
    bins: int = 0

    def config(self) -> ProtocolConfig:
        return ProtocolConfig(construction=self.construction, tau=self.tau,
                              p_max=max(self.p_max, self.tau), key_bits=self.key_bits,
                              ot_mode=self.ot_mode, ot_group="modp-768")


# n is odd for boosting: with uniform first-round weights an even n can give
# an error of exactly 0.5, which rejects the classifier and adds a round
WORKLOADS = {
    "secsh-baseot": Workload("secsh-baseot", "boost", n=11, k=8, tau=2, p_max=4,
                             key_bits=512, ot_mode="base", construction=SECSH_GC,
                             transport="socket"),
    "hegc-paillier2048": Workload("hegc-paillier2048", "boost", n=11, k=2, tau=2,
                                  p_max=4, key_bits=2048, ot_mode="dealer"),
    "ds-select": Workload("ds-select", "ds", n=24, k=3, tau=3, key_bits=512,
                          ot_mode="dealer", bins=8),
}

# a few seconds per operation, for the benchmark's own tests
TOY = {
    "secsh-baseot": dict(n=11, k=2, tau=1, p_max=2),
    "hegc-paillier2048": dict(n=11, k=2, tau=1, p_max=2),
    "ds-select": dict(n=10, k=2, tau=1, bins=2),
}


def get(name: str, toy: bool = False) -> Workload:
    wl = WORKLOADS[name]
    if toy:
        fields = {**wl.__dict__, **TOY[name]}
        wl = Workload(**fields)
    return wl


def data_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_dataset(wl: Workload, seed: int, index: int):
    return standardize(gen_synthetic(wl.n, wl.k, data_seed(seed, index)))


# ---------------------------------------------------------------------------
# one operation


class SetupClock:
    """Times the set-up region of one operation: the `engine.setup` call for
    boosting, from `paillier.keygen` to the channel's creation for ds-select."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.reset()

    def reset(self):
        self.t0 = self.t1 = None
        self.span = None

    def begin(self):
        if self.t0 is not None:
            return
        if self.tracer is not None:
            self.span = self.tracer.begin_setup()
        self.t0 = time.perf_counter()

    def end(self):
        if self.t0 is None or self.t1 is not None:
            return
        self.t1 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.end_setup(self.span)

    @property
    def seconds(self):
        return self.t1 - self.t0


def instrument(wl: Workload, clock: SetupClock, patches: Patches):
    """Installs the set-up timing hooks, outside any tracer wrapper."""
    if wl.kind == "boost":
        setup = engine.setup

        def timed_setup(*args, **kwargs):
            clock.begin()
            try:
                return setup(*args, **kwargs)
            finally:
                clock.end()
        patches.set(engine, "setup", timed_setup)
    else:
        keygen, memory_pair = paillier.keygen, transport.memory_pair

        def keygen_opens(*args, **kwargs):
            clock.begin()
            return keygen(*args, **kwargs)

        def channel_closes(*args, **kwargs):
            clock.end()
            return memory_pair(*args, **kwargs)
        patches.set(paillier, "keygen", keygen_opens)
        patches.set(transport, "memory_pair", channel_closes)


@dataclass
class Outcome:
    """What one operation returned, plus its timings."""

    wl: Workload
    dataset: object
    setup_s: float
    train_s: float
    transcript: object
    result: dict = field(default_factory=dict)
    root: list | None = None         # traced runs: the op and set-up spans
    setup_span: list | None = None


def run_op(wl: Workload, seed: int, index: int, clock: SetupClock, tracer=None):
    dataset = make_dataset(wl, seed, index)
    cfg = wl.config()
    folded = fold_labels(dataset) if wl.kind == "boost" else None
    # every operation builds its circuits, as a CLI run does
    getattr(parties, "_circuit_cache", {}).clear()
    clock.reset()
    root = tracer.begin("op") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        if wl.kind == "boost":
            model, transcript, cloud, csp = run_learning(
                cfg, folded, transport_kind=wl.transport, with_parties=True)
            result = {"model": model, "tried_w": list(cloud.tried_w),
                      "indicators": [np.array(i) for i in csp.indicator_history]}
        else:
            res = confidential_ds_select(cfg, dataset, s=wl.bins, tau=wl.tau)
            transcript = res.transcript
            result = {"indices": list(res.selected_indices),
                      "alphas": list(res.alphas),
                      "errors": np.array(res.error_vectors)}
    finally:
        t1 = time.perf_counter()
        clock.end()  # closes a set-up region that an exception left open
        if root is not None:
            tracer.end(root)
    return Outcome(wl, dataset, clock.seconds, (t1 - t0) - clock.seconds,
                   transcript, result, root, clock.span)


# ---------------------------------------------------------------------------
# checks, made apart from the protocol


def _encode(x, precision_bits, ring_bits):
    """Exact-integer fixed-point encoding: floor(|x| 2^b), negatives as q - m."""
    q = 1 << ring_bits
    m = math.floor(abs(float(x)) * (1 << precision_bits))
    return m if x >= 0 else (q - m) % q


def _ring_bits(dim, precision_bits):
    return 2 * precision_bits + math.ceil(math.log2(max(dim, 2))) + 1


def check_boost(out: Outcome) -> list:
    cfg = out.wl.config()
    folded = fold_labels(out.dataset)
    dim = folded.Z.shape[1]
    b = cfg.precision_bits
    L = _ring_bits(dim, b)
    q = 1 << L
    zq = [[_encode(v, b, L) for v in row] for row in folded.Z]
    problems = []
    tried, seen = out.result["tried_w"], out.result["indicators"]
    if len(tried) != len(seen):
        problems.append(f"{len(tried)} classifiers tried, {len(seen)} indicator vectors")
    for t, (w, got) in enumerate(zip(tried, seen), start=1):
        wq = [_encode(v, b, L) for v in w]
        want = [int(sum(z * c for z, c in zip(row, wq)) % q < q // 2) for row in zq]
        if [int(v) for v in got] != want:
            problems.append(f"indicator vector of trial {t} differs")
    try:
        model = reconstruct_model(out.result["model"])
    except Exception as exc:  # noqa: BLE001 - any refusal is a failed check
        return problems + [f"reconstruct_model refused the halves: {exc!r}"]
    fp = FixedPointParams(precision_bits=b, ring_bits=L)
    oracle = boost_rlc(folded.Z, cfg.tau, cfg.p_max,
                       np.random.default_rng(cfg.seeds.cloud), fp=fp).model
    if list(model.alphas) != list(oracle.alphas):
        problems.append(f"alphas {model.alphas} != oracle {oracle.alphas}")
    if len(model.classifiers) != len(oracle.classifiers) or not all(
            np.array_equal(a.w, o.w)
            for a, o in zip(model.classifiers, oracle.classifiers)):
        problems.append("classifier vectors differ from the oracle")
    if not all(a > 0 for a in model.alphas):
        problems.append(f"non-positive alpha in {model.alphas}")
    return problems


def _error_bits(dataset, bins, precision_bits):
    X = np.asarray(dataset.X, dtype=np.float64)
    n, k = X.shape
    L = _ring_bits(k, precision_bits)
    q = 1 << L
    xq = np.array([[_encode(v, precision_bits, L) for v in row] for row in X],
                  dtype=np.int64)
    y01 = (np.asarray(dataset.y) == 1).astype(np.uint8)
    grid = [-4.0 + 8.0 * (r + 1) / (bins + 1) for r in range(bins)]
    rows = []
    for j in range(k):
        for v in grid:
            less = (((xq[:, j] - _encode(v, precision_bits, L)) % q) >= q // 2)
            err = less.astype(np.uint8) ^ y01
            rows += [err, 1 - err]   # "x < v -> class 1", then its conjugate
    return np.array(rows, dtype=np.uint8)


def check_ds(out: Outcome) -> list:
    wl, cfg = out.wl, out.wl.config()
    problems = []
    errors = out.result["errors"]
    want = _error_bits(out.dataset, wl.bins, cfg.precision_bits)
    if errors.shape != want.shape or not np.array_equal(errors, want):
        problems.append("error bits differ from the recomputed ones")
    if errors.shape[0] % 2 or not np.array_equal(errors[1::2], 1 - errors[0::2]):
        problems.append("conjugate rows are not complements")
    (indices, alphas, _), _, _, _ = exhaustive_select_oracle(
        out.dataset, wl.bins, wl.tau, cfg.precision_bits)
    got_i, got_a = out.result["indices"], out.result["alphas"]
    if list(got_i) != list(indices) or list(got_a) != list(alphas):
        problems.append(f"selection {got_i}/{got_a} != oracle {indices}/{alphas}")
    delta = np.full(want.shape[1], 1.0 / want.shape[1])
    for i, a in zip(got_i, got_a):
        if not 0 <= i < want.shape[0]:
            problems.append(f"selected index {i} out of range")
            break
        e = float(want[i] @ delta)
        if not e < 0.5:
            problems.append(f"selected stump {i} has weighted error {e}")
            break
        if not a > 0:
            problems.append(f"non-positive alpha {a}")
            break
        factors = np.where(want[i] == 0, math.exp(-a), math.exp(a))
        delta = delta * factors / (delta * factors).sum()
    return problems


def check(out: Outcome) -> list:
    return check_boost(out) if out.wl.kind == "boost" else check_ds(out)


# ---------------------------------------------------------------------------
# self-test of the checks: corrupted copies of a real output


def corruptions(out: Outcome):
    """(label, corrupted copy) pairs; each must fail `check`."""
    def variant(label, mutate):
        bad = copy.copy(out)
        bad.result = copy.deepcopy(out.result)
        mutate(bad.result)
        return label, bad

    if out.wl.kind == "boost":
        def flip_indicator(r):
            r["indicators"][-1][0] ^= 1

        def bump_alpha(r):
            t, a, f = r["model"].csp_part[0]
            r["model"].csp_part[0] = (t, math.nextafter(a, math.inf), f)

        def negate_alpha(r):
            t, a, f = r["model"].csp_part[-1]
            r["model"].csp_part[-1] = (t, -a, f)

        def shift_trial(r):
            t, w = r["model"].cloud_part[0]
            r["model"].cloud_part[0] = (t + 1, w)

        def flip_classifier(r):
            t, w = r["model"].cloud_part[0]
            r["model"].cloud_part[0] = (t, -np.asarray(w))

        return [variant("one indicator bit", flip_indicator),
                variant("one alpha by one ulp", bump_alpha),
                variant("one alpha negated", negate_alpha),
                variant("one cloud-half trial index", shift_trial),
                variant("one classifier vector", flip_classifier)]

    def flip_error(r):
        r["errors"][0, 0] ^= 1

    def flip_conjugate(r):
        r["errors"][1, -1] ^= 1

    def shift_index(r):
        r["indices"][0] = r["indices"][0] ^ 1   # its conjugate stump

    def bump_alpha(r):
        r["alphas"][-1] = math.nextafter(r["alphas"][-1], math.inf)

    return [variant("one error bit", flip_error),
            variant("one conjugate error bit", flip_conjugate),
            variant("one selected index", shift_index),
            variant("one alpha by one ulp", bump_alpha)]
