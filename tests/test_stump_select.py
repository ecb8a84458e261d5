import random
import threading

import numpy as np
import pytest

from blindboost import paillier, shares
from blindboost.encoding import Dataset, FixedPointParams
from blindboost.errors import (
    BinCountInvalid,
    ConfigInvalid,
    MalformedMessage,
    PhaseOrderViolation,
    PoolExhaustedWarning,
)
from blindboost.circuits import build_sub_msb_batch
from blindboost.protocol import (
    HE_GC,
    ProtocolConfig,
    Seeds,
    parties,
    stump_select,
    transport,
    wire,
)
from blindboost.protocol.parties import CSPParty, _setup_header
from blindboost.protocol.stump_select import (
    _csp_loop,
    confidential_ds_select,
    exhaustive_select_oracle,
    stump_catalog,
    threshold_constants,
    threshold_grid,
)
from blindboost.protocol.transcript import transcript_report


def cfg(seed=1, **kw):
    kw.setdefault("ot_mode", "dealer")
    return ProtocolConfig(construction=HE_GC, tau=3, p_max=3,
                          seeds=Seeds(cloud=seed, csp=seed + 1, data=seed + 2), **kw)


def toy_dataset(n=40, k=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, k))
    y = np.where(X[:, 0] < 0.5, 1, -1).astype(np.int8)
    flip = rng.random(n) < 0.1
    y[flip] = -y[flip]
    return Dataset(X, y)


def test_threshold_grid_inside_domain():
    grid = threshold_grid(16)
    assert len(grid) == 16
    assert grid.min() > -4 and grid.max() < 4
    with pytest.raises(BinCountInvalid):
        threshold_grid(1)


def test_catalog_size_and_conjugates():
    catalog = stump_catalog(3, 8)
    assert len(catalog) == 2 * 8 * 3
    assert catalog[0][2] == 1 and catalog[1][2] == -1
    assert catalog[0][:2] == catalog[1][:2]


def test_conjugate_vectors_are_complements():
    ds = toy_dataset(n=25, k=2, seed=3)
    res = confidential_ds_select(cfg(), ds, s=4, tau=2)
    ev = res.error_vectors
    for base in range(0, ev.shape[0], 2):
        assert np.array_equal(ev[base], 1 - ev[base + 1])


def test_selected_indices_match_plaintext_oracle():
    ds = toy_dataset(n=40, k=2, seed=4)
    res = confidential_ds_select(cfg(seed=9), ds, s=8, tau=3)
    (oracle_idx, oracle_alpha, _), oracle_errors, _, _ = \
        exhaustive_select_oracle(ds, s=8, tau=3)
    assert np.array_equal(res.error_vectors, oracle_errors)
    assert res.selected_indices == oracle_idx
    assert res.alphas == oracle_alpha


def test_perfect_threshold_dataset_selects_it():
    # single feature, clean split: the protocol must find a separating stump
    rng = np.random.default_rng(5)
    X = np.concatenate([rng.uniform(-3, -1, 20), rng.uniform(1, 3, 20)])[:, None]
    y = np.concatenate([np.ones(20), -np.ones(20)]).astype(np.int8)
    ds = Dataset(X, y)
    res = confidential_ds_select(cfg(seed=11), ds, s=8, tau=1)
    (oracle_idx, _, _), _, _, catalog = exhaustive_select_oracle(ds, s=8, tau=1)
    assert res.selected_indices == oracle_idx
    model_acc = (res.model.predict(X) == y).mean()
    assert model_acc == 1.0


def test_gc_gate_counter_scales_with_grid():
    ds = toy_dataset(n=10, k=2, seed=6)
    s = 4
    res = confidential_ds_select(cfg(seed=13), ds, s=s, tau=1)
    report = transcript_report(res.transcript)
    n, k = 10, 2
    fp = FixedPointParams.for_dimension(k)
    L = 2 * 7 + 1 + 1  # k=2 -> ceil(log2(2)) = 1
    assert fp.ring_bits == L
    # one round per feature, on a circuit that takes each record's value
    # once (L - 1 ANDs) and compares it with each threshold v (L - 2 - t
    # ANDs, t the lowest set bit of v's encoding)
    constants = threshold_constants(s, fp)
    per_round = build_sub_msb_batch(L, n, constants).and_count
    lowest = [(v & -v).bit_length() - 1 for v in constants]
    assert per_round == n * ((L - 1) + sum(L - 2 - t for t in lowest))
    rounds = k
    # packed reveals under a 512-bit N: a feature's slot holds
    # x + y * 2^(L-1) < 2^(L+1) plus an (L + 1 + sigma)-bit mask, 58 bits,
    # 511 // 58 = 8 slots, so n = 10 records take 2 ciphertexts
    sigma = shares.MASK_SECURITY_BITS
    assert (L + sigma + 2, 511 // (L + sigma + 2)) == (58, 8)
    chunks = 2
    counters = report["counters"]
    assert counters["cloud"] == {
        "encryptions": rounds * chunks,   # one packed mask each
        "decryptions": 0,
        # each column folded by adds, once per run; then the packed masks
        "he_adds": k * (n - chunks) + rounds * chunks,
        "he_scalar_muls": 0,
        "and_gates": rounds * per_round,
        "ot_transfers": rounds * n * L,           # lambda bits
    }
    assert counters["cloud"]["encryptions"] == 4
    assert counters["csp"] == {
        "encryptions": 0,
        "decryptions": rounds * chunks,
        "he_adds": 0,
        "he_scalar_muls": 0,
        "and_gates": rounds * per_round,
        "ot_transfers": rounds * n * L,
    }
    assert counters["user"]["encryptions"] == n * k  # x + y * 2^(L-1) per feature
    # dealer OT: SETUP, BASE_APPLY and RESULT_EVAL_MASK, then the tables
    # and the label pairs, per feature; the output labels go with the next
    # feature's reveal or with DONE
    assert report["flights"] == 2 * k + 1


def test_single_bin_raises_before_keygen(monkeypatch):
    def keygen(*args):
        raise AssertionError("a key was generated for an invalid grid")

    monkeypatch.setattr(paillier, "keygen", keygen)
    with pytest.raises(BinCountInvalid, match="need at least 2 bins, got 1"):
        confidential_ds_select(cfg(), toy_dataset(n=6, k=2), s=1, tau=1)


@pytest.mark.parametrize("tau", [0, -3])
def test_tau_below_one_raises_before_keygen(monkeypatch, tau):
    def keygen(*args):
        raise AssertionError("a key was generated for a selection of no stumps")

    monkeypatch.setattr(paillier, "keygen", keygen)
    with pytest.raises(ConfigInvalid, match=f"need tau >= 1, got {tau}"):
        confidential_ds_select(cfg(), toy_dataset(n=12, k=2), s=4, tau=tau)


def test_selection_that_stops_before_tau_warns():
    # equal records with opposite labels: every stump errs on exactly half
    # the weight, so none is selected
    ds = Dataset(np.array([[0.5, -1.0], [0.5, -1.0]]), np.array([1, -1], dtype=np.int8))
    with pytest.warns(PoolExhaustedWarning, match="only 0/2 stumps"):
        res = confidential_ds_select(cfg(), ds, s=2, tau=2)
    assert res.selected_indices == [] and res.model.classifiers == []


def test_base_ot_mode_matches_dealer():
    ds = toy_dataset(n=8, k=2, seed=7)
    r1 = confidential_ds_select(cfg(seed=15), ds, s=2, tau=1)
    r2 = confidential_ds_select(cfg(seed=15, ot_mode="base"), ds, s=2, tau=1)
    assert np.array_equal(r1.error_vectors, r2.error_vectors)
    assert r1.selected_indices == r2.selected_indices
    # the base-OT session runs in SETUP: each feature's round is U and its
    # reply, n * L transfers
    n, k, fp = 8, 2, FixedPointParams.for_dimension(2)
    L = fp.ring_bits
    ot_msgs = [d for d, phase, _ in r2.transcript.messages if phase == "OT"]
    assert ot_msgs == ["cloud->csp", "csp->cloud"] * k
    setup = [d for d, phase, _ in r2.transcript.messages if phase == "SETUP"]
    assert setup == ["cloud->csp", "cloud->csp", "csp->cloud", "cloud->csp"]
    per_round = build_sub_msb_batch(L, n, threshold_constants(2, fp)).and_count
    for report in map(transcript_report, (r1.transcript, r2.transcript)):
        for party in ("cloud", "csp"):
            assert report["counters"][party]["ot_transfers"] == k * n * L
            assert report["counters"][party]["and_gates"] == k * per_round
    # base OT: the header and A, then the B's; per feature the seed pairs or
    # the last output labels with the reveal, the tables, U, the masked
    # pairs; DONE with the last output labels
    assert transcript_report(r1.transcript)["flights"] == 2 * k + 1
    assert transcript_report(r2.transcript)["flights"] == 2 + 4 * k + 1


# CSP's own shape in the hostile runs below: n = 2 records, k = 2 features,
# L = 17 and 2 bins. A feature's slot holds x + y * 2^(L-1) < 2^(L+1), a
# mask sigma bits longer and a carry bit
_N, _K, _FP, _S = 2, 2, FixedPointParams(7, 17), 2
_L = _FP.ring_bits
_WIDTH = _L + 1 + shares.MASK_SECURITY_BITS + 1


_FOREIGN_SETUPS = [
    (_setup_header(_N + 28, _K, _L), "other-n"),
    (_setup_header(0, _K, _L), "no-records"),
    (_setup_header(_N, _K + 1, _L), "other-k"),
    (_setup_header(_N, _K, _L + 1), "other-L"),
    (_setup_header(_N, _K, _L) + b"\x00", "trailing-bytes"),
    (_setup_header(_N, _K, _L)[:-1], "truncated"),
]


def _stump_csp(ch, kp):
    _csp_loop(ch, cfg(), kp, _N, _K, _FP, _S)


def _boosting_csp(ch, kp):
    CSPParty(cfg(), _FP, _N, _K, keypair=kp).run(ch)


@pytest.mark.parametrize("csp_main, setup", [
    pytest.param(csp_main, setup, id=prefix + name)
    for csp_main, prefix in ((_stump_csp, ""), (_boosting_csp, "boosting-"))
    for setup, name in _FOREIGN_SETUPS])
def test_csp_loop_refuses_a_foreign_setup(keypair_512, monkeypatch, csp_main, setup):
    # both CSP openings, stump selection's and the boosting protocols' (whose
    # dimension stands where k does): a Cloud-declared shape must not reach
    # the circuit builder, or a hostile n would have CSP build n * 2L wires
    built = []
    monkeypatch.setattr(parties, "build_sub_msb_batch", lambda *a: built.append(a))
    ch_cloud, ch_csp, _ = transport.memory_pair()
    ch_cloud.send("SETUP", setup)
    ch_cloud.close()
    with pytest.raises(MalformedMessage, match="SETUP does not declare"):
        csp_main(ch_csp, keypair_512)
    assert built == []


@pytest.mark.parametrize("messages, error", [
    # a feature index past the k = 2 features, at k and far past it
    ([("BASE_APPLY", wire.pack_u32(_K))], MalformedMessage),
    ([("BASE_APPLY", wire.pack_u32(99))], MalformedMessage),
    # features out of order
    ([("BASE_APPLY", wire.pack_u32(1))], MalformedMessage),
    # a feature index cut short or with a trailing byte
    ([("BASE_APPLY", wire.pack_u32(0)[:-1])], MalformedMessage),
    ([("BASE_APPLY", wire.pack_u32(0) + b"\x00")], MalformedMessage),
    # DONE before the first feature
    ([("DONE", b"")], PhaseOrderViolation),
    # a feature's packed masked values one ciphertext short of or over the
    # one that 2 records take (a list payload stands for one ciphertext of
    # each plaintext in it)
    ([("BASE_APPLY", wire.pack_u32(0)), ("RESULT_EVAL_MASK", [])], MalformedMessage),
    ([("BASE_APPLY", wire.pack_u32(0)), ("RESULT_EVAL_MASK", [0, 0])], MalformedMessage),
    # a packed feature plaintext with bits above its 2 used slots
    ([("BASE_APPLY", wire.pack_u32(0)), ("RESULT_EVAL_MASK", [1 << 2 * _WIDTH])],
     MalformedMessage),
], ids=["index-k", "index-out-of-range", "index-out-of-order", "short-index",
        "trailing-index-byte", "early-done", "missing-ciphertext", "extra-ciphertext",
        "high-bits"])
def test_csp_loop_rejects_hostile_cloud(keypair_512, messages, error):
    ch_cloud, ch_csp, _ = transport.memory_pair()
    ch_cloud.send("SETUP", _setup_header(_N, _K, _L))
    for phase, payload in messages:
        if isinstance(payload, list):
            payload = paillier.ciphertexts_to_bytes(paillier.encrypt_many(
                keypair_512.public, payload, random.Random(9)))
        ch_cloud.send(phase, payload)
    ch_cloud.close()  # any further recv raises TransportClosed
    with pytest.raises(error):
        _csp_loop(ch_csp, cfg(), keypair_512, _N, _K, _FP, _S)


def _walk_other_features(monkeypatch, edit):
    """A selection in which Cloud walks the packed columns that `edit`
    makes of the k it packs; returns what the run raised."""
    pack = stump_select.pack_columns
    monkeypatch.setattr(stump_select, "pack_columns",
                        lambda *args: [edit(row) for row in pack(*args)])
    outcome = []

    def run():
        try:
            confidential_ds_select(cfg(), toy_dataset(n=6, k=2), s=2, tau=1)
        except Exception as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "a party was left waiting"
    return outcome


def test_csp_rejects_a_comparison_after_the_last(monkeypatch):
    # Cloud runs a feature past CSP's k: CSP must refuse it, or Cloud waits
    # on it forever
    outcome = _walk_other_features(monkeypatch, lambda row: row + row[-1:])
    assert len(outcome) == 1 and isinstance(outcome[0], PhaseOrderViolation)


def test_csp_refuses_done_before_the_last_feature(monkeypatch):
    # Cloud runs the first of the k = 2 features in full, then sends DONE
    outcome = _walk_other_features(monkeypatch, lambda row: row[:1])
    assert len(outcome) == 1 and isinstance(outcome[0], PhaseOrderViolation)
