import math
import random

import numpy as np
import pytest

from blindboost import paillier, shares
from blindboost.encoding import Dataset, FixedPointParams, encode_array
from blindboost.errors import (
    BinCountInvalid,
    ConfigInvalid,
    MalformedMessage,
    PhaseOrderViolation,
    PoolExhaustedWarning,
)
from blindboost.circuits import build_sub_msb_batch, int_to_bits
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
    stump_ring_bits,
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
    L_s = 3  # ceil(log2(4)) + 1: bins 0 ... 4 against the constants 1 ... 4
    assert stump_ring_bits(s) == L_s
    # one round per feature, on a circuit that takes each record's bin once
    # (L_s - 1 ANDs) and compares it with each constant c (L_s - 2 - t
    # ANDs, t the lowest set bit of c; none for c = 2^(L_s-1), a NOT)
    constants = range(1, s + 1)
    per_round = build_sub_msb_batch(L_s, n, constants).and_count
    lowest = [(c & -c).bit_length() - 1 for c in constants]
    assert per_round == n * ((L_s - 1) + sum(max(L_s - 2 - t, 0) for t in lowest))
    assert per_round == 40
    rounds = k
    # packed reveals under a 512-bit N: a feature's slot holds
    # bin + y * 2^(L_s-1) <= 2^L_s plus an (L_s + 1 + sigma)-bit mask, 45
    # bits, 511 // 45 = 11 slots, so n = 10 records take 1 ciphertext
    sigma = shares.MASK_SECURITY_BITS
    assert (L_s + sigma + 2, 511 // (L_s + sigma + 2)) == (45, 11)
    chunks = 1
    counters = report["counters"]
    assert counters["cloud"] == {
        "encryptions": rounds * chunks,   # one packed mask each
        "decryptions": 0,
        # each column folded by adds, once per run; then the packed masks
        "he_adds": k * (n - chunks) + rounds * chunks,
        "he_scalar_muls": 0,
        "and_gates": rounds * per_round,
        "ot_transfers": rounds * n * L_s,         # lambda bits
    }
    assert counters["cloud"]["encryptions"] == 2
    assert counters["csp"] == {
        "encryptions": 0,
        "decryptions": rounds * chunks,
        "he_adds": 0,
        "he_scalar_muls": 0,
        "and_gates": rounds * per_round,
        "ot_transfers": rounds * n * L_s,
    }
    assert counters["user"]["encryptions"] == n * k  # bin + y * 2^(L_s-1) per feature
    # dealer OT: SETUP, BASE_APPLY and RESULT_EVAL_MASK, then the label
    # pairs and the tables, per feature; the output labels go with the next
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
    # the base-OT session runs in SETUP: each feature's round is one U, of
    # n * L_s transfers, L_s = 2 at s = 2
    n, k, L_s = 8, 2, 2
    ot_msgs = [d for d, phase, _ in r2.transcript.messages if phase == "OT"]
    assert ot_msgs == ["cloud->csp"] * k
    setup = [d for d, phase, _ in r2.transcript.messages if phase == "SETUP"]
    assert setup == ["cloud->csp", "cloud->csp", "csp->cloud"]
    per_round = build_sub_msb_batch(L_s, n, (1, 2)).and_count
    for report in map(transcript_report, (r1.transcript, r2.transcript)):
        for party in ("cloud", "csp"):
            assert report["counters"][party]["ot_transfers"] == k * n * L_s
            assert report["counters"][party]["and_gates"] == k * per_round
    # base OT: the header and A, then the B's; per feature the reveal and U
    # (after the last output labels from the second on), then the tables;
    # DONE with the last output labels
    assert transcript_report(r1.transcript)["flights"] == 2 * k + 1
    assert transcript_report(r2.transcript)["flights"] == 2 + 2 * k + 1


# CSP's own shape in the hostile runs below: n = 2 records, k = 2 features
# and 2 bins, so stump selection's ring has L_s = 2 bits; the boosting
# protocols' ring has L = 17. A feature's slot holds
# bin + y * 2^(L_s-1) <= 2^L_s, a mask sigma bits longer and a carry bit
_N, _K, _FP, _S = 2, 2, FixedPointParams(7, 17), 2
_L_S = 2
_WIDTH = _L_S + 1 + shares.MASK_SECURITY_BITS + 1


# each a header for the ring width L that CSP expects
_FOREIGN_SETUPS = [
    (lambda L: _setup_header(_N + 28, _K, L), "other-n"),
    (lambda L: _setup_header(0, _K, L), "no-records"),
    (lambda L: _setup_header(_N, _K + 1, L), "other-k"),
    (lambda L: _setup_header(_N, _K, L + 1), "other-L"),
    (lambda L: _setup_header(_N, _K, L) + b"\x00", "trailing-bytes"),
    (lambda L: _setup_header(_N, _K, L)[:-1], "truncated"),
]


def _stump_csp(ch, kp):
    _csp_loop(ch, cfg(), kp, _N, _K, _S)


def _boosting_csp(ch, kp):
    CSPParty(cfg(), _FP, _N, _K, keypair=kp).run(ch)


@pytest.mark.parametrize("csp_main, setup", [
    pytest.param(csp_main, header(L), id=prefix + name)
    for csp_main, prefix, L in ((_stump_csp, "", _L_S),
                                (_boosting_csp, "boosting-", _FP.ring_bits))
    for header, name in _FOREIGN_SETUPS] + [
    # a stump SETUP that declares the fixed-point ring where L_s belongs
    pytest.param(_stump_csp, _setup_header(_N, _K, _FP.ring_bits), id="old-width")])
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
    ch_cloud.send("SETUP", _setup_header(_N, _K, _L_S))
    for phase, payload in messages:
        if isinstance(payload, list):
            payload = paillier.ciphertexts_to_bytes(paillier.encrypt_many(
                keypair_512.public, payload, random.Random(9)))
        ch_cloud.send(phase, payload)
    ch_cloud.close()  # any further recv raises TransportClosed
    with pytest.raises(error):
        _csp_loop(ch_csp, cfg(), keypair_512, _N, _K, _S)


def _walk_other_features(monkeypatch, bounded, edit):
    """A selection in which Cloud walks the packed columns that `edit`
    makes of the k it packs; a party left waiting fails the test."""
    pack = stump_select.pack_columns
    monkeypatch.setattr(stump_select, "pack_columns",
                        lambda *args: [edit(row) for row in pack(*args)])
    bounded(lambda: confidential_ds_select(cfg(), toy_dataset(n=6, k=2), s=2, tau=1), 30)


def test_csp_rejects_a_comparison_after_the_last(monkeypatch, bounded):
    # Cloud runs a feature past CSP's k: CSP must refuse it, or Cloud waits
    # on it forever
    with pytest.raises(PhaseOrderViolation):
        _walk_other_features(monkeypatch, bounded, lambda row: row + row[-1:])


def test_csp_refuses_done_before_the_last_feature(monkeypatch, bounded):
    # Cloud runs the first of the k = 2 features in full, then sends DONE
    with pytest.raises(PhaseOrderViolation):
        _walk_other_features(monkeypatch, bounded, lambda row: row[:1])


def _ring_bins(X, s, fp):
    """Each record's bin per feature, #{r : v_r <= x}, counted here from
    the ring comparison msb((x - v) mod 2^L) = [x < v] on the encodings."""
    xq = encode_array(X, fp)
    return np.array([[sum(((int(x) - v) % fp.q) < fp.q // 2
                          for v in threshold_constants(s, fp)) for x in row]
                     for row in xq])


@pytest.mark.parametrize("s", range(2, 18))
def test_bin_circuit_gives_the_error_bit_for_every_bin_and_label(s):
    # the stump circuit in plain: CSP's minuend is bin + y * 2^(L_s-1) plus
    # Cloud's mask, Cloud's subtrahend the mask; output r must be
    # [bin <= r] XOR y for each constant r + 1, whatever the mask
    L_s = math.ceil(math.log2(s)) + 1
    assert stump_ring_bits(s) == L_s
    circuit = build_sub_msb_batch(L_s, 1, tuple(range(1, s + 1)))
    rng = random.Random(s)
    sigma = shares.MASK_SECURITY_BITS
    masks = [0, 1, (1 << L_s) - 1, (1 << (L_s + 1 + sigma)) - 1] + \
        [rng.getrandbits(L_s + 1 + sigma) for _ in range(4)]
    for b in range(s + 1):
        for y in (0, 1):
            for m in masks:
                got = circuit.evaluate_plain(int_to_bits(b + (y << (L_s - 1)) + m, L_s),
                                             int_to_bits(m, L_s))
                assert got == [int(b <= r) ^ y for r in range(s)], (b, y, m)


@pytest.mark.parametrize("s", [2, 5, 8, 16])
def test_values_on_and_past_the_thresholds_match_the_oracle(s):
    # ties: values exactly on each threshold and one fixed-point step to
    # either side of it; edges: the domain bounds +-4 and values past them
    grid = threshold_grid(s)
    step = 1 / 128
    values = np.concatenate([grid, grid - step, grid + step,
                             [-4.0, 4.0, -4.0 - step, 4.0 - step, -9.5, 9.5, 0.0]])
    rng = np.random.default_rng(s)
    X = np.stack([values, rng.permutation(values)], axis=1)
    y = np.where(rng.random(len(values)) < 0.5, 1, -1).astype(np.int8)
    ds = Dataset(X, y)
    fp = FixedPointParams.for_dimension(2)
    bins = _ring_bins(X, s, fp)
    assert {0, s} <= set(bins.ravel())  # both ends of the grid are hit
    res = confidential_ds_select(cfg(), ds, s=s, tau=2)
    (oracle_idx, oracle_alpha, _), oracle_errors, _, _ = \
        exhaustive_select_oracle(ds, s=s, tau=2)
    assert np.array_equal(res.error_vectors, oracle_errors)
    assert res.selected_indices == oracle_idx
    assert res.alphas == oracle_alpha


def _read_labels_and_bins(error_vectors, k, s):
    """What CSP's error vectors give: per record its label (-1 where they
    do not fix it) and per feature its bin (-1 likewise). The '+1' stump
    of threshold r errs by [bin <= r] XOR y."""
    bits = error_vectors[0::2].reshape(k, s, -1).transpose(2, 0, 1)  # (n, k, s)
    n = bits.shape[0]
    labels, bins = np.full(n, -1), np.full((n, k), -1)
    for i in range(n):
        stepped = [row for row in bits[i] if row.min() != row.max()]
        if stepped:  # non-decreasing when y = 0, non-increasing when y = 1
            labels[i] = stepped[0][0]
            bins[i] = (bits[i] == labels[i]).sum(axis=1)  # bin of the s bits equal y
    return labels, bins


def test_error_vectors_give_csp_every_label_and_bin():
    # CSP's designed output already fixes each record's label and bins, so
    # the bins that the users submit show it nothing more; the exception is
    # a record whose every feature lies below the first threshold or at or
    # above the last
    s, k = 8, 3
    ds = toy_dataset(n=30, k=k, seed=8)
    outside = np.array([[-4.5, 3.9, -3.9], [5.0, 6.0, -7.0]])
    X = np.concatenate([ds.X, outside])
    y01 = (np.concatenate([ds.y, [1, -1]]) == 1).astype(int)
    ds = Dataset(X, np.where(y01 == 1, 1, -1).astype(np.int8))
    truth = _ring_bins(X, s, FixedPointParams.for_dimension(k))
    hidden = ((truth == 0) | (truth == s)).all(axis=1)
    assert hidden.sum() >= 2 and not hidden.all()
    _, oracle_errors, _, _ = exhaustive_select_oracle(ds, s=s, tau=1)
    protocol_errors = confidential_ds_select(cfg(seed=5), ds, s=s, tau=1).error_vectors
    for errors in (oracle_errors, protocol_errors):
        labels, bins = _read_labels_and_bins(errors, k, s)
        assert np.array_equal(labels[~hidden], y01[~hidden])
        assert np.array_equal(bins[~hidden], truth[~hidden])
        assert (labels[hidden] == -1).all()
