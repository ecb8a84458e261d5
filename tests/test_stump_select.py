import random
import threading

import numpy as np
import pytest

from blindboost import paillier, shares
from blindboost.encoding import Dataset
from blindboost.errors import BinCountInvalid, MalformedMessage, PhaseOrderViolation
from blindboost.protocol import (
    HE_GC,
    ProtocolConfig,
    Seeds,
    stump_select,
    transport,
    wire,
)
from blindboost.protocol.stump_select import (
    _csp_loop,
    confidential_ds_select,
    exhaustive_select_oracle,
    stump_catalog,
    threshold_grid,
)


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
    from blindboost.protocol.transcript import transcript_report
    report = transcript_report(res.transcript)
    n, k = 10, 2
    L = 2 * 7 + 1 + 1  # k=2 -> ceil(log2(2)) = 1
    per_comparison = 10 * (L - 1)
    assert report["counters"]["csp"]["and_gates"] == s * 2 * per_comparison
    rounds = s * k
    # packed reveals under a 512-bit N: a comparison's slot holds
    # x - v + q < 2^(L+1) plus an (L + 1 + sigma)-bit mask, 58 bits,
    # 511 // 58 = 8 slots, so n = 10 records take 2 ciphertexts; a label's
    # slot holds y plus a (1 + sigma)-bit mask, 42 bits, 12 slots, 1 ciphertext
    sigma = shares.MASK_SECURITY_BITS
    assert (L + sigma + 2, 511 // (L + sigma + 2)) == (58, 8)
    assert (sigma + 2, 511 // (sigma + 2)) == (42, 12)
    chunks, label_chunks = 2, 1
    counters = report["counters"]
    assert counters["cloud"] == {
        "encryptions": label_chunks + rounds * chunks,   # one packed mask each
        "decryptions": 0,
        # Horner folds of the labels and of each column, once per run; then
        # the packed masks, and per comparison the threshold shifts
        "he_adds": (n - label_chunks) + label_chunks + k * (n - chunks)
                   + rounds * 2 * chunks,
        "he_scalar_muls": (n - label_chunks) + k * (n - chunks),
        "and_gates": rounds * per_comparison,
        "ot_transfers": rounds * n * L,           # lambda bits
    }
    assert counters["cloud"]["encryptions"] == 17
    assert counters["csp"] == {
        "encryptions": 0,
        "decryptions": rounds * chunks + label_chunks,
        "he_adds": 0,
        "he_scalar_muls": 0,
        "and_gates": rounds * per_comparison,
        "ot_transfers": rounds * n * L,
    }
    assert counters["user"]["encryptions"] == n * k + n


def test_csp_label_view_hides_labels(monkeypatch):
    # CSP decrypts y + m for each record; with m drawn like every other mask,
    # the values span more than sigma bits and only their parity, XOR the
    # parity of m, is y
    masks, revealed = [], []
    sample, unpack = shares.sample_masks, paillier.unpack_slots

    def spy_masks(count, ring_bits, rng):
        out = sample(count, ring_bits, rng)
        if ring_bits == 1:
            masks.append(out)
        return out

    def spy_unpack(*args):
        out = unpack(*args)
        revealed.append(out)
        return out

    monkeypatch.setattr(shares, "sample_masks", spy_masks)
    monkeypatch.setattr(paillier, "unpack_slots", spy_unpack)
    ds = toy_dataset(n=24, k=3, seed=8)
    confidential_ds_select(cfg(seed=17), ds, s=2, tau=1)
    y01 = (ds.y == 1).astype(int)
    assert len(masks) == 1
    labels = revealed[0]  # SETUP's reveal comes first
    assert max(v.bit_length() for v in labels) > shares.MASK_SECURITY_BITS
    assert [(v & 1) ^ (m & 1) for v, m in zip(labels, masks[0])] == y01.tolist()
    assert labels == [int(y) + m for y, m in zip(y01, masks[0])]


def test_base_ot_mode_matches_dealer():
    ds = toy_dataset(n=8, k=2, seed=7)
    r1 = confidential_ds_select(cfg(seed=15), ds, s=2, tau=1)
    r2 = confidential_ds_select(cfg(seed=15, ot_mode="base"), ds, s=2, tau=1)
    assert np.array_equal(r1.error_vectors, r2.error_vectors)
    assert r1.selected_indices == r2.selected_indices
    # the base-OT session runs in SETUP: each comparison is U and its reply
    comparisons = 2 * 2  # s * k
    ot_msgs = [d for d, phase, _ in r2.transcript.messages if phase == "OT"]
    assert ot_msgs == ["cloud->csp", "csp->cloud"] * comparisons
    setup = [d for d, phase, _ in r2.transcript.messages if phase == "SETUP"]
    assert setup == ["cloud->csp", "cloud->csp", "csp->cloud", "cloud->csp"]


# slot widths of the hostile SETUP below (L = 17): a label y < 2^1 and a
# comparison's x - v + q < 2^(L+1), each with a mask sigma bits longer and
# a carry bit
_LABEL_WIDTH = shares.MASK_SECURITY_BITS + 2
_WIDTH = 17 + 1 + shares.MASK_SECURITY_BITS + 1


def _setup_payload(kp, declared_n, labels):
    """A SETUP declaring `declared_n` records, L = 17, that carries one
    ciphertext for each plaintext in `labels`."""
    cts = paillier.encrypt_many(kp.public, labels, random.Random(8))
    return (wire.pack_u32(declared_n) + wire.pack_u32(17)
            + paillier.ciphertexts_to_bytes(cts))


@pytest.mark.parametrize("declared_n, labels, messages, error", [
    # a SETUP whose record count does not match its packed label ciphertexts:
    # 30 records take 3 of 12 slots each
    (30, [0], [], MalformedMessage),
    # a SETUP that declares no records and carries no label ciphertexts
    (0, [], [], MalformedMessage),
    # a packed label plaintext with bits above its 2 used slots
    (2, [1 << 2 * _LABEL_WIDTH], [], MalformedMessage),
    # a comparison index past the catalog's 4 base comparisons
    (2, [0], [("BASE_APPLY", wire.pack_u32(99))], MalformedMessage),
    # comparisons out of catalog order
    (2, [0], [("BASE_APPLY", wire.pack_u32(1))], MalformedMessage),
    # DONE before the last comparison
    (2, [0], [("DONE", b"")], PhaseOrderViolation),
    # a comparison's packed masked differences one ciphertext short of or
    # over the one that 2 records take (a list payload stands for one
    # ciphertext of each plaintext in it)
    (2, [0], [("BASE_APPLY", wire.pack_u32(0)), ("RESULT_EVAL_MASK", [])],
     MalformedMessage),
    (2, [0], [("BASE_APPLY", wire.pack_u32(0)), ("RESULT_EVAL_MASK", [0, 0])],
     MalformedMessage),
    # a packed comparison plaintext with bits above its 2 used slots
    (2, [0], [("BASE_APPLY", wire.pack_u32(0)),
              ("RESULT_EVAL_MASK", [1 << 2 * _WIDTH])], MalformedMessage),
], ids=["setup-count", "setup-no-records", "setup-high-bits", "index-out-of-range", "index-out-of-order",
        "early-done", "missing-ciphertext", "extra-ciphertext", "high-bits"])
def test_csp_loop_rejects_hostile_cloud(keypair_512, declared_n, labels, messages,
                                        error):
    ch_cloud, ch_csp, _ = transport.memory_pair()
    ch_cloud.send("SETUP", _setup_payload(keypair_512, declared_n, labels))
    for phase, payload in messages:
        if isinstance(payload, list):
            payload = paillier.ciphertexts_to_bytes(paillier.encrypt_many(
                keypair_512.public, payload, random.Random(9)))
        ch_cloud.send(phase, payload)
    ch_cloud.close()  # any further recv raises TransportClosed
    with pytest.raises(error):
        _csp_loop(ch_csp, cfg(), keypair_512, n_catalog=8)


def test_csp_rejects_a_comparison_after_the_last(monkeypatch):
    # CSP's catalog is one base comparison short of the one Cloud walks: CSP
    # must refuse Cloud's extra comparison, or Cloud waits on it forever
    full = stump_select.stump_catalog
    monkeypatch.setattr(stump_select, "stump_catalog", lambda k, s: full(k, s)[:-2])
    outcome = []

    def run():
        try:
            confidential_ds_select(cfg(), toy_dataset(n=6, k=2), s=2, tau=1)
        except Exception as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "Cloud was left waiting on its extra comparison"
    assert len(outcome) == 1 and isinstance(outcome[0], PhaseOrderViolation)
