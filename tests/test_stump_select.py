import random
import threading

import numpy as np
import pytest

from blindboost import paillier
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
    counters = report["counters"]
    assert counters["cloud"] == {
        "encryptions": n + rounds * n,            # label masks, then lambda
        "decryptions": 0,
        "he_adds": n + 2 * rounds * n,
        "he_scalar_muls": 0,
        "and_gates": rounds * per_comparison,
        "ot_transfers": rounds * (n * L + n),     # lambda bits and label masks
    }
    assert counters["csp"] == {
        "encryptions": 0,
        "decryptions": rounds * n + n,            # one label decryption each
        "he_adds": 0,
        "he_scalar_muls": 0,
        "and_gates": rounds * per_comparison,
        "ot_transfers": rounds * (n * L + n),
    }
    assert counters["user"]["encryptions"] == n * k + n


def test_base_ot_mode_matches_dealer():
    ds = toy_dataset(n=8, k=2, seed=7)
    r1 = confidential_ds_select(cfg(seed=15), ds, s=2, tau=1)
    r2 = confidential_ds_select(cfg(seed=15, ot_mode="base"), ds, s=2, tau=1)
    assert np.array_equal(r1.error_vectors, r2.error_vectors)
    assert r1.selected_indices == r2.selected_indices


def _setup_payload(kp, declared_n):
    """A SETUP declaring `declared_n` records that carries two label ciphertexts."""
    cts = paillier.encrypt_many(kp.public, [0, 1], random.Random(8))
    return (wire.pack_u32(declared_n) + wire.pack_u32(17)
            + paillier.ciphertexts_to_bytes(cts))


@pytest.mark.parametrize("declared_n, messages, error", [
    # a SETUP whose record count does not match its label ciphertexts
    (5, [], MalformedMessage),
    # a comparison index past the catalog's 4 base comparisons
    (2, [("BASE_APPLY", wire.pack_u32(99))], MalformedMessage),
    # comparisons out of catalog order
    (2, [("BASE_APPLY", wire.pack_u32(1))], MalformedMessage),
    # DONE before the last comparison
    (2, [("DONE", b"")], PhaseOrderViolation),
    # a comparison's masked differences one ciphertext short or over (an int
    # payload stands for that many valid ciphertexts)
    (2, [("BASE_APPLY", wire.pack_u32(0)), ("RESULT_EVAL_MASK", 1)], MalformedMessage),
    (2, [("BASE_APPLY", wire.pack_u32(0)), ("RESULT_EVAL_MASK", 3)], MalformedMessage),
], ids=["setup-count", "index-out-of-range", "index-out-of-order", "early-done",
        "missing-ciphertext", "extra-ciphertext"])
def test_csp_loop_rejects_hostile_cloud(keypair_512, declared_n, messages, error):
    ch_cloud, ch_csp, _ = transport.memory_pair()
    ch_cloud.send("SETUP", _setup_payload(keypair_512, declared_n))
    for phase, payload in messages:
        if isinstance(payload, int):
            payload = paillier.ciphertexts_to_bytes(paillier.encrypt_many(
                keypair_512.public, [0] * payload, random.Random(9)))
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
