import contextlib
import functools
import random
import re
import threading
import types

import numpy as np
import pytest

from blindboost import paillier, shares
from blindboost.boosting import boost_rlc
from blindboost.circuits import build_sub_msb_batch, record_bits
from blindboost.encoding import (
    Dataset,
    FixedPointParams,
    encode_array,
    fold_labels,
    ring_indicators,
    ring_matvec,
)
from blindboost.errors import (
    BlindBoostError,
    ConfigInvalid,
    IterationOutOfRange,
    MalformedMessage,
    ModeNotPermittedInSecureProfile,
    OTFailure,
    PartMismatch,
    PartyTimeout,
    PhaseOrderViolation,
    PoolExhaustedWarning,
)
from blindboost.protocol import (
    HE_GC,
    SECSH_GC,
    DistributedModel,
    ProtocolConfig,
    Seeds,
    engine,
    paper_faithful,
    parties,
    reconstruct_model,
    run_learning,
    setup,
    transcript_report,
    transport,
    wire,
)
from blindboost.garbling import evaluate, garble
from blindboost.ot import dealer_choose
from blindboost.protocol.parties import (
    CloudParty,
    CSPParty,
    LabelOT,
    _setup_header,
    evaluator_round,
    garbler_round,
    open_cloud,
    open_csp,
    pack_columns,
    packed_sign_cloud,
    packed_sign_csp,
    reveal_width,
)
from blindboost.protocol import config
from blindboost.protocol.config import stream
from blindboost.protocol.stump_select import confidential_ds_select
from blindboost.protocol.transcript import DONE, Counters


def toy_folded(n=8, k=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.5, 1.5, size=(n, k))
    y = rng.choice([-1, 1], size=n).astype(np.int8)
    # standardized columns keep the ring in range
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    return fold_labels(Dataset(X, y))


def label_pairs(count):
    """`count` distinct label pairs: pair i is (byte i, byte i + 1) x 16."""
    blob = b"".join(bytes([i]) * 16 + bytes([i + 1]) * 16 for i in range(count))
    return np.frombuffer(blob, dtype=np.uint8).reshape(count, 2, 16)


def cfg_for(construction, tau=2, p_max=6, ot_mode="dealer", seeds=Seeds(), **kw):
    return ProtocolConfig(construction=construction, tau=tau, p_max=p_max,
                          ot_mode=ot_mode, seeds=seeds, **kw)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        ProtocolConfig(construction="bogus", tau=1, p_max=2)
    with pytest.raises(ConfigInvalid):
        ProtocolConfig(construction=HE_GC, tau=5, p_max=3)
    with pytest.raises(ConfigInvalid, match="modp-999"):
        ProtocolConfig(construction=HE_GC, tau=1, p_max=2, ot_group="modp-999")
    with pytest.raises(ModeNotPermittedInSecureProfile):
        ProtocolConfig(construction=HE_GC, tau=1, p_max=2, ot_mode="dealer",
                       key_bits=2048, secure_profile=True)


def test_secure_profile_requires_the_2048_bit_ot_group():
    with pytest.raises(ConfigInvalid, match="modp-2048"):
        ProtocolConfig(construction=HE_GC, tau=1, p_max=2, key_bits=2048,
                       ot_group="modp-768", secure_profile=True)
    assert paper_faithful(HE_GC, tau=1, p_max=2).ot_group == "modp-2048"


_STREAM_TAGS = (b"keyg", b"user", b"mask", b"encr", b"garb", b"ot_r", b"ot_s")


def _streams_meet(seeds):
    """Whether two (role, tag) streams of `seeds` start in the same state."""
    states = {stream(seed, tag).getstate()
              for seed in (seeds.cloud, seeds.csp, seeds.data) for tag in _STREAM_TAGS}
    return len(states) < 3 * len(_STREAM_TAGS)


def test_derived_role_seeds_give_distinct_streams():
    # the hand fan-out (s, s + 1, s + 2) gave Cloud's ot_r stream to CSP's
    # ot_s at every even s; such role seeds are now refused
    for s in range(0, 512, 2):
        with pytest.raises(ConfigInvalid, match="ot_s stream is one of cloud's"):
            Seeds(s, s + 1, s + 2)
    assert not any(_streams_meet(Seeds.derive(s)) for s in range(512))


@pytest.mark.parametrize("seeds, stream_tag", [((4, 5, 6), "ot_s"), ((8, 9, 10), "ot_s"),
                                               ((7, 7, 9), "keyg")],
                         ids=["4-5-6", "8-9-10", "equal-role-seeds"])
def test_role_seeds_whose_streams_meet_are_refused(seeds, stream_tag):
    with pytest.raises(ConfigInvalid, match=f"{stream_tag} stream"):
        Seeds(*seeds)
    assert Seeds() == Seeds(1, 2, 3)  # the defaults stay accepted


@pytest.mark.filterwarnings("ignore::blindboost.errors.PoolExhaustedWarning")
def test_seed_check_covers_every_stream_the_roles_draw(monkeypatch):
    # the (seed, tag) pairs drawn by both constructions and stump selection
    # under base OT are exactly the role tags that Seeds checks
    drawn = set()

    def spy(seed, tag):
        drawn.add((seed, tag))
        return stream(seed, tag)

    for module in (parties, engine):
        monkeypatch.setattr(module, "stream", spy)
    for construction in (HE_GC, SECSH_GC):
        run_learning(cfg_for(construction, tau=1, p_max=2, ot_mode="base"),
                     toy_folded(n=4, k=2, seed=3))
    confidential_ds_select(cfg_for(HE_GC, tau=1, p_max=1, ot_mode="base"),
                           Dataset(np.linspace(-1.5, 1.5, 8).reshape(4, 2),
                                   np.array([1, -1, -1, 1])), s=2)
    seeds = Seeds()
    role = {seeds.cloud: "cloud", seeds.csp: "csp", seeds.data: "data"}
    assert {(role[seed], tag) for seed, tag in drawn} == \
        {(r, tag) for r, tags in config._ROLE_TAGS.items() for tag in tags}


# ---------------------------------------------------------------------------
# setup


def test_setup_he_gc_states():
    folded = toy_folded(n=4, k=2)
    cloud, csp = setup(cfg_for(HE_GC), folded)
    assert [len(row) for row in cloud.enc_data] == [3] * 4
    assert cloud.z0 is None  # no plaintext rows at the cloud
    assert csp.keypair is not None
    assert np.allclose(csp.delta, 0.25)


def test_setup_secsh_reconstructs():
    folded = toy_folded(n=5, k=2)
    cloud, csp = setup(cfg_for(SECSH_GC), folded)
    fp = cloud.fp
    zq = encode_array(folded.Z, fp)
    mask = np.uint64(fp.q - 1)
    assert np.array_equal((cloud.z0 + csp.z1) & mask, zq)


def test_knowledge_separation_structural():
    # Cloud's state has no field for sample weights, model weights or any
    # decrypted matrix-vector result; CSP's has no plaintext classifier pool.
    cloud_fields = set(vars(CloudParty(cfg_for(HE_GC), FixedPointParams(7, 18),
                                       2, 2)).keys())
    csp_fields = set(vars(CSPParty(cfg_for(HE_GC), FixedPointParams(7, 18),
                                   2, 2)).keys())
    assert {"delta", "accepted"}.isdisjoint(cloud_fields)
    assert {"tried_w", "pool_rng", "enc_data", "z0"}.isdisjoint(csp_fields)


_CLOUD_FIELDS = {"cfg", "fp", "n", "dim", "_value_bits", "enc_data", "csp_public",
                 "packed_data", "keypair", "z0", "pool_rng", "side", "tried_w",
                 "acceptance"}
_CSP_FIELDS = {"cfg", "fp", "n", "dim", "_value_bits", "keypair", "cloud_public", "z1",
               "side", "delta", "accepted", "indicator_history"}


@pytest.mark.parametrize("construction", [HE_GC, SECSH_GC])
def test_parties_keep_no_trial_secret_after_a_run(construction):
    # Cloud ends a run with its data, its RLCs and CSP's verdicts, CSP with
    # its keys or share, the weights and the indicators: no field holds a
    # trial's masks, masked share or encrypted matrix-vector product
    _, transcript, cloud, csp = run_learning(cfg_for(construction, tau=2, p_max=6),
                                             toy_folded(n=6, k=2, seed=17),
                                             with_parties=True)
    assert transcript.iterations() >= 2
    assert set(vars(cloud)) == _CLOUD_FIELDS
    assert set(vars(csp)) == _CSP_FIELDS


# ---------------------------------------------------------------------------
# one trial per call


def run_trials(cloud, csp, trials):
    """SETUP, then `trials` trials over one in-memory channel pair; returns
    the transcript."""
    ch_cloud, ch_csp, transcript = transport.memory_pair()

    def cloud_main():
        cloud.open(ch_cloud)
        for t in range(1, trials + 1):
            cloud.trial(ch_cloud, t)

    def csp_main():
        csp.open(ch_csp)
        for _ in range(trials):
            csp.trial(ch_csp)

    engine.run_pair(cloud_main, csp_main, ch_cloud, ch_csp)
    return transcript


def _spy(monkeypatch, module, name):
    """The values that `module.name` returns from now on, in call order."""
    real, seen = getattr(module, name), []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]
    monkeypatch.setattr(module, name, spy)
    return seen


def test_base_apply_he_gc_decrypts_to_plaintext_encoding(monkeypatch):
    folded = toy_folded(n=3, k=2, seed=1)
    cloud, csp = setup(cfg_for(HE_GC), folded)
    eu = _spy(monkeypatch, paillier, "he_matvec")
    run_trials(cloud, csp, 1)
    fp = cloud.fp
    w = cloud.tried_w[0]
    expected = ring_matvec(encode_array(folded.Z, fp), encode_array(w, fp), fp)
    # a slot holds u < 2^(2L + ceil(log2 3)), its mask and a carry bit
    width = 2 * fp.ring_bits + 2 + shares.MASK_SECURITY_BITS + 1
    slots = paillier.slot_count(csp.keypair.public, width)
    packed = [paillier.decrypt(csp.keypair, c) for c in eu[0]]
    got = [v % fp.q for v in paillier.unpack_slots(packed, width, slots, 3)]
    assert [int(e) for e in expected] == got


def test_base_apply_secsh_shares_reconstruct(monkeypatch):
    folded = toy_folded(n=4, k=2, seed=2)
    cloud, csp = setup(cfg_for(SECSH_GC), folded)
    u0 = _spy(monkeypatch, shares, "masked_matvec_cloud_step")
    lam = _spy(monkeypatch, shares, "sample_masks")  # CSP's masks
    run_trials(cloud, csp, 1)
    fp = cloud.fp
    w = cloud.tried_w[0]
    expected = ring_matvec(encode_array(folded.Z, fp), encode_array(w, fp), fp)
    got = [(a - b) % fp.q for a, b in zip(u0[0], lam[0])]
    assert [int(e) for e in expected] == got


def test_base_apply_iteration_out_of_range():
    folded = toy_folded(n=3, k=2)
    cloud, csp = setup(cfg_for(HE_GC, tau=1, p_max=1), folded)
    with pytest.raises(IterationOutOfRange):
        cloud.trial(None, 2)


@pytest.mark.filterwarnings("ignore::blindboost.errors.PoolExhaustedWarning")
@pytest.mark.parametrize("construction", [HE_GC, SECSH_GC])
@pytest.mark.parametrize("ot_mode", ["dealer", "base"])
def test_result_eval_matches_oracle(construction, ot_mode):
    folded = toy_folded(n=4, k=2, seed=3)
    _, transcript, cloud, csp = run_learning(cfg_for(construction, ot_mode=ot_mode),
                                             folded, with_parties=True)
    assert len(csp.indicator_history) == len(cloud.tried_w) == transcript.iterations()
    fp = cloud.fp
    zq = encode_array(folded.Z, fp)
    for w, indicators in zip(cloud.tried_w, csp.indicator_history):
        u = ring_matvec(zq, encode_array(w, fp), fp)
        assert np.array_equal(indicators, ring_indicators(u, fp))


def test_result_eval_all_correct_on_separable_toy():
    # a dataset whose first feature alone decides the label, and enough
    # trials that some RLC classifies everything correctly
    rng = np.random.default_rng(7)
    X = np.vstack([rng.uniform(1, 2, size=(4, 1)), rng.uniform(-2, -1, size=(4, 1))])
    y = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=np.int8)
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    folded = fold_labels(Dataset(X, y))
    cloud, csp = setup(cfg_for(HE_GC, tau=3, p_max=10), folded)
    assert run_trials(cloud, csp, 8).phase_sequence() == "S" + "BRGOL" * 8
    assert any(ind.all() for ind in csp.indicator_history)


# ---------------------------------------------------------------------------
# full runs


@pytest.mark.parametrize("construction", [HE_GC, SECSH_GC])
def test_run_learning_matches_plaintext_oracle(construction):
    folded = toy_folded(n=10, k=3, seed=4)
    cfg = cfg_for(construction, tau=3, p_max=9)
    dm, transcript = run_learning(cfg, folded)
    # oracle: same RLC stream, fixed-point indicators
    fp = dm.fp
    oracle = boost_rlc(folded.Z, cfg.tau, cfg.p_max,
                       np.random.default_rng(cfg.seeds.cloud), fp=fp)
    model = reconstruct_model(dm)
    assert model.alphas == oracle.model.alphas
    for got, want in zip(model.classifiers, oracle.model.classifiers):
        assert np.array_equal(got.w, want.w)
    assert transcript.iterations() == oracle.p_used


def test_cross_construction_agreement():
    folded = toy_folded(n=8, k=2, seed=5)
    dm1, t1 = run_learning(cfg_for(HE_GC, tau=2, p_max=8), folded)
    dm2, t2 = run_learning(cfg_for(SECSH_GC, tau=2, p_max=8), folded)
    assert dm1.acceptance == dm2.acceptance
    assert [t for t, _ in dm1.cloud_part] == [t for t, _ in dm2.cloud_part]
    for (_, w1), (_, w2) in zip(dm1.cloud_part, dm2.cloud_part):
        assert np.array_equal(w1, w2)
    assert [(t, a, f) for t, a, f in dm1.csp_part] == \
        [(t, a, f) for t, a, f in dm2.csp_part]


def test_phase_order_and_report():
    folded = toy_folded(n=6, k=2, seed=6)
    dm, transcript = run_learning(cfg_for(HE_GC, tau=2, p_max=6), folded)
    assert re.match(r"^S(BRGOL)+D$", transcript.phase_sequence())
    report = transcript_report(transcript)
    assert report["iterations"] == transcript.iterations()
    assert report["counters"]["csp"]["encryptions"] == 0  # HE+GC: CSP never encrypts
    # d = 3, L = 17: a slot is 2L + 2 + sigma + 1 = 77 bits, 6 under a
    # 512-bit N, so the n = 6 records are one packed ciphertext per trial
    n, iters = 6, report["iterations"]
    chunks = -(-n // (511 // (2 * 17 + 2 + shares.MASK_SECURITY_BITS + 1)))
    assert chunks == 1
    assert report["counters"]["csp"]["decryptions"] == chunks * iters
    assert report["counters"]["cloud"]["encryptions"] == chunks * iters


@pytest.mark.parametrize("construction, ot_mode, session, per_trial", [
    (HE_GC, "dealer", 0, 4),
    (HE_GC, "base", 2, 6),
    (SECSH_GC, "dealer", 0, 6),
    (SECSH_GC, "base", 2, 8),
])
def test_flights_per_construction_and_ot_mode(construction, ot_mode, session, per_trial):
    # a flight is a run of messages in one direction. Base OT opens with
    # two (Cloud's header and A, CSP's B's); its seed pairs ride with the
    # first BASE_APPLY, as Cloud's SETUP header does under dealer OT. A
    # trial is Cloud's reveal, the tables and label pairs, the output
    # labels and the decision: base OT splits the label OT into U and its
    # reply, SecSh+GC adds CSP's BASE_APPLY answer and Cloud's
    # RESULT_EVAL_MASK. DONE is the last flight.
    _, transcript = run_learning(cfg_for(construction, tau=2, p_max=4, ot_mode=ot_mode),
                                 toy_folded(n=5, k=2, seed=15))
    report = transcript_report(transcript)
    assert report["iterations"] >= 2
    assert report["flights"] == session + per_trial * report["iterations"] + 1


@pytest.mark.parametrize("n", [6, 7, 13])
def test_he_gc_packed_reveal_counters(n):
    # 6 slots of 77 bits (d = 3, L = 17) under a 512-bit N. The users shift
    # their values into their slots, so Cloud folds its d columns once with
    # n - chunks adds per column and no scalar multiply. Per trial: the
    # matrix-vector product over the chunks, then one encryption of the
    # packed masks per chunk, added on
    folded = toy_folded(n=n, k=2, seed=16)
    _, transcript = run_learning(cfg_for(HE_GC, tau=2, p_max=4), folded)
    report = transcript_report(transcript)
    d, iters = 3, report["iterations"]
    chunks = -(-n // 6)
    fold = (n - chunks) * d
    assert report["counters"]["cloud"] == {
        "encryptions": chunks * iters,
        "decryptions": 0,
        "he_scalar_muls": chunks * d * iters,
        "he_adds": fold + (chunks * d + chunks) * iters,
        "and_gates": report["counters"]["csp"]["and_gates"],
        "ot_transfers": n * 17 * iters,
    }
    assert report["counters"]["csp"]["decryptions"] == chunks * iters
    assert report["counters"]["user"]["encryptions"] == n * d


def test_he_gc_counters_are_the_calls_made_at_a_zero_coefficient(monkeypatch):
    # an RLC coefficient that encodes to 0 still costs Cloud one scalar
    # multiply and one add per packed row, as its counters say
    gen_rlc = parties.gen_rlc

    def gen_with_a_zero(k, rng):
        w = gen_rlc(k, rng)
        w[0] = 0.0
        return w

    monkeypatch.setattr(parties, "gen_rlc", gen_with_a_zero)
    calls = {"he_scalar_mul": [], "he_add": []}
    for name, seen in calls.items():
        def spy(*args, real=getattr(paillier, name), seen=seen):
            seen.append(args)
            return real(*args)
        monkeypatch.setattr(paillier, name, spy)
    _, transcript = run_learning(cfg_for(HE_GC, tau=2, p_max=4), toy_folded(n=9, k=2, seed=18))
    cloud = transcript.party("cloud")
    assert cloud.he_scalar_muls == len(calls["he_scalar_mul"])
    assert cloud.he_adds == len(calls["he_add"])
    assert 0 in [args[2] for args in calls["he_scalar_mul"]]


def test_secsh_counter_shapes():
    folded = toy_folded(n=7, k=3, seed=7)
    dm, transcript = run_learning(cfg_for(SECSH_GC, tau=2, p_max=6), folded)
    report = transcript_report(transcript)
    n, d, iters = 7, 4, report["iterations"]
    assert report["counters"]["cloud"]["decryptions"] == n * iters
    assert report["counters"]["cloud"]["encryptions"] == d * iters
    assert report["counters"]["csp"]["encryptions"] == n * iters
    assert report["counters"]["csp"]["he_scalar_muls"] == n * d * iters


def test_unknown_transport_is_refused_before_keygen(monkeypatch):
    def keygen(*args):
        raise AssertionError("a key was generated for an unknown transport")

    monkeypatch.setattr(paillier, "keygen", keygen)
    with pytest.raises(ValueError, match="unknown transport 'carrier-pigeon'"):
        run_learning(cfg_for(HE_GC), toy_folded(n=3, k=2), transport_kind="carrier-pigeon")


def test_socket_transport_identical_transcript():
    folded = toy_folded(n=5, k=2, seed=8)
    cfg = cfg_for(HE_GC, tau=2, p_max=6)
    dm_mem, t_mem = run_learning(cfg, folded, transport_kind="memory")
    dm_sock, t_sock = run_learning(cfg, folded, transport_kind="socket")
    assert t_mem.messages == t_sock.messages
    assert dm_mem.to_json() == dm_sock.to_json()


def test_pool_exhausted_run():
    # duplicated records with contradicting labels force e == 0.5 always
    X = np.array([[1.0, -1.0]] * 4)
    y = np.array([1, -1, 1, -1], dtype=np.int8)
    folded = fold_labels(Dataset(X, y))
    with pytest.warns(PoolExhaustedWarning):
        dm, transcript = run_learning(cfg_for(HE_GC, tau=2, p_max=3), folded)
    assert dm.cloud_part == []
    assert transcript.iterations() == 3


def test_degenerate_single_record_dataset():
    X = np.array([[0.7, -0.3]])
    y = np.array([1], dtype=np.int8)
    folded = fold_labels(Dataset(X, y))
    dm, transcript = run_learning(cfg_for(HE_GC, tau=1, p_max=4), folded)
    assert len(dm.cloud_part) in (0, 1)


def test_distributed_model_json_round_trip():
    folded = toy_folded(n=6, k=2, seed=10)
    dm, _ = run_learning(cfg_for(SECSH_GC, tau=2, p_max=6), folded)
    back = DistributedModel.from_json(dm.to_json())
    assert back.to_json() == dm.to_json()
    m1 = reconstruct_model(dm)
    m2 = reconstruct_model(back)
    assert m1.alphas == m2.alphas


def test_reconstruct_part_mismatch():
    folded = toy_folded(n=6, k=2, seed=11)
    dm, _ = run_learning(cfg_for(HE_GC, tau=2, p_max=6), folded)
    broken = DistributedModel(construction=dm.construction,
                              cloud_part=dm.cloud_part[:-1],
                              csp_part=dm.csp_part, acceptance=dm.acceptance,
                              fp=dm.fp)
    with pytest.raises(PartMismatch):
        reconstruct_model(broken)


def test_reconstruct_empty_model_predicts_negative():
    dm = DistributedModel(construction=HE_GC, cloud_part=[], csp_part=[],
                          acceptance=[False], fp=FixedPointParams(7, 18))
    model = reconstruct_model(dm)
    assert model.predict(np.zeros((2, 3))).tolist() == [-1, -1]


def test_no_plaintext_classifier_in_messages():
    # transcript payload scan: the float64 byte patterns of every tried
    # classifier never appear in any message
    folded = toy_folded(n=5, k=2, seed=13)
    cfg = cfg_for(SECSH_GC, tau=2, p_max=6)
    cloud, csp = setup(cfg, folded)
    from blindboost.protocol import transport as tr
    ch_cloud, ch_csp, transcript = tr.memory_pair()
    transcript.keep_payloads = True
    import threading
    worker = threading.Thread(target=csp.run, args=(ch_csp,), daemon=True)
    worker.start()
    cloud.run(ch_cloud)
    worker.join(timeout=600)
    blob = b"".join(transcript.payloads)
    for w in cloud.tried_w:
        assert w.tobytes() not in blob
        for coeff in w:
            assert np.float64(coeff).tobytes() not in blob


def test_mask_freshness_across_iterations():
    folded = toy_folded(n=6, k=2, seed=14)
    cfg = cfg_for(HE_GC, tau=3, p_max=8)
    cloud, csp = setup(cfg, folded)
    import blindboost.shares as sh
    masks = sh.sample_masks(10_000, cloud.fp.ring_bits, random.Random(99))
    assert len(set(masks)) == 10_000


# ---------------------------------------------------------------------------
# label OT over the channel


class _Scripted:
    """A channel end that replays fixed incoming messages."""

    def __init__(self, incoming):
        self.incoming = list(incoming)
        self.sent = []
        self.counters = Counters()

    def send(self, phase, payload=b""):
        self.sent.append(phase)

    def recv(self):
        return self.incoming.pop(0)


def _opened(cfg):
    """A (receiver, sender) pair of LabelOTs whose SETUP has run."""
    receiver, sender = LabelOT(cfg, random.Random(1)), LabelOT(cfg, random.Random(2))
    ch_r, ch_s, _ = transport.memory_pair()
    engine.run_pair(lambda: receiver.open_receiver(ch_r),
                    lambda: sender.open_sender(ch_s), ch_r, ch_s)
    return receiver, sender


@pytest.mark.parametrize("ot_mode", ["dealer", "base"])
def test_label_ot_wrong_phase_is_phase_order_violation(ot_mode):
    cfg = cfg_for(HE_GC, ot_mode=ot_mode)
    pairs = label_pairs(1)
    receiver, sender = _opened(cfg)
    with pytest.raises(PhaseOrderViolation):
        receiver.receive(_Scripted([("GC_TABLES", b"")]), [1])
    if ot_mode == "base":  # the dealer-mode sender receives nothing
        with pytest.raises(PhaseOrderViolation):
            sender.send(_Scripted([("OUTPUT_LABELS", b"")]), pairs)
        # the session's messages belong to SETUP
        with pytest.raises(PhaseOrderViolation):
            LabelOT(cfg, random.Random(3)).open_receiver(_Scripted([("OT", b"")]))
        with pytest.raises(PhaseOrderViolation):
            LabelOT(cfg, random.Random(4)).open_sender(_Scripted([("OT", b"")]))


def test_label_ot_malformed_base_setup_is_ot_failure():
    cfg = cfg_for(HE_GC, ot_mode="base")
    two = (2).to_bytes(4, "big") + b"".join((1).to_bytes(4, "big") + b"\x04"
                                           for _ in range(2))
    with pytest.raises(OTFailure):
        LabelOT(cfg, random.Random(3)).open_sender(_Scripted([("SETUP", two)]))


def test_label_ot_truncated_dealer_payload_is_malformed():
    cfg = cfg_for(HE_GC, ot_mode="dealer")
    truncated = wire.pack_label_pairs(label_pairs(3))[:-20]
    with pytest.raises(MalformedMessage):
        LabelOT(cfg, random.Random(4)).receive(_Scripted([("OT", truncated)]), [0, 1, 1])


class _TailOne:
    """A channel end that passes the payload of message number `target` of a
    ping-pong exchange through `edit`; `sent` is shared by both ends and
    counts messages."""

    def __init__(self, ch, sent, target, edit):
        self.ch, self.sent, self.target, self.edit = ch, sent, target, edit
        self.counters = ch.counters

    def send(self, phase, payload=b""):
        if len(self.sent) == self.target:
            payload = self.edit(payload)
        self.sent.append(phase)
        self.ch.send(phase, payload)

    def recv(self):
        return self.ch.recv()

    def close(self):
        self.ch.close()


def _label_ot_run(ot_mode, target, edit):
    """SETUP, then two rounds of label OT, with message `target` edited."""
    cfg = cfg_for(HE_GC, ot_mode=ot_mode)
    receiver, sender = LabelOT(cfg, random.Random(7)), LabelOT(cfg, random.Random(8))
    pairs = label_pairs(3)
    ch_r, ch_s, _ = transport.memory_pair()
    sent = []
    ch_r, ch_s = _TailOne(ch_r, sent, target, edit), _TailOne(ch_s, sent, target, edit)

    def run(open_session, step):
        open_session()
        return [step() for _ in range(2)]

    engine.run_pair(lambda: run(lambda: receiver.open_receiver(ch_r),
                                lambda: receiver.receive(ch_r, [0, 1, 1])),
                    lambda: run(lambda: sender.open_sender(ch_s),
                                lambda: sender.send(ch_s, pairs)),
                    ch_r, ch_s)


# dealer: the label pairs; base: A, the B's and the seed pairs in SETUP, then
# per round U and the masked pairs
_OT_MESSAGES = [("dealer", 0)] + [("base", i) for i in range(7)]


@pytest.mark.parametrize("ot_mode, target", _OT_MESSAGES)
def test_label_ot_rejects_a_trailing_byte_on_every_message(ot_mode, target):
    with pytest.raises(MalformedMessage, match="trailing"):
        _label_ot_run(ot_mode, target, lambda payload: payload + b"\x00")


@pytest.mark.parametrize("ot_mode, target", _OT_MESSAGES)
def test_label_ot_rejects_every_message_one_byte_short(ot_mode, target):
    with pytest.raises(MalformedMessage, match="needs"):
        _label_ot_run(ot_mode, target, lambda payload: payload[:-1])


# each protocol on a few records: (construction or stump selection, OT mode)
_MUTATED_RUNS = {
    "he-gc": lambda ot_mode: run_learning(cfg_for(HE_GC, tau=2, p_max=3, ot_mode=ot_mode),
                                          toy_folded(n=4, k=2, seed=3)),
    "secsh-gc": lambda ot_mode: run_learning(
        cfg_for(SECSH_GC, tau=2, p_max=3, ot_mode=ot_mode), toy_folded(n=4, k=2, seed=3)),
    "stump": lambda ot_mode: confidential_ds_select(
        cfg_for(HE_GC, tau=1, p_max=1, ot_mode=ot_mode),
        Dataset(np.linspace(-1.5, 1.5, 8).reshape(4, 2), np.array([1, -1, -1, 1])), s=2),
}
_EDITS = {
    "drop": lambda payload, rng: payload[:-1],
    "append": lambda payload, rng: payload + b"\x00",
    "flip": lambda payload, rng: (int.from_bytes(payload, "big")
                                  ^ 1 << rng.randrange(8 * len(payload))).to_bytes(
                                      len(payload), "big"),
}


def _run_edited(monkeypatch, run, target, edit):
    """run() over memory pairs that pass the payload of message number
    `target` through `edit`; the phases of the messages sent. A run still
    going after 30 s, or a CSP thread still alive 5 s after it, fails the
    test."""
    pair, sent, outcome = transport.memory_pair, [], []

    def edited_pair():
        ch_cloud, ch_csp, transcript = pair()
        return (_TailOne(ch_cloud, sent, target, edit), _TailOne(ch_csp, sent, target, edit),
                transcript)

    def bounded():
        try:
            run()
        except BaseException as exc:
            outcome.append(exc)

    before = set(threading.enumerate())
    with monkeypatch.context() as patched:
        patched.setattr(transport, "memory_pair", edited_pair)
        runner = threading.Thread(target=bounded, daemon=True)
        runner.start()
        runner.join(timeout=30)
    # pytest.fail, not assert: the python -O run of this test strips asserts
    if runner.is_alive():
        pytest.fail(f"message {target} edited: the run hangs")
    for t in set(threading.enumerate()) - before:
        if t.name == "csp":
            t.join(timeout=5)
            if t.is_alive():
                pytest.fail(f"message {target} edited: the CSP thread hangs")
    if outcome:
        raise outcome[0]
    return sent


@pytest.mark.filterwarnings("ignore::blindboost.errors.PoolExhaustedWarning")
@pytest.mark.parametrize("ot_mode", ["dealer", "base"])
@pytest.mark.parametrize("kind", sorted(_MUTATED_RUNS))
def test_edited_label_phase_messages_finish_or_raise_typed_errors(monkeypatch, kind,
                                                                  ot_mode):
    # one edited message at a time among SETUP's seed pairs (base OT: the
    # last SETUP message), GC_TABLES, OT and OUTPUT_LABELS: the run raises
    # a BlindBoostError, never a numpy, index or assertion error and never
    # a hang; only a flipped bit may go unnoticed (say, in a label that
    # the evaluator did not choose)
    monkeypatch.setattr(engine, "JOIN_TIMEOUT_S", 5)
    run = functools.partial(_MUTATED_RUNS[kind], ot_mode)
    phases = _run_edited(monkeypatch, run, -1, None)
    targets = [[i for i, phase in enumerate(phases) if phase == label_phase]
               for label_phase in ("GC_TABLES", "OT", "OUTPUT_LABELS")]
    if ot_mode == "base":
        targets.append([max(i for i, phase in enumerate(phases) if phase == "SETUP")])
    rng = random.Random(f"{kind}-{ot_mode}")
    for name, edit in sorted(_EDITS.items()):
        for target in [rng.choice(of_phase) for of_phase in targets]:
            try:
                _run_edited(monkeypatch, run, target, lambda p: edit(p, rng))
            except PartyTimeout:
                pytest.fail(f"{name} on message {target} ({phases[target]}): a hang")
            except BlindBoostError:
                continue
            if name != "flip":
                pytest.fail(f"{name} on message {target} ({phases[target]}) went unnoticed")


@pytest.mark.filterwarnings("ignore::blindboost.errors.PoolExhaustedWarning")
@pytest.mark.parametrize("kind", sorted(_MUTATED_RUNS))
def test_edited_reveal_messages_finish_or_raise_typed_errors(monkeypatch, kind):
    # the sibling of the label-phase test for the reveals: one edited
    # BASE_APPLY or RESULT_EVAL_MASK message at a time (a trial or feature
    # number, E(w), CSP's masked answer, the packed masked values), under
    # dealer OT, which these phases do not touch. A flip may go unnoticed
    # inside a ciphertext, and the run then finishes on a wrong value
    monkeypatch.setattr(engine, "JOIN_TIMEOUT_S", 5)
    run = functools.partial(_MUTATED_RUNS[kind], "dealer")
    phases = _run_edited(monkeypatch, run, -1, None)
    rng = random.Random(f"{kind}-reveals")
    for name, edit in sorted(_EDITS.items()):
        for of_phase in ("BASE_APPLY", "RESULT_EVAL_MASK"):
            target = rng.choice([i for i, phase in enumerate(phases) if phase == of_phase])
            try:
                _run_edited(monkeypatch, run, target, lambda p: edit(p, rng))
            except PartyTimeout:
                pytest.fail(f"{name} on message {target} ({of_phase}): a hang")
            except BlindBoostError:
                continue
            if name != "flip":
                pytest.fail(f"{name} on message {target} ({of_phase}) went unnoticed")


@pytest.mark.parametrize("payload", [wire.pack_u32(99) + b"junk", wire.pack_u32(2),
                                     wire.pack_u32(1) + b"junk"],
                         ids=["t99-junk", "out-of-order", "trailing-bytes"])
def test_csp_base_apply_rejects_hostile_trial(payload):
    cloud, csp = setup(cfg_for(HE_GC, tau=1, p_max=2), toy_folded(n=3, k=2))
    with pytest.raises(MalformedMessage):
        csp.trial(_Scripted([("BASE_APPLY", payload)]))
    run_trials(cloud, csp, 1)  # the refusal left CSP waiting for trial 1
    assert len(csp.indicator_history) == 1


def test_csp_base_apply_rejects_a_trial_past_p_max():
    cloud, csp = setup(cfg_for(HE_GC, tau=1, p_max=2), toy_folded(n=3, k=2))
    run_trials(cloud, csp, 2)
    with pytest.raises(MalformedMessage, match="trial 3"):
        csp.trial(_Scripted([("BASE_APPLY", wire.pack_u32(3))]))


@pytest.mark.parametrize("tau, p_max, trials, done, error", [
    (1, 1, 0, wire.pack_u32(0), PhaseOrderViolation),       # before any trial
    (2, 6, 1, wire.pack_u32(1), PhaseOrderViolation),       # before a stop
    (1, 1, 1, wire.pack_u32(2), MalformedMessage),          # names another trial
    (1, 1, 1, wire.pack_u32(1) + b"x", MalformedMessage),   # trailing bytes
    (1, 1, 1, wire.pack_u32(1), None),
], ids=["no-trial", "early", "misnamed", "trailing-bytes", "valid"])
def test_csp_run_accepts_done_only_after_the_last_trial(tau, p_max, trials, done, error):
    cloud, csp = setup(cfg_for(HE_GC, tau=tau, p_max=p_max), toy_folded(n=3, k=2))
    ch_cloud, ch_csp, _ = transport.memory_pair()

    def hostile_cloud():
        cloud.open(ch_cloud)
        for t in range(1, trials + 1):
            cloud.trial(ch_cloud, t)
        ch_cloud.send(DONE, done)

    with pytest.raises(error) if error else contextlib.nullcontext():
        engine.run_pair(hostile_cloud, lambda: csp.run(ch_csp), ch_cloud, ch_csp)


@pytest.mark.parametrize("payload", [b"junk that is no trial number", wire.pack_u32(2),
                                     wire.pack_u32(1) + b"\x00"],
                         ids=["junk", "wrong-trial", "trailing-byte"])
def test_csp_secsh_result_eval_requires_the_current_trial(payload):
    # Cloud's messages: its SETUP header (0), E(w) (1), RESULT_EVAL_MASK (2)
    cloud, csp = setup(cfg_for(SECSH_GC), toy_folded(n=3, k=2))
    ch_cloud, ch_csp, _ = transport.memory_pair()
    ch_cloud = _TailOne(ch_cloud, [], 2, lambda _: payload)

    def cloud_main():
        cloud.open(ch_cloud)
        cloud.trial(ch_cloud, 1)

    with pytest.raises(MalformedMessage, match="trial 1"):
        engine.run_pair(cloud_main, lambda: (csp.open(ch_csp), csp.trial(ch_csp)),
                        ch_cloud, ch_csp)
    cloud, csp = setup(cfg_for(SECSH_GC), toy_folded(n=3, k=2))
    run_trials(cloud, csp, 1)
    assert len(csp.indicator_history[0]) == 3


def _opened_sides(n, ring_bits, dim=1, constants=(0,)):
    """Cloud's and CSP's `Side` for n records and the sign circuit's
    `constants`, after a dealer-OT SETUP, with the channel pair and
    transcript they ran it on."""
    cfg = cfg_for(HE_GC)
    ch_cloud, ch_csp, transcript = transport.memory_pair()
    sides = engine.run_pair(lambda: open_cloud(ch_cloud, cfg, n, dim, ring_bits, constants),
                            lambda: open_csp(ch_csp, cfg, n, dim, ring_bits, constants),
                            ch_cloud, ch_csp)
    return ch_cloud, ch_csp, transcript, sides


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("bound, value, constants, slots", [
    # HE+GC ResultEval: the largest u = Z w of d = 3 columns, constant 0
    (FixedPointParams(7, 17).product_bits(3), (1 << 36) - 1, (0,), 6),
    # stump selection: the largest x + y * 2^(L-1), at thresholds 1 and q - 1
    (17 + 1, (1 << 17) - 1 + (1 << 16), (1, (1 << 17) - 1), 8),
], ids=["he-gc", "stump"])
def test_packed_sign_round_slot_edge(monkeypatch, bound, value, constants, slots, extra):
    # the largest value under the bound plus the largest mask fills its slot
    # to the last bit; no carry reaches the neighbouring slot, at n = slots
    # and at n = slots + 1 records, over the users' pre-shifted encryptions
    # that Cloud folds by adds alone
    L, width, n = 17, reveal_width(bound), slots + extra
    kp, column = engine.encrypt_submissions(cfg_for(HE_GC), [[value]] * n, width)
    pk = kp.public
    assert paillier.slot_count(pk, width) == slots
    lam = (1 << (bound + shares.MASK_SECURITY_BITS)) - 1
    assert (value + lam).bit_length() == width
    monkeypatch.setattr(shares, "sample_masks", lambda count, bits, rng: [lam] * count)
    unpacked = _spy(monkeypatch, parties, "unpack_masked")
    ch_cloud, ch_csp, transcript, (cloud, csp) = _opened_sides(n, L, constants=constants)
    packed = [row[0] for row in pack_columns(pk, column, width, ch_cloud.counters)]
    assert len(packed) == 1 + extra
    _, msb = engine.run_pair(
        lambda: packed_sign_cloud(ch_cloud, cloud, pk, packed, bound),
        lambda: packed_sign_csp(ch_csp, csp, kp, bound),
        ch_cloud, ch_csp)
    assert unpacked == [[value + lam] * n]
    assert list(msb) == [(((value - v) % (1 << L)) >> (L - 1)) & 1
                         for v in constants for _ in range(n)]
    ands, transfers = cloud.circuit.and_count, n * L
    assert transcript.party("cloud") == Counters(
        encryptions=1 + extra, he_adds=(n - 1 - extra) + 1 + extra,
        and_gates=ands, ot_transfers=transfers)
    assert transcript.party("csp") == Counters(decryptions=1 + extra, and_gates=ands,
                                               ot_transfers=transfers)


def test_negated_secsh_shares_give_the_msb_at_the_ring_edges():
    # CSP feeds -lambda on the minuend wires, Cloud -u0 = -(u + lambda) on
    # the subtrahend wires: the circuit outputs msb(u), for any lambda
    L = 9
    q = 1 << L
    edges = [0, 1, q // 2 - 1, q // 2, q - 1]
    expected = [u >> (L - 1) for u in edges]
    assert expected == [0, 0, 0, 1, 1]
    circuit = build_sub_msb_batch(L, len(edges))
    rng = random.Random(19)
    for _ in range(50):
        lam = [rng.getrandbits(L + 30) for _ in edges]
        u0 = [(u + m) % q for u, m in zip(edges, lam)]
        csp_in, cloud_in = [-m % q for m in lam], [-v % q for v in u0]
        assert circuit.evaluate_plain(record_bits(csp_in, L),
                                      record_bits(cloud_in, L)) == expected
    # one garbled round, on the last draw
    ch_cloud, ch_csp, transcript, (cloud, csp) = _opened_sides(len(edges), L)
    _, msb = engine.run_pair(
        lambda: evaluator_round(ch_cloud, cloud, cloud_in),
        lambda: garbler_round(ch_csp, csp, csp_in),
        ch_cloud, ch_csp)
    assert list(msb) == expected


def _opened_csp(construction, n=3, k=2):
    """A dealer-OT CSP over n records of k features, after Cloud's SETUP
    header."""
    _, csp = setup(cfg_for(construction), toy_folded(n=n, k=k))
    csp.open(_Scripted([("SETUP", _setup_header(n, k + 1, csp.fp.ring_bits))]))
    return csp


@pytest.mark.parametrize("count", [0, 2])  # n = 3 records pack into 1 ciphertext
def test_csp_result_eval_wrong_ciphertext_count(count):
    csp = _opened_csp(HE_GC)
    cts = paillier.encrypt_many(csp.keypair.public, [0] * count, random.Random(1))
    with pytest.raises(MalformedMessage, match=f"carries {count} ciphertexts, expected 1"):
        csp.trial(_Scripted([("BASE_APPLY", wire.pack_u32(1)),
                             ("RESULT_EVAL_MASK", paillier.ciphertexts_to_bytes(cts))]))


@pytest.mark.parametrize("count", [2, 4])  # n = 3
def test_cloud_secsh_base_apply_reply_wrong_ciphertext_count(count):
    cloud, _ = setup(cfg_for(SECSH_GC), toy_folded(n=3, k=2))
    cloud.open(_Scripted([]))  # dealer OT: SETUP is Cloud's header alone
    cts = paillier.encrypt_many(cloud.keypair.public, [0] * count, random.Random(2))
    with pytest.raises(MalformedMessage, match=f"carries {count} ciphertexts, expected 3"):
        cloud.trial(_Scripted([("BASE_APPLY", paillier.ciphertexts_to_bytes(cts))]), 1)


def test_csp_result_eval_wrong_phase_is_phase_order_violation():
    csp = _opened_csp(HE_GC)
    with pytest.raises(PhaseOrderViolation, match="expected a RESULT_EVAL_MASK"):
        csp.trial(_Scripted([("BASE_APPLY", wire.pack_u32(1)), ("GC_TABLES", b"")]))


@pytest.mark.parametrize("payload", [b"", b"\x01", b"\x01\x00\x00", b"\x02\x00",
                                     b"\x00\xff"])
def test_short_or_invalid_decision_is_malformed(payload):
    cloud, _ = setup(cfg_for(HE_GC), toy_folded(n=3, k=2))
    with pytest.raises(MalformedMessage):
        cloud.recv_decision(_Scripted([("OUTPUT_LABELS", payload)]))
    assert cloud.acceptance == []
    assert cloud.recv_decision(_Scripted([("OUTPUT_LABELS", b"\x01\x00")])) == (True, False)


def _side(circuit, ring_bits):
    """A dealer-OT Side over `circuit`, garbling on Random(5)."""
    return types.SimpleNamespace(
        circuit=circuit, ring_bits=ring_bits, garble_rng=random.Random(5),
        label_ot=LabelOT(cfg_for(HE_GC, ot_mode="dealer"), random.Random(6)))


def test_bytes_after_the_output_labels_are_malformed():
    circuit = build_sub_msb_batch(4, 2)
    gb_bits, ev_bits = record_bits([3, 9], 4), record_bits([5, 12], 4)
    gc = garble(circuit, random.Random(5))  # what garbler_round garbles on Random(5)
    out = evaluate(gc, gc.encode(gb_bits), dealer_choose(gc.label_pairs(), ev_bits))

    def run(reply):
        return garbler_round(_Scripted([("OUTPUT_LABELS", reply)]), _side(circuit, 4),
                             [3, 9])

    assert list(run(wire.pack_labels(out))) == list(circuit.evaluate_plain(gb_bits, ev_bits))
    for tail in (b"\x00", out[0].tobytes()):
        with pytest.raises(MalformedMessage):
            run(wire.pack_labels(out) + tail)


@pytest.mark.parametrize("count, tail", [(11, b""), (7, b""), (8, b"\x00")],
                         ids=["11-labels", "7-labels", "trailing-byte"])
def test_evaluator_round_rejects_labels_or_bytes_that_do_not_fit(count, tail):
    circuit = build_sub_msb_batch(4, 2)  # 8 garbler wires
    gc = garble(circuit, random.Random(5))
    labels = gc.encode(record_bits([3, 9], 4))
    dealt = ("OT", wire.pack_label_pairs(gc.label_pairs()))

    def run(gb_labels, tail=b""):
        ch = _Scripted([("GC_TABLES", wire.pack_blob(gc.tables_bytes())
                         + wire.pack_labels(gb_labels)
                         + wire.pack_label_pairs(gc.output_check) + tail), dealt])
        evaluator_round(ch, _side(circuit, 4), [5, 12])
        return ch.sent

    assert run(labels) == ["OUTPUT_LABELS"]
    with pytest.raises(MalformedMessage):
        run(np.concatenate([labels, labels])[:count], tail)


def test_base_ot_session_opens_once_per_run():
    # the extension session is three SETUP messages after Cloud's header:
    # A, the B's, the seed pairs; every round is U and the masked label pairs
    folded = toy_folded(n=5, k=2, seed=15)
    dm, transcript, cloud, csp = run_learning(
        cfg_for(SECSH_GC, tau=3, p_max=6, ot_mode="base"), folded,
        with_parties=True)
    rounds = transcript.iterations()
    assert rounds >= 2
    setup_msgs = [d for d, phase, _ in transcript.messages if phase == "SETUP"]
    assert setup_msgs == ["cloud->csp", "cloud->csp", "csp->cloud", "cloud->csp"]
    ot_msgs = [d for d, phase, _ in transcript.messages if phase == "OT"]
    assert ot_msgs == ["cloud->csp", "csp->cloud"] * rounds
    L = cloud.fp.ring_bits
    report = transcript_report(transcript)
    assert report["counters"]["cloud"]["ot_transfers"] == 5 * L * rounds
    assert report["counters"]["csp"]["ot_transfers"] == 5 * L * rounds
