import random
import threading

import numpy as np
import pytest

from blindboost import ot, paillier
from blindboost.encoding import Dataset, fold_labels
from blindboost.errors import GroupElementInvalid, OTFailure
from blindboost.protocol import engine, parties, wire
from blindboost.protocol.config import HE_GC, ProtocolConfig, paper_faithful, stream


def _pairs(rng, count):
    blob = b"".join(rng.getrandbits(128).to_bytes(16, "big") for _ in range(2 * count))
    return np.frombuffer(blob, dtype=np.uint8).reshape(count, 2, 16)


def _chosen(pairs, bits):
    """Label bits[i] of pair i, as a (count, 16) array."""
    return np.stack([p[b] for p, b in zip(pairs, bits)]).reshape(-1, 16)


def test_groups_are_safe_primes():
    # p prime and (p-1)/2 prime; g = 4 lies in the order-q subgroup
    from blindboost.paillier import _is_probable_prime
    rng = random.Random(0)
    for g in ot.GROUPS.values():
        assert _is_probable_prime(g.p, rng, rounds=12)
        assert _is_probable_prime(g.order, rng, rounds=8)
        assert pow(g.g, g.order, g.p) == 1


def test_dealer_choice():
    rng = random.Random(1)
    pairs = _pairs(rng, 8)
    bits = [0, 1, 1, 0, 1, 0, 0, 1]
    got = ot.dealer_choose(pairs, bits)
    assert np.array_equal(got, _chosen(pairs, bits))
    for wrong in (bits[:-1], bits + [0]):
        with pytest.raises(OTFailure, match="count mismatch"):
            ot.dealer_choose(pairs, wrong)


def _base_ot(bits, sender_seed, receiver_seed, group=ot.GROUPS["modp-768"]):
    """Random base OT with both ends in-process: the sender's key pairs and
    the receiver's keys."""
    sender = ot.OTSender(group, random.Random(sender_seed))
    receiver = ot.OTReceiver(group, random.Random(receiver_seed), sender.setup_message())
    pairs = sender.respond(receiver.choose(bits))
    return pairs, receiver.finish()


def test_base_ot_receiver_key_is_the_senders_key_of_its_choice():
    # the receiver learns the key of its choice bit and nothing that
    # matches the other key of the pair
    rng = random.Random(2)
    bits = [rng.getrandbits(1) for _ in range(64)]
    pairs, keys = _base_ot(bits, 3, 4)
    assert pairs.shape == (64, 2, 16) and keys.shape == (64, 16)
    assert np.array_equal(keys, _chosen(pairs, bits))
    assert not any(np.array_equal(k, p[1 - c]) for k, p, c in zip(keys, pairs, bits))
    assert len({k.tobytes() for k in pairs.reshape(-1, 16)}) == 128


def test_base_ot_choice_zero():
    pairs, keys = _base_ot([0], 5, 6)
    assert keys.tobytes() == pairs[0, 0].tobytes() != pairs[0, 1].tobytes()


def test_replayed_transcript_wrong_choice_gives_garbage():
    # with a fixed transcript the receiver's key material H(A^{b_i}) is the
    # sender's key of its choice, whichever bit it claims; the other key
    # stays out of reach
    group = ot.GROUPS["modp-768"]
    bits = [0, 1, 0, 1]
    sender = ot.OTSender(group, random.Random(8))
    receiver = ot.OTReceiver(group, random.Random(9), sender.setup_message())
    pairs = sender.respond(receiver.choose(bits))
    for i, (pair, c) in enumerate(zip(pairs, bits)):
        k = ot._kdf(ot.powmod(receiver.A, receiver._secrets[i], group.p, ot.SECRET_BITS), i)
        assert k == pair[c].tobytes() != pair[1 - c].tobytes()


def test_group_element_validation():
    group = ot.GROUPS["modp-768"]
    sender = ot.OTSender(group, random.Random(10))
    with pytest.raises(GroupElementInvalid):
        sender.respond([1])
    with pytest.raises(GroupElementInvalid):
        sender.respond([group.p - 1])
    with pytest.raises(GroupElementInvalid):
        ot.OTReceiver(group, random.Random(11), 0)


def test_subgroup_check_in_secure_profile():
    group = ot.GROUPS["modp-768"]
    sender = ot.OTSender(group, random.Random(12))
    # -4 is a non-residue (p = 3 mod 4), hence outside the order-q subgroup
    with pytest.raises(GroupElementInvalid):
        sender.respond([group.p - 4])
    # a genuine subgroup element passes the check
    sender.respond([ot.powmod(group.g, 12345, group.p, 14)])


@pytest.mark.parametrize("name", sorted(ot.GROUPS))
def test_every_received_element_is_checked(spy, one_worker_pool, name):
    # 0, 1, p - 1, p and p + 4 are out of range (p + 4 is a residue mod p);
    # p - 4 = -4 is a non-residue (p = 3 mod 4), outside the order-q subgroup
    group = ot.GROUPS[name]
    p = group.p
    receiver = ot.OTExtReceiver(group, random.Random(60))
    bs = ot.OTExtSender(group, random.Random(61), receiver.setup_message()).base_choose()
    sender = ot.OTSender(group, random.Random(62))
    checked = spy(ot, "_validate_element")
    for bad in (0, 1, p - 1, p, p - 4, p + 4):
        for make in (ot.OTReceiver, ot.OTExtSender):
            with pytest.raises(GroupElementInvalid):
                make(group, random.Random(64), bad)
        # the first element is checked on the calling thread, the last on the worker
        for respond, good in ((sender.respond, bs[:4]), (receiver.base_respond, bs)):
            for where in (0, len(good) - 1):
                checked.clear()
                with pytest.raises(GroupElementInvalid):
                    respond(good[:where] + [bad] + good[where + 1:])
                on_main = [t is threading.current_thread() for t, (_, x) in checked if x == bad]
                assert on_main == [where == 0]


@pytest.mark.parametrize("cfg", [ProtocolConfig(HE_GC, tau=1, p_max=2),
                                 paper_faithful(HE_GC, tau=1, p_max=2)],
                         ids=["modp-768", "modp-2048"])
def test_base_ot_secrets_are_short_and_drawn_from_the_party_stream(
        monkeypatch, one_worker_pool, cfg):
    def secrets():
        cloud, csp, _ = engine.run_pair(lambda ch: parties.open_cloud(ch, cfg, 4, 1, 17),
                                        lambda ch: parties.open_csp(ch, cfg, 4, 1, 17))
        return cloud.label_ot._session._base._a, csp.label_ot._session._base._secrets

    a, bs = secrets()
    assert all(0 <= x < 2 ** 256 for x in [a, *bs])
    # Cloud's a is the first draw of its ot_r stream; CSP's b_i follow its
    # KAPPA-bit choice string on its ot_s stream
    cloud_rng, csp_rng = stream(cfg.seeds.cloud, b"ot_r"), stream(cfg.seeds.csp, b"ot_s")
    assert a == cloud_rng.getrandbits(256)
    csp_rng.getrandbits(ot.KAPPA)
    assert bs == [csp_rng.getrandbits(256) for _ in range(ot.KAPPA)]
    monkeypatch.setattr(paillier, "_pool", None)
    assert secrets() == (a, bs)


def test_count_mismatch(spy):
    # the extension receiver takes exactly KAPPA B's, checked before any
    # exponentiation
    group = ot.GROUPS["modp-768"]
    receiver = ot.OTExtReceiver(group, random.Random(13))
    bs = ot.OTExtSender(group, random.Random(17), receiver.setup_message()).base_choose()
    calls = spy(ot, "powmod")
    for wrong in (bs[:-1], bs + bs[:1], []):
        with pytest.raises(OTFailure, match=f"{len(wrong)} base-OT"):
            receiver.base_respond(wrong)
    assert calls == []


def test_finish_before_choose_is_refused():
    group = ot.GROUPS["modp-768"]
    sender = ot.OTSender(group, random.Random(13))
    receiver = ot.OTReceiver(group, random.Random(17), sender.setup_message())
    with pytest.raises(OTFailure, match="choose"):
        receiver.finish()


def test_extension_choose_before_base_ots_is_refused():
    group = ot.GROUPS["modp-768"]
    receiver = ot.OTExtReceiver(group, random.Random(18))
    with pytest.raises(OTFailure, match="base OTs"):
        receiver.extend([0, 1])


def test_sender_second_key_matches_two_pow_formula():
    # k1 = H(B^a * A^{-a}) must equal the textbook H((B/A)^a)
    group = ot.GROUPS["modp-768"]
    rng = random.Random(14)
    sender = ot.OTSender(group, random.Random(15))
    receiver = ot.OTReceiver(group, random.Random(16), sender.setup_message())
    bs = receiver.choose([rng.getrandbits(1) for _ in range(6)])
    keys = sender.respond(bs)
    a, p = sender._a, group.p
    a_inv = pow(sender.A, p - 2, p)
    for i, (b, (k0, k1)) in enumerate(zip(bs, keys)):
        assert k0.tobytes() == ot._kdf(pow(b, a, p), i)
        assert k1.tobytes() == ot._kdf(pow(b * a_inv % p, a, p), i)


# ---------------------------------------------------------------------------
# IKNP extension


def _ext_session(seed):
    """An extension (sender, receiver) pair whose base OTs have run."""
    group = ot.GROUPS["modp-768"]
    receiver = ot.OTExtReceiver(group, random.Random(seed))
    sender = ot.OTExtSender(group, random.Random(seed + 1), receiver.setup_message())
    receiver.base_respond(sender.base_choose())
    sender.base_finish()
    return sender, receiver


def test_transpose_matches_bit_loop():
    # row j, bit i of the packed rows is bit j of packed column i (MSB first)
    rng = np.random.default_rng(19)
    for m in (1, 7, 8, 9, 209):
        cols = rng.integers(0, 256, size=(ot.KAPPA, (m + 7) // 8), dtype=np.uint8)
        rows = ot._rows(cols, m)
        assert rows.shape == (m, ot.KAPPA // 8)
        for j in range(m):
            want = [(int(cols[i, j // 8]) >> (7 - j % 8)) & 1 for i in range(ot.KAPPA)]
            got = [(int(rows[j, i // 8]) >> (7 - i % 8)) & 1 for i in range(ot.KAPPA)]
            assert got == want


def _bit_rows(bits):
    """r_j * 0xff.., one (16,) row per choice bit."""
    return np.repeat(np.asarray(bits, dtype=np.uint8)[:, None] * 255, 16, axis=1)


def test_extension_delivers_chosen_labels_over_rounds():
    # correlated OT over several rounds of one session: the sender's pair
    # for wire j is (q_j, q_j ^ delta), and the receiver's own row t_j is
    # the label of its choice, t_j ^ q_j = r_j * delta, row by row
    sender, receiver = _ext_session(20)
    rng = random.Random(21)
    for _ in range(3):
        for m in (1, 7, 8, 209):
            bits = [rng.getrandbits(1) for _ in range(m)]
            u, t = receiver.extend(bits)
            assert len(u) == ot.KAPPA * ((m + 7) // 8)
            q = sender.extend(u, m)
            assert t.shape == q.shape == (m, 16)
            assert np.array_equal(t ^ q, _bit_rows(bits) & sender.delta)
            assert len({row.tobytes() for row in q}) == m  # fresh 0-labels


def test_delta_permute_bit_is_one(spy):
    # delta is the base-choice string s with bit 0 of byte 0, the lsb of
    # the little-endian label, forced to 1 before the base OTs choose
    group = ot.GROUPS["modp-768"]
    for seed in range(40):
        sender = ot.OTExtSender(group, random.Random(seed), group.g)
        assert sender.delta.shape == (16,) and sender.delta[0] & 1 == 1
    # the one bit forced, the rest as drawn; the base OTs choose its bits
    drawn = (random.Random(3).getrandbits(128) | 1).to_bytes(16, "little")
    sender = ot.OTExtSender(group, random.Random(3), group.g)
    assert sender.delta.tobytes() == drawn
    chosen = spy(ot.OTReceiver, "choose", lambda receiver, bits: bits)
    sender.base_choose()
    assert chosen == [np.unpackbits(np.frombuffer(drawn, dtype=np.uint8)).tolist()]


def test_u_of_the_wrong_length_ends_in_ot_failure(edited_pairs):
    # a well-framed U one byte per column short for the round's m
    # transfers: the garbler refuses it before it garbles
    def edit(i, message):
        phase, payload = message
        if phase != "OT":
            return [message]
        return [(phase, wire.pack_blob(payload[4:-ot.KAPPA]))]

    edited_pairs(edit)
    with pytest.raises(OTFailure, match="U holds"):
        engine.run_learning(ProtocolConfig(HE_GC, tau=1, p_max=2),
                            fold_labels(Dataset(np.linspace(-1, 1, 8).reshape(4, 2),
                                                np.array([1, -1, 1, -1]))))


def test_extension_same_choices_give_fresh_u():
    # the column streams continue across rounds: a restarted PRG would
    # repeat U for repeated choice bits
    sender, receiver = _ext_session(22)
    rng = random.Random(23)
    bits = [rng.getrandbits(1) for _ in range(40)]
    seen = []
    for _ in range(2):
        u, labels = receiver.extend(bits)
        seen.append((u, labels.tobytes()))
        assert np.array_equal(labels ^ sender.extend(u, 40), _bit_rows(bits) & sender.delta)
    assert seen[0][0] != seen[1][0] and seen[0][1] != seen[1][1]


def test_extension_base_ots_check_subgroup(spy, one_worker_pool):
    group = ot.GROUPS["modp-768"]
    receiver = ot.OTExtReceiver(group, random.Random(26))
    sender = ot.OTExtSender(group, random.Random(27), receiver.setup_message())
    bs = sender.base_choose()
    checked = spy(ot, "_validate_element")
    # the first base OT runs on the calling thread, the last on the worker
    for where in (0, ot.KAPPA - 1):
        checked.clear()
        with pytest.raises(GroupElementInvalid):
            receiver.base_respond(bs[:where] + [group.p - 4] + bs[where + 1:])
        on_main = [t is threading.current_thread() for t, (_, x) in checked if x == group.p - 4]
        assert on_main == [where == 0]
    with pytest.raises(GroupElementInvalid):
        ot.OTExtSender(group, random.Random(28), group.p - 4)


def test_extension_rejects_malformed_messages():
    sender, receiver = _ext_session(30)
    rng = random.Random(31)
    bits = [rng.getrandbits(1) for _ in range(9)]
    u, _ = receiver.extend(bits)
    for bad_u in (u[:-1], u + b"\x00", b""):
        with pytest.raises(OTFailure):
            sender.extend(bad_u, 9)
    with pytest.raises(OTFailure):
        sender.extend(u, 17)  # U of 9 choices for 17 transfers
    fresh = ot.OTExtSender(ot.GROUPS["modp-768"], random.Random(32),
                           receiver.setup_message())
    with pytest.raises(OTFailure):
        fresh.extend(u, 9)  # base OTs not run
    with pytest.raises(OTFailure):
        fresh.base_finish()  # base_choose() not run


# ---------------------------------------------------------------------------
# the base-OT session over paillier.fan_out


def _session_outputs(seed, group):
    """Every value an extension session hands out or learns, and both rngs'
    final states."""
    r_rng, s_rng = random.Random(seed), random.Random(seed + 1)
    receiver = ot.OTExtReceiver(group, r_rng)
    a = receiver.setup_message()
    sender = ot.OTExtSender(group, s_rng, a)
    bs = sender.base_choose()
    key_pairs = receiver._base.respond(bs)
    receiver.base_respond(bs)
    keys = sender._base.finish()
    sender.base_finish()
    rng = random.Random(seed + 2)
    rounds = []
    for m in (9, 40):
        u, t = receiver.extend([rng.getrandbits(1) for _ in range(m)])
        rounds.append((u, t.tobytes(), sender.extend(u, m).tobytes()))
    return (a, bs, key_pairs.tobytes(), keys.tobytes(), rounds, r_rng.getstate(),
            s_rng.getstate())


@pytest.mark.parametrize("name", sorted(ot.GROUPS))
def test_session_is_the_same_on_any_pool(monkeypatch, one_worker_pool, name):
    pooled = _session_outputs(50, ot.GROUPS[name])
    monkeypatch.setattr(paillier, "_pool", None)
    assert _session_outputs(50, ot.GROUPS[name]) == pooled


@pytest.mark.parametrize("name", sorted(ot.GROUPS))
def test_every_base_ot_exponentiation_runs_over_the_256_bit_bound(kernel_calls, name):
    # the sender's a and the receiver's b_i are secrets: each kernel call
    # names 256 bits and the group's limb count, whatever the secret is
    group = ot.GROUPS[name]
    bits = [0, 1, 1, 0, 1]
    pairs, keys = _base_ot(bits, 55, 56, group)
    assert np.array_equal(keys, _chosen(pairs, bits))
    # A and A^a, then B_i, B_i^a and A^(b_i) per transfer
    assert [(m, n, enb) for m, n, enb, _ in kernel_calls] == \
        [(group.p, group.p.bit_length() // 64, 256)] * (2 + 3 * len(bits))
    assert ot.SECRET_BITS == 256


@pytest.mark.skipif(paillier._usable_cpus() < 2, reason="needs two usable CPUs")
def test_session_loops_use_a_second_thread(spy):
    group = ot.GROUPS["modp-768"]
    receiver = ot.OTExtReceiver(group, random.Random(52))
    sender = ot.OTExtSender(group, random.Random(53), receiver.setup_message())
    calls = spy(ot, "powmod")
    bs = sender.base_choose()
    threads = [len({t for t, _ in calls})]
    calls.clear()
    receiver.base_respond(bs)
    threads.append(len({t for t, _ in calls}))
    calls.clear()
    sender.base_finish()
    threads.append(len({t for t, _ in calls}))
    assert min(threads) >= 2
