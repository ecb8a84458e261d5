import random
import threading

import numpy as np
import pytest

from blindboost import ot, paillier
from blindboost.errors import (
    GroupElementInvalid,
    ModeNotPermittedInSecureProfile,
    OTFailure,
)
from blindboost.protocol import engine, parties, transport
from blindboost.protocol.config import HE_GC, ProtocolConfig, paper_faithful, stream


def _pairs(rng, count):
    blob = b"".join(rng.getrandbits(128).to_bytes(16, "big") for _ in range(2 * count))
    return np.frombuffer(blob, dtype=np.uint8).reshape(count, 2, 16)


def _chosen(pairs, bits):
    """Label bits[i] of pair i, as a (count, 16) array."""
    return np.stack([p[b] for p, b in zip(pairs, bits)]).reshape(-1, 16)


_ONE_PAIR = np.frombuffer(b"0" * 16 + b"1" * 16, dtype=np.uint8).reshape(1, 2, 16)


def _spy_powmod(monkeypatch):
    """Records the thread of every ot.powmod call."""
    threads = []
    real = ot.powmod

    def spy(*args):
        threads.append(threading.current_thread())
        return real(*args)

    monkeypatch.setattr(ot, "powmod", spy)
    return threads


def _spy_checks(monkeypatch):
    """Records (thread, element) of every ot._validate_element call."""
    checked = []
    real = ot._validate_element

    def spy(group, x):
        checked.append((threading.current_thread(), x))
        return real(group, x)

    monkeypatch.setattr(ot, "_validate_element", spy)
    return checked


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


def test_dealer_refused_in_secure_profile():
    with pytest.raises(ModeNotPermittedInSecureProfile):
        ot.dealer_choose(_ONE_PAIR, [0], secure_profile=True)


def _base_ot(pairs, bits, sender_seed, receiver_seed):
    """Per-wire base OT in modp-768 with both ends in-process."""
    group = ot.GROUPS["modp-768"]
    sender = ot.OTSender(group, random.Random(sender_seed))
    receiver = ot.OTReceiver(group, random.Random(receiver_seed), sender.setup_message())
    return receiver.finish(sender.respond(receiver.choose(bits), pairs))


def test_base_ot_delivers_chosen_labels():
    rng = random.Random(2)
    pairs = _pairs(rng, 64)
    bits = [rng.getrandbits(1) for _ in range(64)]
    assert np.array_equal(_base_ot(pairs, bits, 3, 4), _chosen(pairs, bits))


def test_base_ot_choice_zero():
    pair = np.frombuffer(b"A" * 16 + b"B" * 16, dtype=np.uint8).reshape(1, 2, 16)
    assert _base_ot(pair, [0], 5, 6).tobytes() == b"A" * 16


def test_replayed_transcript_wrong_choice_gives_garbage():
    # with a fixed transcript the receiver can decrypt only its chosen row;
    # the other row yields neither label
    rng = random.Random(7)
    group = ot.GROUPS["modp-768"]
    pairs = _pairs(rng, 4)
    bits = [0, 1, 0, 1]
    sender = ot.OTSender(group, random.Random(8))
    receiver = ot.OTReceiver(group, random.Random(9), sender.setup_message())
    bs = receiver.choose(bits)
    responses = sender.respond(bs, pairs)
    labels = receiver.finish(responses)
    assert np.array_equal(labels, _chosen(pairs, bits))
    # decrypt the other row with the same key material
    for i, ((e0, e1), c) in enumerate(zip(responses, bits)):
        k = ot._kdf(ot.powmod(receiver.A, receiver._secrets[i], group.p), i)
        wrong = (e0 if c else e1) ^ np.frombuffer(k, dtype=np.uint8)
        assert not any(np.array_equal(wrong, x) for x in pairs[i])


def test_group_element_validation():
    group = ot.GROUPS["modp-768"]
    sender = ot.OTSender(group, random.Random(10))
    with pytest.raises(GroupElementInvalid):
        sender.respond([1], _ONE_PAIR)
    with pytest.raises(GroupElementInvalid):
        sender.respond([group.p - 1], _ONE_PAIR)
    with pytest.raises(GroupElementInvalid):
        ot.OTReceiver(group, random.Random(11), 0)


def test_subgroup_check_in_secure_profile():
    group = ot.GROUPS["modp-768"]
    sender = ot.OTSender(group, random.Random(12))
    # -4 is a non-residue (p = 3 mod 4), hence outside the order-q subgroup
    with pytest.raises(GroupElementInvalid):
        sender.respond([group.p - 4], _ONE_PAIR)
    # a genuine subgroup element passes the check
    sender.respond([ot.powmod(group.g, 12345, group.p)], _ONE_PAIR)


@pytest.mark.parametrize("name", sorted(ot.GROUPS))
def test_every_received_element_is_checked(monkeypatch, one_worker_pool, name):
    # 0, 1, p - 1, p and p + 4 are out of range (p + 4 is a residue mod p);
    # p - 4 = -4 is a non-residue (p = 3 mod 4), outside the order-q subgroup
    group = ot.GROUPS[name]
    p = group.p
    receiver = ot.OTExtReceiver(group, random.Random(60))
    bs = ot.OTExtSender(group, random.Random(61), receiver.setup_message()).base_choose()
    sender = ot.OTSender(group, random.Random(62))
    pairs = _pairs(random.Random(63), 4)
    checked = _spy_checks(monkeypatch)
    for bad in (0, 1, p - 1, p, p - 4, p + 4):
        for make in (ot.OTReceiver, ot.OTExtSender):
            with pytest.raises(GroupElementInvalid):
                make(group, random.Random(64), bad)
        # the first element is checked on the calling thread, the last on the worker
        for respond, good in ((lambda xs: sender.respond(xs, pairs), bs[:4]),
                              (receiver.base_respond, bs)):
            for where in (0, len(good) - 1):
                checked.clear()
                with pytest.raises(GroupElementInvalid):
                    respond(good[:where] + [bad] + good[where + 1:])
                on_main = [t is threading.current_thread() for t, x in checked if x == bad]
                assert on_main == [where == 0]


@pytest.mark.parametrize("cfg", [ProtocolConfig(HE_GC, tau=1, p_max=2),
                                 paper_faithful(HE_GC, tau=1, p_max=2)],
                         ids=["modp-768", "modp-2048"])
def test_base_ot_secrets_are_short_and_drawn_from_the_party_stream(
        monkeypatch, one_worker_pool, cfg):
    def secrets():
        ch_cloud, ch_csp, _ = transport.memory_pair()
        cloud, csp = engine.run_pair(lambda: parties.open_cloud(ch_cloud, cfg, 4, 1, 17),
                                     lambda: parties.open_csp(ch_csp, cfg, 4, 1, 17),
                                     ch_cloud, ch_csp)
        return cloud.label_ot._session._base._a, csp.label_ot._session._base._secrets

    a, bs = secrets()
    assert {x.bit_length() for x in [a, *bs]} == {256}
    # Cloud's a is the first draw of its ot_r stream; CSP's b_i follow its
    # KAPPA-bit choice string on its ot_s stream
    cloud_rng, csp_rng = stream(cfg.seeds.cloud, b"ot_r"), stream(cfg.seeds.csp, b"ot_s")
    assert a == cloud_rng.getrandbits(255) | 1 << 255
    csp_rng.getrandbits(ot.KAPPA)
    assert bs == [csp_rng.getrandbits(255) | 1 << 255 for _ in range(ot.KAPPA)]
    monkeypatch.setattr(paillier, "_pool", None)
    assert secrets() == (a, bs)


def test_count_mismatch(monkeypatch):
    group = ot.GROUPS["modp-768"]
    sender = ot.OTSender(group, random.Random(13))
    receiver = ot.OTReceiver(group, random.Random(17), sender.setup_message())
    responses = sender.respond(receiver.choose([0, 1, 1]), _pairs(random.Random(18), 3))
    calls = _spy_powmod(monkeypatch)
    with pytest.raises(OTFailure):
        sender.respond([4, 4], _ONE_PAIR)
    with pytest.raises(OTFailure):
        receiver.finish(responses[:2])
    assert calls == []  # refused before any exponentiation


def test_finish_before_choose_is_refused():
    group = ot.GROUPS["modp-768"]
    sender = ot.OTSender(group, random.Random(13))
    receiver = ot.OTReceiver(group, random.Random(17), sender.setup_message())
    with pytest.raises(OTFailure, match="choose"):
        receiver.finish(_pairs(random.Random(18), 0))


def test_sender_second_key_matches_two_pow_formula():
    # k1 = H(B^a * A^{-a}) must equal the textbook H((B/A)^a)
    group = ot.GROUPS["modp-768"]
    rng = random.Random(14)
    sender = ot.OTSender(group, random.Random(15))
    receiver = ot.OTReceiver(group, random.Random(16), sender.setup_message())
    bs = receiver.choose([rng.getrandbits(1) for _ in range(6)])
    keys = sender.respond(bs, np.zeros((len(bs), 2, 16), dtype=np.uint8))
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
    sender.base_finish(receiver.base_respond(sender.base_choose()))
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


def test_extension_delivers_chosen_labels_over_rounds():
    sender, receiver = _ext_session(20)
    rng = random.Random(21)
    for _ in range(3):
        for m in (1, 7, 8, 209):
            pairs = _pairs(rng, m)
            bits = [rng.getrandbits(1) for _ in range(m)]
            u = receiver.choose(bits)
            assert len(u) == ot.KAPPA * ((m + 7) // 8)
            got = receiver.finish(sender.respond(u, pairs))
            assert np.array_equal(got, _chosen(pairs, bits))


def test_extension_same_choices_give_fresh_u():
    # the column streams continue across rounds: a restarted PRG would
    # repeat U for repeated choice bits
    sender, receiver = _ext_session(22)
    rng = random.Random(23)
    bits = [rng.getrandbits(1) for _ in range(40)]
    pairs = _pairs(rng, 40)
    seen = []
    for _ in range(2):
        u = receiver.choose(bits)
        seen.append(u)
        assert np.array_equal(receiver.finish(sender.respond(u, pairs)),
                              _chosen(pairs, bits))
    assert seen[0] != seen[1]


def test_extension_unchosen_label_stays_masked():
    sender, receiver = _ext_session(24)
    rng = random.Random(25)
    pairs = _pairs(rng, 64)
    bits = [rng.getrandbits(1) for _ in range(64)]
    responses = sender.respond(receiver.choose(bits), pairs)
    r, t_rows, first = receiver._pending
    masks = ot._hash_rows(t_rows, first)
    for j, ((y0, y1), c) in enumerate(zip(responses, r)):
        other = (y0 if c else y1) ^ masks[j]
        assert not any(np.array_equal(other, x) for x in pairs[j])
    assert np.array_equal(receiver.finish(responses), _chosen(pairs, bits))


def test_extension_base_ots_check_subgroup(monkeypatch, one_worker_pool):
    group = ot.GROUPS["modp-768"]
    receiver = ot.OTExtReceiver(group, random.Random(26))
    sender = ot.OTExtSender(group, random.Random(27), receiver.setup_message())
    bs = sender.base_choose()
    checked = _spy_checks(monkeypatch)
    # the first base OT runs on the calling thread, the last on the worker
    for where in (0, ot.KAPPA - 1):
        checked.clear()
        with pytest.raises(GroupElementInvalid):
            receiver.base_respond(bs[:where] + [group.p - 4] + bs[where + 1:])
        on_main = [t is threading.current_thread() for t, x in checked if x == group.p - 4]
        assert on_main == [where == 0]
    with pytest.raises(GroupElementInvalid):
        ot.OTExtSender(group, random.Random(28), group.p - 4)


def test_extension_rejects_malformed_messages():
    sender, receiver = _ext_session(30)
    rng = random.Random(31)
    pairs = _pairs(rng, 9)
    bits = [rng.getrandbits(1) for _ in range(9)]
    u = receiver.choose(bits)
    for bad_u in (u[:-1], u + b"\x00", b""):
        with pytest.raises(OTFailure):
            sender.respond(bad_u, pairs)
    responses = sender.respond(u, pairs)
    with pytest.raises(OTFailure):
        receiver.finish(responses[:-1])
    receiver.choose(bits)
    with pytest.raises(OTFailure):
        receiver.finish(responses[:, :, :5])  # labels of the wrong length
    with pytest.raises(OTFailure):
        receiver.finish(responses)  # no choose() since the last finish
    fresh = ot.OTExtSender(ot.GROUPS["modp-768"], random.Random(32),
                           receiver.setup_message())
    with pytest.raises(OTFailure):
        fresh.respond(u, pairs)  # base OTs not run
    fresh.base_choose()
    with pytest.raises(OTFailure):
        fresh.base_finish(np.zeros((1, 2, 16), dtype=np.uint8))  # count mismatch


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
    base = receiver.base_respond(bs)
    learned = sender._base.finish(base)
    sender.base_finish(base)
    rng = random.Random(seed + 2)
    rounds = []
    for m in (9, 40):
        pairs = _pairs(rng, m)
        u = receiver.choose([rng.getrandbits(1) for _ in range(m)])
        ys = sender.respond(u, pairs)
        rounds.append((u, ys.tobytes(), receiver.finish(ys).tobytes()))
    return (a, bs, base.tobytes(), learned.tobytes(), rounds, r_rng.getstate(),
            s_rng.getstate())


@pytest.mark.parametrize("name", sorted(ot.GROUPS))
def test_session_is_the_same_on_any_pool(monkeypatch, one_worker_pool, name):
    pooled = _session_outputs(50, ot.GROUPS[name])
    monkeypatch.setattr(paillier, "_pool", None)
    assert _session_outputs(50, ot.GROUPS[name]) == pooled


@pytest.mark.skipif(paillier._usable_cpus() < 2, reason="needs two usable CPUs")
def test_session_loops_use_a_second_thread(monkeypatch):
    group = ot.GROUPS["modp-768"]
    receiver = ot.OTExtReceiver(group, random.Random(52))
    sender = ot.OTExtSender(group, random.Random(53), receiver.setup_message())
    calls = _spy_powmod(monkeypatch)
    bs = sender.base_choose()
    threads = [len(set(calls))]
    calls.clear()
    base = receiver.base_respond(bs)
    threads.append(len(set(calls)))
    calls.clear()
    sender.base_finish(base)
    threads.append(len(set(calls)))
    assert min(threads) >= 2
