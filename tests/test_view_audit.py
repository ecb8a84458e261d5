"""View audit: what each key holder decrypts, recomputed from the plaintext.

`audit_reveals` takes a run recorded with `keep_payloads=True`, decrypts
every message of a reveal site with the key holder's key and recomputes the
hidden value of each record from the plaintext inputs. A site's value bound
is worked out here from the value's largest possible size, not read from
the program. At each site it asserts that:

- a packed site's message carries ceil(n / slots) ciphertexts, with slots
  of bound + sigma + 1 bits under N, and nothing above its last used slot;
  an unpacked one carries n;
- each decrypted value is the hidden value plus a mask of at most
  bound + sigma bits, and the longest mask has bound + sigma bits, so the
  masks are at least sigma bits longer than the bound;
- no mask is zero and none repeats, so no data or label bit reaches the
  key holder unmasked.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from blindboost import paillier, shares
from blindboost.circuits import build_sub_msb_batch
from blindboost.encoding import Dataset, FixedPointParams, encode_array, fold_labels
from blindboost.protocol import (
    HE_GC,
    SECSH_GC,
    ProtocolConfig,
    Seeds,
    run_learning,
)
from blindboost.garbling import random_delta
from blindboost.ot import KAPPA
from blindboost.protocol import wire
from blindboost.protocol.config import stream
from blindboost.protocol.parties import _setup_header
from blindboost.protocol.stump_select import confidential_ds_select, stump_ring_bits
from blindboost.protocol.transcript import (
    GC_TABLES,
    OT,
    RESULT_EVAL_MASK,
    SETUP,
    Transcript,
)

SIGMA = shares.MASK_SECURITY_BITS


@dataclass
class Site:
    """One reveal site: the messages `direction` carries in `phase`, and
    per message the hidden values."""

    name: str
    direction: str
    phase: str
    hidden: list        # per message, the n hidden integers
    bound_bits: int     # every hidden value is below 2^bound_bits
    packed: bool


def _unpack(plains, width, slots, count):
    out = []
    for i, p in enumerate(plains):
        used = min(slots, count - i * slots)
        assert p >> (width * used) == 0, f"packed plaintext {i} has bits above its slots"
        out += [(p >> (width * s)) & ((1 << width) - 1) for s in range(used - 1, -1, -1)]
    return out


def audit_reveals(transcript: Transcript, kp, sites) -> None:
    recorded = [(d, phase, payload) for (d, phase, _), payload
                in zip(transcript.messages, transcript.payloads)]
    for site in sites:
        payloads = [p for d, phase, p in recorded
                    if (d, phase) == (site.direction, site.phase)]
        assert len(payloads) == len(site.hidden), \
            f"{site.name}: {len(payloads)} messages for {len(site.hidden)} reveals"
        width = site.bound_bits + SIGMA + 1
        masks = []
        for payload, hidden in zip(payloads, site.hidden):
            n = len(hidden)
            assert all(0 <= h < 1 << site.bound_bits for h in hidden)
            cts = paillier.ciphertexts_from_bytes(payload, kp.public)
            plains = [paillier.decrypt(kp, c) for c in cts]
            if site.packed:
                slots = (kp.public.key_bits - 1) // width
                assert len(cts) == -(-n // slots), \
                    f"{site.name}: {len(cts)} ciphertexts for {n} values in {slots} slots"
                values = _unpack(plains, width, slots, n)
            else:
                assert len(cts) == n, f"{site.name}: {len(cts)} ciphertexts for {n} values"
                values = plains
            masks += [v - h for v, h in zip(values, hidden)]
        assert all(0 < m < 1 << (site.bound_bits + SIGMA) for m in masks), \
            f"{site.name}: a mask is zero, negative or longer than bound + sigma"
        assert len(set(masks)) == len(masks), f"{site.name}: a mask repeats"
        longest = max(m.bit_length() for m in masks)
        assert longest >= site.bound_bits + SIGMA, \
            f"{site.name}: {longest}-bit masks hide {site.bound_bits}-bit values"


def _dataset(n, k, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = np.where(X[:, 0] + 0.5 * rng.normal(size=n) > 0, 1, -1).astype(np.int8)
    return Dataset(X, y)


def _dot(rows, wq):
    return [sum(int(z) * int(w) for z, w in zip(row, wq)) for row in rows]


@pytest.mark.parametrize("construction", [HE_GC, SECSH_GC])
def test_boosting_reveals_are_masked_sigma_bits_past_their_bound(recording, construction):
    folded = fold_labels(_dataset(13, 3, seed=81))
    cfg = ProtocolConfig(construction=construction, tau=2, p_max=6, ot_mode="dealer",
                         seeds=Seeds.derive(4))
    _, transcript, cloud, csp = run_learning(cfg, folded, with_parties=True)
    n, d = folded.Z.shape
    fp = FixedPointParams.for_dimension(d)
    bound = (d * (fp.q - 1) ** 2).bit_length()  # a dot product of d ring values
    wqs = [encode_array(w, fp) for w in cloud.tried_w]
    if construction == HE_GC:
        # CSP decrypts u + lambda, u = Z w over the integers
        zq = encode_array(folded.Z, fp)
        site = Site("HE+GC ResultEval", "cloud->csp", RESULT_EVAL_MASK,
                    [_dot(zq, wq) for wq in wqs], bound, packed=True)
        key = csp.keypair
    else:
        # Cloud decrypts Z1 w + lambda, Z1 CSP's share
        site = Site("SecSh+GC ResultEval", "csp->cloud", RESULT_EVAL_MASK,
                    [_dot(csp.z1, wq) for wq in wqs], bound, packed=False)
        key = cloud.keypair
    assert len(wqs) >= 2
    audit_reveals(transcript, key, [site])


def test_stump_selection_reveals_are_masked_sigma_bits_past_their_bound(recording):
    ds = _dataset(24, 3, seed=82)
    cfg = ProtocolConfig(construction=HE_GC, tau=2, p_max=2, ot_mode="dealer",
                         seeds=Seeds(cloud=7, csp=8, data=9))
    s = 3
    res = confidential_ds_select(cfg, ds, s=s)
    n, k = ds.X.shape
    fp = FixedPointParams.for_dimension(k)
    xq = encode_array(ds.X, fp)
    vq = [encode_array(np.array([-4 + 8 * (r + 1) / (s + 1)]), fp)[0] for r in range(s)]
    L_s = (s - 1).bit_length() + 1  # the bins 0 ... s against the constants 1 ... s
    lifted = [(1 << (L_s - 1)) * int(v == 1) for v in ds.y]  # y * 2^(L_s-1)
    # each feature's one reveal hides the records' bins #{r : v_r <= x},
    # from the ring comparisons msb((x - v) mod 2^L) = [x < v], plus the
    # lifted labels, in feature order, for all s thresholds at once:
    # bin <= s <= 2^(L_s-1), so at most 2^L_s, an (L_s + 1)-bit value
    bins = [[sum((int(x) - int(v)) % fp.q < fp.q // 2 for v in vq) for x in xq[:, j]]
            for j in range(k)]
    features = [[b + y for b, y in zip(bins[j], lifted)] for j in range(k)]
    bound = (2 ** (L_s - 1) + 2 ** (L_s - 1)).bit_length()  # for any s of this L_s
    assert bound == L_s + 1
    # no label-only reveal remains: Cloud's SETUP is the shared header alone
    setups = [p for (d, phase, _), p in zip(res.transcript.messages, res.transcript.payloads)
              if (d, phase) == ("cloud->csp", SETUP)]
    assert setups == [_setup_header(n, k, L_s)]
    site = Site("stump features", "cloud->csp", RESULT_EVAL_MASK, features,
                bound, packed=True)
    key = paillier.keygen(cfg.key_bits, stream(cfg.seeds.csp, b"keyg"))
    audit_reveals(res.transcript, key, [site])


def test_audit_refuses_masks_drawn_for_the_ring_width(recording, monkeypatch):
    # L + sigma-bit masks on a product of 2L + ceil(log2 d) bits leave about
    # L bits of the hiding unpaid: the audit must say so
    folded = fold_labels(_dataset(9, 2, seed=83))
    d = folded.Z.shape[1]
    fp = FixedPointParams.for_dimension(d)
    sample = shares.sample_masks
    monkeypatch.setattr(shares, "sample_masks",
                        lambda count, value_bits, rng: sample(count, fp.ring_bits, rng))
    cfg = ProtocolConfig(construction=SECSH_GC, tau=1, p_max=3, ot_mode="dealer")
    _, transcript, cloud, csp = run_learning(cfg, folded, with_parties=True)
    site = Site("SecSh+GC ResultEval", "csp->cloud", RESULT_EVAL_MASK,
                [_dot(csp.z1, encode_array(w, fp)) for w in cloud.tried_w],
                (d * (fp.q - 1) ** 2).bit_length(), packed=False)
    with pytest.raises(AssertionError, match="hide"):
        audit_reveals(transcript, cloud.keypair, [site])


def _base_ot_run(kind):
    """A base-OT run of `kind` recorded with payloads: its transcript, GC
    rounds, transfers per round and CSP's free-XOR delta, the first draw of
    CSP's ot_s stream (as `ot.OTExtSender` makes it)."""
    cfg = ProtocolConfig(construction=SECSH_GC if kind == "secsh-gc" else HE_GC, tau=2,
                         p_max=6, ot_mode="base", seeds=Seeds.derive(6))
    if kind == "stump":
        ds, s = _dataset(24, 3, seed=82), 3
        transcript = confidential_ds_select(cfg, ds, s=s).transcript
        m = len(ds.y) * ((s - 1).bit_length() + 1)  # n records of L_s bits
    else:
        folded = fold_labels(_dataset(13, 3, seed=81))
        _, transcript = run_learning(cfg, folded)
        m = len(folded.Z) * FixedPointParams.for_dimension(folded.Z.shape[1]).ring_bits
    return transcript, transcript.iterations(), m, random_delta(stream(cfg.seeds.csp, b"ot_s"))


@pytest.mark.parametrize("kind", ["he-gc", "secsh-gc", "stump"])
def test_base_ot_rounds_show_csp_only_u_and_cloud_no_label_pair(recording, kind):
    # correlated OT keyed by delta: each GC round's label OT is Cloud's U
    # alone, KAPPA packed columns of ceil(m/8) bytes for m transfers; CSP
    # sends no OT message, so Cloud never holds a label pair, and delta
    # travels in no payload Cloud receives
    transcript, rounds, m, delta = _base_ot_run(kind)
    assert rounds >= 2
    recorded = [(d, phase, p) for (d, phase, _), p
                in zip(transcript.messages, transcript.payloads)]
    us = [(d, p) for d, phase, p in recorded if phase == OT]
    assert [d for d, _ in us] == ["cloud->csp"] * rounds
    assert all(p == wire.pack_blob(p[4:]) and len(p) - 4 == KAPPA * -(-m // 8)
               for _, p in us)
    to_cloud = [(phase, p) for d, phase, p in recorded if d == "csp->cloud"]
    assert OT not in {phase for phase, _ in to_cloud}
    assert delta[0] & 1 == 1
    assert not any(delta.tobytes() in p for _, p in to_cloud)


def _gc_run(kind, ot_mode):
    """A run of `kind` under `ot_mode` recorded with payloads: its
    transcript, the sign circuit of its GC rounds and CSP's free-XOR delta,
    the first draw of CSP's ot_s stream under either OT mode."""
    cfg = ProtocolConfig(construction=SECSH_GC if kind == "secsh-gc" else HE_GC, tau=2,
                         p_max=6, ot_mode=ot_mode, seeds=Seeds.derive(6))
    if kind == "stump":
        ds, s = _dataset(24, 3, seed=82), 3
        transcript = confidential_ds_select(cfg, ds, s=s).transcript
        circuit = build_sub_msb_batch(stump_ring_bits(s), len(ds.y), range(1, s + 1))
    else:
        folded = fold_labels(_dataset(13, 3, seed=81))
        _, transcript = run_learning(cfg, folded)
        ring_bits = FixedPointParams.for_dimension(folded.Z.shape[1]).ring_bits
        circuit = build_sub_msb_batch(ring_bits, len(folded.Z))
    return transcript, circuit, random_delta(stream(cfg.seeds.csp, b"ot_s"))


@pytest.mark.parametrize("ot_mode", ["dealer", "base"])
@pytest.mark.parametrize("kind", ["he-gc", "secsh-gc", "stump"])
def test_cloud_receives_no_label_of_a_csp_wire(recording, kind, ot_mode):
    # each minuend wire's 0-label is bit * delta, so the label Cloud uses
    # there is all zeros and the wire's one non-zero label is delta: delta
    # is in no payload Cloud receives, at any offset, and every GC_TABLES
    # is the AND-table blob alone: two rows per AND gate, one (te) for a
    # gate whose first input is CSP's alone
    transcript, circuit, delta = _gc_run(kind, ot_mode)
    assert delta[0] & 1 == 1
    to_cloud = [(phase, p) for (d, phase, _), p
                in zip(transcript.messages, transcript.payloads) if d == "csp->cloud"]
    assert not any(delta.tobytes() in p for _, p in to_cloud)
    tables = [p for phase, p in to_cloud if phase == GC_TABLES]
    assert len(tables) == transcript.iterations() >= 2
    row_bytes = (2 * circuit.and_count - len(circuit.te_only)) * 16
    for p in tables:
        assert len(p) == 4 + row_bytes
        blob, off = wire.unpack_blob(p)
        assert (len(blob), off) == (row_bytes, len(p))
