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
from blindboost.encoding import Dataset, FixedPointParams, encode_array, fold_labels
from blindboost.protocol import (
    HE_GC,
    SECSH_GC,
    ProtocolConfig,
    Seeds,
    run_learning,
    transport,
)
from blindboost.protocol.config import stream
from blindboost.protocol.parties import _setup_header
from blindboost.protocol.stump_select import confidential_ds_select
from blindboost.protocol.transcript import BASE_APPLY, RESULT_EVAL_MASK, SETUP, Transcript

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


@pytest.fixture
def recording(monkeypatch):
    pair = transport.memory_pair
    monkeypatch.setattr(transport, "memory_pair",
                        lambda: pair(Transcript(keep_payloads=True)))


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
        site = Site("SecSh+GC BaseApply", "csp->cloud", BASE_APPLY,
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
    lifted = [(fp.q // 2) * int(v == 1) for v in ds.y]  # y * 2^(L-1)
    # each feature's one reveal hides x + y * 2^(L-1), in feature order, for
    # all s thresholds at once: at most (q - 1) + q / 2, an (L + 1)-bit value
    features = [[int(x) + y for x, y in zip(xq[:, j], lifted)] for j in range(k)]
    bound = (fp.q - 1 + fp.q // 2).bit_length()
    assert bound == fp.ring_bits + 1
    # no label-only reveal remains: Cloud's SETUP is the shared header alone
    setups = [p for (d, phase, _), p in zip(res.transcript.messages, res.transcript.payloads)
              if (d, phase) == ("cloud->csp", SETUP)]
    assert setups == [_setup_header(n, k, fp.ring_bits)]
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
    site = Site("SecSh+GC BaseApply", "csp->cloud", BASE_APPLY,
                [_dot(csp.z1, encode_array(w, fp)) for w in cloud.tried_w],
                (d * (fp.q - 1) ** 2).bit_length(), packed=False)
    with pytest.raises(AssertionError, match="hide"):
        audit_reveals(transcript, cloud.keypair, [site])
